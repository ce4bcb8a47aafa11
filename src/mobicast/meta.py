"""Transfer learning across countries: first-order meta-training of the shared
initialization that MPNN_TL grid cells fine-tune from, and the pooled-data
baseline."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dataio import CountryDataset
from .errors import ContractError, InsufficientDataError, TrainingDivergedError
from .graphs import assemble_samples
from .models import ModelState, model_spec
from .optim import sgd_step
from .params import save_params
from .rng import Rng
from .train import (
    PROTOCOL_START_DAY,
    Checkpoint,
    ProtocolGrid,
    SplitSpec,
    TrainConfig,
    loss_and_grads,
    train_model,
)


@dataclass(frozen=True)
class MetaConfig:
    inner_lr: float = 1e-3   # step size of the per-task adaptation pass
    meta_lr: float = 1e-3    # step size of the shared-parameter update
    dt: int = 14             # horizons 1..dt
    t_start: int = PROTOCOL_START_DAY
    meta_epochs: int = 1
    batch_size: int = 8

    def __post_init__(self):
        if not 0 <= self.inner_lr < math.inf or not 0 <= self.meta_lr < math.inf:
            raise ContractError("step sizes must be finite and >= 0")
        if self.dt < 1 or self.batch_size < 1 or self.meta_epochs < 0:
            raise ContractError("dt/batch_size must be >= 1 and meta_epochs >= 0")
        if self.t_start < PROTOCOL_START_DAY:
            raise ContractError(
                f"t_start must be >= {PROTOCOL_START_DAY}, got {self.t_start}")


def enumerate_tasks(dataset: CountryDataset, config: MetaConfig, d: int) -> list:
    """Task grid over (t, horizon), t ascending then horizon ascending, with
    d-day feature windows.  A task is a SplitSpec without validation: every
    sample whose target falls inside the first t days adapts, and the one
    whose target falls at day t+horizon is held out.

    Anchors start no earlier than day d, as earlier ones lack a full feature
    window, and ProtocolGrid.anchors keeps the cells whose held-out target
    day falls within the data; an empty grid is an error.
    """
    tasks = []
    grid = ProtocolGrid(t_start=max(config.t_start, d), dt=config.dt)
    for t, horizons in grid.anchors(dataset.t_total):
        for j in horizons:
            universe = assemble_samples(dataset, d, j, t_end=t, include_test=True)
            tasks.append(SplitSpec(country=dataset.country, t=t, horizon=j,
                                   train=universe[:-1], validation=[],
                                   test=universe[-1]))
    if not tasks:
        raise InsufficientDataError(
            f"{dataset.country}: no tasks for t_start={config.t_start}, "
            f"dt={config.dt} in {dataset.t_total} days")
    return tasks


def meta_task_step(model, state: ModelState, task: SplitSpec, inner_lr: float,
                   meta_step: float, batch_size: int, rng) -> None:
    """One task's contribution to the shared parameters, applied in place.

    Adapts the shared parameters with one pass of batch gradient steps over
    the task's training samples (each step makes new arrays, so `state`
    keeps its own), then moves `state` along the adapted parameters'
    held-out gradient (the curvature correction of the exact two-level
    derivative is dropped).  Normalization buffers are shared, so running
    statistics accumulate into `state` and the returned initialization
    normalizes at the scale its weights were trained against.
    """
    inner = ModelState(state.params, state.buffers)

    def grads(batch, stage: str) -> dict:
        _, out = loss_and_grads(model, inner, batch, rng)
        if out is None:
            raise TrainingDivergedError(
                f"non-finite loss during {stage} for {task.country} "
                f"t={task.t} j={task.horizon}")
        return out

    for start in range(0, len(task.train), batch_size):
        batch = task.train[start:start + batch_size]
        inner.params = sgd_step(inner.params, grads(batch, "adaptation"), inner_lr)
    state.params = sgd_step(state.params, grads([task.test], "meta step"), meta_step)


def maml_meta_train(datasets: list, model, config: MetaConfig, seed: int) -> ModelState:
    """Learn a shared initialization from several countries' task grids.

    Countries are visited in the given order, tasks in grid order; the shared
    parameters move after every task, scaled by meta_lr over the number of
    countries.  Returns the final shared state; a non-finite one raises
    TrainingDivergedError.
    """
    if not datasets:
        raise ContractError("meta-training needs at least one country")
    rng = Rng(seed)
    state = model.init_state(rng.spawn("init"))
    task_lists = [enumerate_tasks(ds, config, model.d) for ds in datasets]
    step = config.meta_lr / len(datasets)
    dropout_rng = rng.spawn("dropout")
    for _ in range(config.meta_epochs):
        for tasks in task_lists:
            for task in tasks:
                meta_task_step(model, state, task, config.inner_lr, step,
                               config.batch_size, dropout_rng)
    bad = [name for name, arr in {**state.params, **state.buffers}.items()
           if not np.isfinite(arr).all()]
    if bad:
        raise TrainingDivergedError(f"non-finite shared state: {', '.join(sorted(bad))}")
    return state


def tl_base_train(foreign: list, splits: SplitSpec, model,
                  train_config: TrainConfig, seed: int) -> Checkpoint:
    """Train one model on the foreign datasets' full sample sets, in list
    order, pooled with the training split of the target's cell `splits`;
    validation and test stay target-only.  `foreign` never holds the target."""
    pooled = []
    for ds in foreign:
        pooled.extend(assemble_samples(ds, model.d, splits.horizon, t_end=ds.t_total))
    pooled.extend(splits.train)
    return train_model(replace(splits, train=pooled), model, train_config, seed)


def save_meta_state(path: str, state: ModelState, model, countries: list,
                    config: MetaConfig, seed: int) -> None:
    """Write a shared initialization; the header's config records the
    feature window d and the seed meta-training used."""
    save_params(path, state.params, state.buffers, {
        "kind": "mobicast-meta",
        "model": model_spec(model),
        "countries": list(countries),
        "config": {**asdict(config), "d": model.d, "seed": seed},
    })
