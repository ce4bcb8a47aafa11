"""Transfer learning across countries: first-order meta-training of the shared
initialization that MPNN_TL grid cells fine-tune from, and the pooled-data
baseline."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .dataio import CountryDataset
from .errors import ContractError, InsufficientDataError, TrainingDivergedError
from .graphs import GraphSample, assemble_samples
from .models import ModelState, model_spec
from .optim import sgd_step
from .params import clone_params, save_params
from .rng import Rng
from .train import (
    PROTOCOL_START_DAY,
    Checkpoint,
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
        if self.inner_lr < 0 or self.meta_lr < 0:
            raise ContractError("step sizes must be >= 0")
        if self.dt < 1 or self.batch_size < 1 or self.meta_epochs < 0:
            raise ContractError("dt/batch_size must be >= 1 and meta_epochs >= 0")
        if self.t_start < PROTOCOL_START_DAY:
            raise ContractError(
                f"t_start must be >= {PROTOCOL_START_DAY}, got {self.t_start}")


@dataclass
class TaskSplit:
    """One adaptation task: all samples with targets inside the first t days,
    plus the single held-out sample whose target falls at day t+horizon."""
    country: str
    t: int
    horizon: int
    train: list
    test: GraphSample


def enumerate_tasks(dataset: CountryDataset, config: MetaConfig, d: int) -> list:
    """Task grid over (t, horizon), t ascending then horizon ascending, with
    d-day feature windows.

    Anchors before day d, which have no full feature window, and cells whose
    held-out target day would fall beyond the data are skipped; an empty grid
    is an error.
    """
    tasks = []
    for t in range(max(config.t_start, d), dataset.t_total + 1):
        for j in range(1, config.dt + 1):
            if t + j > dataset.t_total:
                continue
            universe = assemble_samples(dataset, d, j, t_end=t,
                                        include_test=True)
            tasks.append(TaskSplit(country=dataset.country, t=t, horizon=j,
                                   train=universe[:-1], test=universe[-1]))
    if not tasks:
        raise InsufficientDataError(
            f"{dataset.country}: no tasks for t_start={config.t_start}, "
            f"dt={config.dt} in {dataset.t_total} days")
    return tasks


def meta_task_step(model, state: ModelState, task: TaskSplit, inner_lr: float,
                   meta_step: float, batch_size: int, rng) -> None:
    """One task's contribution to the shared parameters, applied in place.

    Clones the shared parameters, adapts the clone with one pass of batch
    gradient steps over the task's training samples, then moves the shared
    parameters along the adapted clone's held-out gradient (the curvature
    correction of the exact two-level derivative is dropped).  Normalization
    buffers are shared with the clone, so running statistics accumulate into
    `state` and the returned initialization normalizes at the scale its
    weights were trained against.
    """
    inner = ModelState(clone_params(state.params), state.buffers)

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
    countries.  Returns the final shared state.
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
    return state


def tl_base_train(datasets: list, target_country: str, splits: SplitSpec,
                  model, train_config: TrainConfig, seed: int) -> Checkpoint:
    """Train one model on every other country's full sample set pooled with
    the target's training split; validation and test stay target-only.

    `splits` is the target's cell split at (splits.t, splits.horizon)."""
    found = sum(ds.country == target_country for ds in datasets)
    if found != 1:
        raise ContractError(
            f"target country {target_country!r} must appear exactly once, "
            f"found {found}")
    pooled = []
    for ds in datasets:
        if ds.country != target_country:
            pooled.extend(assemble_samples(ds, model.d, splits.horizon,
                                           t_end=ds.t_total))
    pooled.extend(splits.train)
    full = SplitSpec(t=splits.t, horizon=splits.horizon, train=pooled,
                     validation=splits.validation, test=splits.test)
    return train_model(full, model, train_config, seed)


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
