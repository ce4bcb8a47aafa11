"""Transfer learning across countries: first-order meta-training of the shared
initialization that MPNN_TL grid cells fine-tune from, and the pooled-data
baseline."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from .dataio import CountryDataset
from .errors import (
    CheckpointError,
    ContractError,
    InsufficientDataError,
    TrainingDivergedError,
)
from .graphs import GraphSample, assemble_samples
from .models import ModelState, model_from_spec, model_spec
from .optim import sgd_step
from .params import clone_params, load_params, save_params
from .rng import Rng
from .train import (
    PROTOCOL_START_DAY,
    Checkpoint,
    SplitSpec,
    TrainConfig,
    loss_and_grads,
    make_splits,
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
    d: int = 7
    seed: int = 0

    def __post_init__(self):
        if self.inner_lr < 0 or self.meta_lr < 0:
            raise ContractError("step sizes must be >= 0")
        if self.dt < 1 or self.batch_size < 1 or self.d < 1 or self.meta_epochs < 0:
            raise ContractError("dt/batch_size/d must be >= 1 and meta_epochs >= 0")
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


def enumerate_tasks(dataset: CountryDataset, config: MetaConfig) -> list:
    """Task grid over (t, horizon), t ascending then horizon ascending.

    Cells whose held-out target day would fall beyond the data are skipped;
    an empty grid is an error.
    """
    tasks = []
    for t in range(config.t_start, dataset.t_total + 1):
        for j in range(1, config.dt + 1):
            if t + j > dataset.t_total:
                continue
            universe = assemble_samples(dataset, config.d, j, t_end=t,
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


def maml_meta_train(datasets: list, model, config: MetaConfig,
                    init_state: Optional[ModelState] = None) -> ModelState:
    """Learn a shared initialization from several countries' task grids.

    Countries are visited in the given order, tasks in grid order; the shared
    parameters move after every task, scaled by meta_lr over the number of
    countries.  Returns the final shared state.
    """
    if not datasets:
        raise ContractError("meta-training needs at least one country")
    rng = Rng(config.seed)
    if init_state is not None:
        template = model.init_state(rng.spawn("shape-check"))
        if set(template.params) != set(init_state.params) or any(
                template.params[k].shape != init_state.params[k].shape
                for k in template.params):
            raise ContractError("init_state does not match the model's "
                                "parameter layout")
        state = init_state.clone()
    else:
        state = model.init_state(rng.spawn("init"))
    task_lists = [enumerate_tasks(ds, config) for ds in datasets]
    step = config.meta_lr / len(datasets)
    dropout_rng = rng.spawn("dropout")
    for _ in range(config.meta_epochs):
        for tasks in task_lists:
            for task in tasks:
                meta_task_step(model, state, task, config.inner_lr, step,
                               config.batch_size, dropout_rng)
    return state


def tl_base_train(datasets: list, target_country: str, t: int, j: int, model,
                  train_config: TrainConfig) -> Checkpoint:
    """Train one model on every other country's full sample set pooled with
    the target's training split; validation and test stay target-only."""
    matches = [ds for ds in datasets if ds.country == target_country]
    if len(matches) != 1:
        raise ContractError(
            f"target country {target_country!r} must appear exactly once, "
            f"found {len(matches)}")
    target = matches[0]
    splits = make_splits(target, t, j, model.d)
    pooled = []
    for ds in datasets:
        if ds.country != target_country:
            pooled.extend(assemble_samples(ds, model.d, j, t_end=ds.t_total))
    pooled.extend(splits.train)
    full = SplitSpec(t=t, horizon=j, train=pooled,
                     validation=splits.validation, test=splits.test)
    return train_model(full, model, train_config)


def save_meta_state(path: str, state: ModelState, model, countries: list,
                    config: MetaConfig) -> None:
    save_params(path, state.params, state.buffers, {
        "kind": "mobicast-meta",
        "model": model_spec(model),
        "countries": list(countries),
        "config": asdict(config),
    })


def load_meta_state(path: str):
    """Returns (state, model, countries) from a saved shared initialization."""
    params, buffers, meta = load_params(path)
    if meta.get("kind") != "mobicast-meta":
        raise CheckpointError(f"{path!r} is not a meta-training state")
    return (ModelState(params, buffers), model_from_spec(meta["model"]),
            list(meta["countries"]))
