"""Rolling-origin evaluation: the run config and the (T, horizon) protocol
driver that trains, loads and scores each grid cell.  Its outcomes, metrics
and reports are in `report`, which loads none of the training stack."""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass

import numpy as np

from .baselines import ar_fit, ar_predict, avg_predict, avg_window_predict, last_day_predict
from .dataio import make_dir
from .errors import (CheckpointError, ContractError, DataError, InsufficientDataError,
                     TrainingDivergedError)
from .graphs import normalized_graphs
from .meta import MetaConfig, maml_meta_train, save_meta_state, tl_base_train
from .models import BaselineLSTMModel, MPNNLSTMModel, MPNNModel
from .report import MODEL_NAMES, CellResult, cell_label
from .rng import derive_seed
from .train import (
    ProtocolGrid,
    TrainConfig,
    divergence_at,
    load_checkpoint,
    make_splits,
    predict,
    save_checkpoint,
    train_model,
)

# the model class each trainable grid name builds; every other name is a baseline
TRAINABLE_MODELS = {"LSTM": BaselineLSTMModel, "MPNN": MPNNModel,
                    "MPNN_LSTM": MPNNLSTMModel, "MPNN_TL": MPNNModel,
                    "TL_BASE": MPNNModel}


@dataclass(frozen=True)
class EvalConfig:
    """One grid run's settings: defaults, then config file, then flags.  A
    config file and run.json's `config` hold its fields, nested as here."""
    train: TrainConfig = TrainConfig()
    meta: MetaConfig = MetaConfig()
    seed: int = 0
    jobs: int = 1
    ar_order: int = 7
    ar_differencing: int = 1
    grid: ProtocolGrid = ProtocolGrid()
    models: tuple = ("MPNN",)

    def __post_init__(self):
        if self.jobs < 1:
            raise ContractError(f"jobs must be >= 1, got {self.jobs}")
        if self.ar_order < 1 or self.ar_differencing not in (0, 1):
            raise ContractError("ar_order must be >= 1 and ar_differencing 0 or 1")
        if not isinstance(self.models, (list, tuple)):
            raise ContractError("config key 'models' must be a list of names")
        names = tuple(str(m).upper() for m in self.models)
        object.__setattr__(self, "models", names)
        if not names:
            raise ContractError("models must name at least one model")
        if len(set(names)) != len(names):
            raise ContractError("models must be distinct")
        for name in names:
            if name not in MODEL_NAMES:
                raise ContractError(f"unknown model {name!r}; choose from "
                                    f"{', '.join(MODEL_NAMES)}")


# ------------------------------------------------------- protocol driver

def build_model(name: str, cfg: TrainConfig):
    """The grid model `name`, its architecture read from the same-named
    fields of cfg; trained and loaded cells both predict with it."""
    cls = TRAINABLE_MODELS.get(name)
    if cls is None:
        raise ContractError(f"unknown trainable model {name!r}")
    return cls(**{f: getattr(cfg, f) for f in cls.spec_fields})


def checkpoint_name(country: str, model: str, t: int, j: int) -> str:
    return f"{country}__{model}__T{t}_j{j}.ckpt"


# Worker-process context for parallel grid evaluation; populated once per
# worker by the pool initializer so tasks stay tiny.
_CELL_CTX = None


def _init_cell_worker(payload):
    global _CELL_CTX
    _CELL_CTX = payload


@dataclass(frozen=True)
class _CellContext:
    datasets: dict   # country -> CountryDataset, in request order
    config: EvalConfig
    checkpoint_dir: str
    load_only: bool = False   # load each trainable cell's checkpoint, never train

    def foreign(self, country: str) -> list:
        """Every other country's dataset, in request order: what `country`
        transfers from, for meta-training and TL_BASE alike."""
        return [ds for other, ds in self.datasets.items() if other != country]


def _meta_task(ctx: _CellContext, target: str):
    """The target's shared MPNN_TL initialization, or why it has none.

    Learns from the task grids of ctx.foreign(target) with a seed derived
    from (seed, "meta", target), and saves <target>__MPNN_TL__meta.ckpt
    into the checkpoint directory; a target with no foreign country gets
    a reason and no file.
    """
    cfg = ctx.config
    foreign = ctx.foreign(target)
    if not foreign:
        return "transfer initialization needs at least one other country"
    seed = derive_seed(cfg.seed, "meta", target)
    model = build_model("MPNN", cfg.train)
    try:
        state = maml_meta_train(foreign, model, cfg.meta, seed)
    except (InsufficientDataError, TrainingDivergedError) as exc:
        return f"meta-training failed: {exc}"
    path = os.path.join(ctx.checkpoint_dir, f"{target}__MPNN_TL__meta.ckpt")
    save_meta_state(path, state, model, [ds.country for ds in foreign], cfg.meta, seed)
    return state


def _run_cell(task):
    """Pool entry point: task is (function, args), run as function(ctx,
    *args) on the worker's context.  In-process tasks never come here: the
    benchmark tracer wraps this function and counts each call as a forked
    worker's cell, so an in-process call would count the parent twice."""
    fn, args = task
    return fn(_CELL_CTX, *args)


def _trainable_cell(ctx: _CellContext, country: str, model_name: str, t: int,
                    j: int, shared) -> CellResult:
    """One trainable cell, scored or skipped.  Its outcome, a Checkpoint or a
    skip reason, is read from its file under ctx.load_only, else saved there."""
    key = (country, model_name, t, j)
    dataset = ctx.datasets[country]
    cell_seed = derive_seed(ctx.config.seed, country, t, j)
    cell = {"country": country, "model_name": model_name, "t": t, "horizon": j,
            "cell_seed": cell_seed}
    path = os.path.join(ctx.checkpoint_dir, checkpoint_name(*key))
    model = build_model(model_name, ctx.config.train)
    if ctx.load_only:
        if not os.path.exists(path):
            raise CheckpointError(f"missing checkpoint for cell {cell_label(key)}: {path}")
        outcome = load_checkpoint(path, model, cell)
    else:
        outcome = shared   # a reason string skips the cell as it stands
    if not isinstance(outcome, str):
        try:
            splits = make_splits(dataset, t, j, model.d, model.seq_len)
            if not ctx.load_only:
                outcome = (tl_base_train(ctx.foreign(country), splits, model,
                                         ctx.config.train, cell_seed)
                           if model_name == "TL_BASE" else
                           train_model(splits, model, ctx.config.train, cell_seed,
                                       init_state=shared))
            with divergence_at(outcome.epoch):
                preds = predict(model, outcome.state, [splits.test])
        except DataError as exc:   # InsufficientDataError included
            outcome = str(exc)
        except TrainingDivergedError as exc:
            outcome = f"training diverged: {exc}"
    if not ctx.load_only:
        save_checkpoint(path, outcome, cell)
    if isinstance(outcome, str):
        return CellResult(*key, reason=outcome)
    return CellResult(*key, dataset.regions, preds, dataset.cases_on(t + j))


def evaluate_cell(ctx: _CellContext, country: str, model_name: str, t: int,
                  horizons: tuple, shared=None) -> list:
    """One unit of the protocol grid: the cells (t, j) for j in `horizons`,
    each predicting day t+j; returns their CellResults in horizon order.

    A baseline unit holds every horizon of its anchor and fits AR once; a
    trainable unit holds one, as each horizon trains its own network.
    `shared`, passed to MPNN_TL units only, is the country's meta-trained
    ModelState or the reason it has none; a TL_BASE cell pools the samples
    of ctx.foreign(country).  A cell is skipped, with its reason, when it
    lacks the data its model needs (a baseline's whole unit, then, with one
    reason), its training diverged (a non-finite loss, or a non-finite
    validation or test forecast), it has no shared initialization (its
    meta-training failed, or it has no foreign country), or its baseline
    forecast is not finite.
    """
    if model_name in TRAINABLE_MODELS:
        (j,) = horizons
        return [_trainable_cell(ctx, country, model_name, t, j, shared)]
    dataset, cfg = ctx.datasets[country], ctx.config
    try:
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            history = dataset.case_window(t, t)
            # AR forecasts every horizon from one fit; the others, one forecast
            if model_name == "AR":
                fit = ar_fit(history, p=cfg.ar_order, differencing=cfg.ar_differencing)
                forecasts = [ar_predict(fit, history, j=j) for j in horizons]
            elif model_name == "AVG":
                forecasts = [avg_predict(history)] * len(horizons)
            elif model_name == "AVG_WINDOW":
                forecasts = [avg_window_predict(history, d=cfg.train.d)] * len(horizons)
            else:
                forecasts = [last_day_predict(history)] * len(horizons)
    except DataError as exc:
        return [CellResult(country, model_name, t, j, reason=str(exc)) for j in horizons]
    cells = []
    for j, preds in zip(horizons, forecasts):
        bad = np.flatnonzero(~np.isfinite(preds))
        if bad.size:
            cells.append(CellResult(country, model_name, t, j, reason=(
                f"non-finite forecast: {preds[bad[0]]} for region "
                f"{dataset.regions[bad[0]]!r}")))
        else:
            cells.append(CellResult(country, model_name, t, j, dataset.regions, preds,
                                    dataset.cases_on(t + j)))
    return cells


def _grid_tasks(datasets, config: EvalConfig):
    """Every unit (country, model, t, horizons) of the request, its cells in
    grid order: a baseline unit holds every horizon of its anchor t, a
    trainable unit one."""
    if not datasets:
        raise ContractError("evaluation needs at least one country")
    names = [ds.country for ds in datasets]
    if len(set(names)) != len(names):
        raise ContractError(f"duplicate countries in {names}")
    units = []
    for ds in datasets:
        anchors = config.grid.anchors(ds.t_total)
        for model in config.models:
            for t, horizons in anchors:
                if model in TRAINABLE_MODELS:
                    units += [(ds.country, model, t, (j,)) for j in horizons]
                else:
                    units.append((ds.country, model, t, horizons))
    if not units:
        raise ContractError("protocol grid is empty for every requested country")
    return units


@contextlib.contextmanager
def _submitter(ctx: _CellContext, work: int):
    """Yield submit(fn, *args) -> outcome(), for a task fn(ctx, *args):
    _meta_task or evaluate_cell.  In-process, outcome() runs it; otherwise
    submit queues (fn, args) on at most `work` workers, which pickle fn by
    name, and outcome() waits for it."""
    if ctx.config.jobs == 1 or ctx.load_only:
        yield lambda fn, *args: functools.partial(fn, ctx, *args)
        return
    import concurrent.futures   # only a pooled grid loads it (and logging)
    # a fork-started pool starts every worker at its first submit
    workers = min(ctx.config.jobs, work, os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_cell_worker,
            initargs=(ctx,)) as pool:
        try:   # _run_cell is read at each submit: the benchmark tracer patches it
            yield lambda fn, *args: pool.submit(_run_cell, (fn, args)).result
        except BaseException:
            pool.shutdown(cancel_futures=True)  # start no queued cell after a failure
            raise


def rolling_evaluate(datasets, config: EvalConfig, checkpoint_dir: str,
                     load_only: bool = False) -> list:
    """Train and score every (country, model, T, horizon) cell of the config,
    saving each trainable cell's outcome and each meta-trained initialization
    in checkpoint_dir; return one CellResult per cell, in grid order.

    Each cell trains its own model with a seed derived from (seed, country,
    T, horizon), so cells are reproducible independently of execution order.
    A target's meta-training and TL_BASE cells learn from its foreign list,
    `_CellContext.foreign`: every other country, in request order.  Every
    task, `_meta_task` or a unit of `_grid_tasks` run by `evaluate_cell`,
    goes to one submit: a baseline unit scores every horizon of its anchor,
    a trainable unit one cell.  Each target's MPNN_TL meta-training and
    every unit that waits for none are submitted first; each target's
    MPNN_TL units follow once its meta outcome is read.  In-process, that
    runs every meta task, then every unit in grid order; `config.jobs` > 1
    runs them over worker processes in the order submitted.  Cells without
    enough data, or whose training diverged, are skipped with their reason,
    not failed; any other error stops the grid.

    With `load_only`, each trainable cell reads that outcome back: nothing is
    trained, meta-trained or saved, cells run in-process whatever config.jobs
    says, and a missing checkpoint is a CheckpointError naming the cell.
    """
    units = _grid_tasks(datasets, config)
    if not load_only and any(name in TRAINABLE_MODELS for name in config.models):
        make_dir(checkpoint_dir)   # a bad path fails before any cell trains
    for ds in datasets:
        normalized_graphs(ds)   # once, before any worker forks
    ctx = _CellContext(datasets={ds.country: ds for ds in datasets}, config=config,
                       checkpoint_dir=checkpoint_dir, load_only=load_only)
    # one meta task per target country: its MPNN_TL cells' initialization
    targets = (list(ctx.datasets)
               if "MPNN_TL" in config.models and not load_only else [])
    with _submitter(ctx, len(targets) + len(units)) as submit:
        metas = {target: submit(_meta_task, target) for target in targets}
        # a target's MPNN_TL units wait for its meta outcome; the rest go now
        outcomes = [None if unit[1] == "MPNN_TL" and unit[0] in metas
                    else submit(evaluate_cell, *unit) for unit in units]
        shared = {target: outcome() for target, outcome in metas.items()}
        outcomes = [outcome or submit(evaluate_cell, *unit, shared[unit[0]])
                    for unit, outcome in zip(units, outcomes)]
        return [cell for outcome in outcomes for cell in outcome()]   # grid order
