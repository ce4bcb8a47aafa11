"""Rolling-origin evaluation: the (T, horizon) protocol driver, error and
correlation metrics, and CSV/JSON report emission."""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import json
import os
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .baselines import ar_fit, ar_predict, avg_predict, avg_window_predict, last_day_predict
from .dataio import CountryDataset, make_dir, read_file, write_file
from .errors import (CheckpointError, ContractError, DataError, InsufficientDataError,
                     SkippedCell, TrainingDivergedError)
from .graphs import normalized_graphs
from .meta import MetaConfig, maml_meta_train, save_meta_state, tl_base_train
from .models import BaselineLSTMModel, MPNNLSTMModel, MPNNModel
from .rng import derive_seed
from .train import (
    PROTOCOL_START_DAY,
    TrainConfig,
    divergence_at,
    load_checkpoint,
    make_splits,
    predict,
    save_checkpoint,
    train_model,
)

MODEL_NAMES = ("AVG", "AVG_WINDOW", "LAST_DAY", "AR", "LSTM", "MPNN",
               "MPNN_LSTM", "MPNN_TL", "TL_BASE")
# the model class each trainable grid name builds; every other name is a baseline
TRAINABLE_MODELS = {"LSTM": BaselineLSTMModel, "MPNN": MPNNModel,
                    "MPNN_LSTM": MPNNLSTMModel, "MPNN_TL": MPNNModel,
                    "TL_BASE": MPNNModel}
SUMMARY_RANGES = ((1, 3), (1, 7), (1, 14))


@dataclass(frozen=True)
class ProtocolGrid:
    """Rolling anchors T and horizons to evaluate; every (T, j) with
    T + j within the data is one independently trained cell."""
    t_start: int = PROTOCOL_START_DAY
    t_end: Optional[int] = None   # inclusive; capped at T_total - 1
    dt: int = 14
    horizons: Optional[tuple] = None  # explicit horizon set, overrides 1..dt

    def __post_init__(self):
        if self.t_start < PROTOCOL_START_DAY:
            raise ContractError(
                f"t_start must be >= {PROTOCOL_START_DAY}, got {self.t_start}")
        if self.t_end is not None and self.t_end < self.t_start:
            raise ContractError("t_end must be >= t_start")
        if self.dt < 1:
            raise ContractError(f"dt must be >= 1, got {self.dt}")
        if self.horizons is not None:
            if not isinstance(self.horizons, (list, tuple)) or any(
                    isinstance(j, bool) or not isinstance(j, int) for j in self.horizons):
                raise ContractError("horizons must be a list of integers")
            hs = tuple(self.horizons)
            if not hs or any(j < 1 for j in hs) or len(set(hs)) != len(hs):
                raise ContractError("horizons must be distinct and >= 1")
            object.__setattr__(self, "horizons", tuple(sorted(hs)))

    def horizon_values(self) -> tuple:
        return self.horizons if self.horizons is not None else tuple(
            range(1, self.dt + 1))

    def cells(self, t_total: int) -> list:
        """All (t, j) pairs of this grid whose target day fits in t_total."""
        t_hi = t_total - 1 if self.t_end is None else min(self.t_end, t_total - 1)
        return [(t, j) for t in range(self.t_start, t_hi + 1)
                for j in self.horizon_values() if t + j <= t_total]


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


@dataclass(frozen=True, eq=False)
class CellResult:
    """One grid cell's outcome.  A scored cell holds the dataset's region
    ids and each region's forecast and actual case count, as float64 arrays
    in region order, and no reason; a skipped cell holds only its reason."""
    country: str
    model: str
    t: int
    horizon: int
    regions: tuple = ()
    prediction: np.ndarray = field(default_factory=lambda: np.empty(0))
    actual: np.ndarray = field(default_factory=lambda: np.empty(0))
    reason: Optional[str] = None

    @property
    def key(self) -> tuple:
        return (self.country, self.model, self.t, self.horizon)

    @property
    def abs_error(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):   # inf or nan, as abs(p - a)
            return np.abs(self.prediction - self.actual)


# ---------------------------------------------------------------- metrics

def error_metric(errors) -> float:
    """Mean of an array of absolute errors, one per (region, test day).

    Finite errors near the float64 limit can sum past it; their mean is then
    taken as the sum of errors / n, which stays finite.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if not errors.size:
        raise ContractError("error_metric of an empty error set")
    with np.errstate(over="ignore"):
        mean = np.mean(errors)
    if np.isinf(mean) and np.isfinite(errors).all():
        mean = np.sum(errors / errors.size)
    return float(mean)


def range_summary(cells) -> dict:
    """Per-model mean error over horizon ranges, keyed like "1-14", and over
    each single horizon present, keyed like "7-7".

    Each range averages over every region of every cell whose horizon falls
    inside it, so horizons contribute in proportion to their completed cells.
    The errors of a range keep the cells' order.  Skipped cells are left out.
    """
    cells = [cell for cell in cells if cell.reason is None]
    if not cells:
        return {}
    sizes = [len(cell.regions) for cell in cells]
    errors = np.concatenate([cell.abs_error for cell in cells])
    models = np.repeat([cell.model for cell in cells], sizes)
    horizons = np.repeat([cell.horizon for cell in cells], sizes)
    singles = tuple((j, j) for j in sorted({cell.horizon for cell in cells}))
    out = {}
    for model in sorted({cell.model for cell in cells}):
        of_model = models == model
        entry = {}
        for lo, hi in SUMMARY_RANGES + singles:
            in_range = of_model & (horizons >= lo) & (horizons <= hi)
            if in_range.any():
                entry[f"{lo}-{hi}"] = error_metric(errors[in_range])
        out[model] = entry
    return out


def pearson_shift_correlation(m, c, s: int):
    """Pearson correlation of movement m against cases c shifted s days later.

    Returns None (a missing value, not zero) when either window is constant.
    """
    m = np.asarray(m, dtype=np.float64).reshape(-1)
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    if s < 0:
        raise ContractError(f"shift must be >= 0, got {s}")
    length = min(m.size, c.size)
    if length - s < 2:
        raise ContractError(f"need more than {s + 1} days for shift {s}, "
                            f"have {length}")
    x = m[:length - s]
    y = c[s:length]
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        return None
    return float(np.sum(dx * dy) / (sx * sy))


def mobility_totals(dataset: CountryDataset) -> np.ndarray:
    """Per-region daily movement volume: incoming + outgoing with the
    within-region loop counted once; shape (n, days)."""
    out = np.empty((dataset.n, dataset.t_total))
    for day in range(1, dataset.t_total + 1):
        m = dataset.mobility_on(day)
        out[:, day - 1] = m.sum(axis=1) + m.sum(axis=0) - np.diag(m)
    return out


def correlation_table(dataset: CountryDataset, shifts=tuple(range(1, 15))) -> list:
    """(country, region, shift, correlation|None) rows over the given shifts."""
    totals = mobility_totals(dataset)
    cases = dataset.case_window(dataset.t_total, dataset.t_total)
    return [(dataset.country, region, s, pearson_shift_correlation(totals[v], cases[v], s))
            for v, region in enumerate(dataset.regions) for s in shifts]


def case_stats_table(dataset: CountryDataset) -> list:
    """(country, day, date, mean, std, max_diff) per day across regions."""
    rows = []
    for day in range(1, dataset.t_total + 1):
        vals = dataset.cases_on(day)
        rows.append((dataset.country, day, dataset.dates[day - 1],
                     float(vals.mean()), float(vals.std()),
                     float(vals.max() - vals.min())))
    return rows


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


def _baseline_cell(ctx: _CellContext, name: str, dataset: CountryDataset,
                   t: int, j: int) -> np.ndarray:
    history = dataset.case_window(t, t)
    if name == "AVG":
        return avg_predict(history)
    if name == "AVG_WINDOW":
        return avg_window_predict(history, d=ctx.config.train.d)
    if name == "LAST_DAY":
        return last_day_predict(history)
    # the fit depends on the history only, and an anchor's horizons are
    # adjacent in grid order: one kept fit serves all of them
    anchor = (dataset.country, t)
    if anchor not in ctx.ar_fits:
        ctx.ar_fits.clear()
        ctx.ar_fits[anchor] = ar_fit(history, p=ctx.config.ar_order,
                                     differencing=ctx.config.ar_differencing)
    return ar_predict(ctx.ar_fits[anchor], history, j=j)


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
    checkpoint_dir: Optional[str]
    load_only: bool = False   # load each trainable cell's checkpoint, never train
    # the AR fit of the last (country, T) this process scored
    ar_fits: dict = field(default_factory=dict, compare=False)


def _meta_task(ctx: _CellContext, target: str):
    """The target's shared MPNN_TL initialization, or why meta-training failed.

    Learns from every other country's task grid with a seed derived from
    (seed, "meta", target), and saves <target>__MPNN_TL__meta.ckpt into the
    checkpoint directory when there is one.
    """
    cfg = ctx.config
    foreign = [ds for country, ds in ctx.datasets.items() if country != target]
    seed = derive_seed(cfg.seed, "meta", target)
    model = build_model("MPNN", cfg.train)
    try:
        state = maml_meta_train(foreign, model, cfg.meta, seed)
    except (InsufficientDataError, TrainingDivergedError) as exc:
        return f"meta-training failed: {exc}"
    if ctx.checkpoint_dir is not None:
        path = os.path.join(ctx.checkpoint_dir, f"{target}__MPNN_TL__meta.ckpt")
        save_meta_state(path, state, model, [ds.country for ds in foreign],
                        cfg.meta, seed)
    return state


def _run_task(ctx: _CellContext, item):
    """Run a target's meta-training (a country name) or one evaluate_cell."""
    if isinstance(item, str):
        return _meta_task(ctx, item)
    return evaluate_cell(ctx, *item)


def _run_cell(task):
    """Pool entry point.  In-process cells call _run_task instead: the
    benchmark tracer wraps this function and counts each call as a forked
    worker's cell, so an in-process call would count the parent twice."""
    return _run_task(_CELL_CTX, task)


def _cell_path(ctx: _CellContext, task) -> Optional[str]:
    directory = ctx.checkpoint_dir
    return None if directory is None else os.path.join(directory, checkpoint_name(*task))


def _cell_meta(task) -> dict:
    """The cell a checkpoint header records as its own."""
    country, model_name, t, j = task
    return {"country": country, "model_name": model_name, "t": t, "horizon": j}


def _keep(ctx: _CellContext, task, outcome) -> None:
    """Save a trainable cell's outcome, a Checkpoint or a skip reason, as
    its checkpoint when ctx has a checkpoint directory and is not load-only."""
    path = _cell_path(ctx, task)
    if path is not None and not ctx.load_only:
        country, _, t, j = task
        save_checkpoint(path, outcome, extra_meta={
            **_cell_meta(task), "cell_seed": derive_seed(ctx.config.seed, country, t, j)})


def _trainable_cell(ctx: _CellContext, task, dataset, shared) -> np.ndarray:
    """The cell's test forecast: its model's parameters loaded from the
    cell's file under ctx.load_only, else trained, then kept once the
    forecast is made."""
    country, model_name, t, j = task
    model = build_model(model_name, ctx.config.train)
    path = _cell_path(ctx, task)
    # a stored skip raises SkippedCell before the splits, as it was recorded
    ckpt = (load_checkpoint(path, model, _cell_meta(task))
            if ctx.load_only and os.path.exists(path) else None)
    splits = make_splits(dataset, t, j, model.d, model.seq_len)
    if ckpt is None and ctx.load_only:
        raise CheckpointError(f"missing checkpoint for cell {cell_label(task)}: {path}")
    if ckpt is None:
        cell_seed = derive_seed(ctx.config.seed, country, t, j)
        if model_name == "TL_BASE":
            ckpt = tl_base_train(list(ctx.datasets.values()), splits, model,
                                 ctx.config.train, cell_seed)
        else:
            ckpt = train_model(splits, model, ctx.config.train, cell_seed,
                               init_state=shared)
    with divergence_at(ckpt.epoch):
        preds = predict(model, ckpt.state, [splits.test])
    _keep(ctx, task, ckpt)
    return preds


def evaluate_cell(ctx: _CellContext, country: str, model_name: str, t: int,
                  j: int, shared=None) -> CellResult:
    """One protocol cell: fit, train or load, predict day t+j; return its
    CellResult, scored or skipped.

    `shared`, passed to MPNN_TL cells only, is the country's meta-trained
    ModelState or the reason it has none.  A cell is skipped, with its
    reason, when it lacks the data its model needs, its training diverged (a
    non-finite loss, or a non-finite validation or test forecast) or it has
    no shared initialization.  A training run keeps the last two reasons as
    the cell's checkpoint.  A baseline whose forecast is not finite (a
    history near the float64 limit) is skipped too.
    """
    task = (country, model_name, t, j)
    dataset = ctx.datasets[country]
    if model_name == "MPNN_TL" and len(ctx.datasets) == 1:
        return CellResult(*task, reason="transfer initialization needs at least "
                                        "one other country")
    if isinstance(shared, str):
        _keep(ctx, task, shared)
        return CellResult(*task, reason=shared)
    try:
        if model_name not in TRAINABLE_MODELS:
            with np.errstate(over="ignore", invalid="ignore"):   # checked below
                preds = _baseline_cell(ctx, model_name, dataset, t, j)
        else:
            preds = _trainable_cell(ctx, task, dataset, shared)
    except (DataError, SkippedCell) as exc:  # DataError includes InsufficientDataError
        return CellResult(*task, reason=str(exc))
    except TrainingDivergedError as exc:
        reason = f"training diverged: {exc}"
        _keep(ctx, task, reason)
        return CellResult(*task, reason=reason)
    bad = np.flatnonzero(~np.isfinite(preds))   # a neural forecast has no such entry
    if bad.size:
        return CellResult(*task, reason=f"non-finite forecast: {preds[bad[0]]} for "
                                        f"region {dataset.regions[bad[0]]!r}")
    return CellResult(*task, dataset.regions, preds, dataset.cases_on(t + j))


def _grid_tasks(datasets, config: EvalConfig):
    """Every (country, model, t, j) cell of the request, in grid order."""
    if not datasets:
        raise ContractError("evaluation needs at least one country")
    names = [ds.country for ds in datasets]
    if len(set(names)) != len(names):
        raise ContractError(f"duplicate countries in {names}")
    tasks = [(ds.country, model, t, j) for ds in datasets for model in config.models
             for t, j in config.grid.cells(ds.t_total)]
    if not tasks:
        raise ContractError("protocol grid is empty for every requested country")
    return tasks


@contextlib.contextmanager
def _submitter(ctx: _CellContext, work: int):
    """Yield submit(item) -> outcome(), for a meta task (a target name) or
    a cell (a task tuple).  In-process, outcome() runs the item; otherwise
    submit queues it on at most `work` workers and outcome() waits for it."""
    if ctx.config.jobs == 1 or ctx.load_only:
        yield lambda item: functools.partial(_run_task, ctx, item)
        return
    # a fork-started pool starts every worker at its first submit
    workers = min(ctx.config.jobs, work, os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_cell_worker,
            initargs=(ctx,)) as pool:
        try:   # _run_cell is read at each submit: the benchmark tracer patches it
            yield lambda item: pool.submit(_run_cell, item).result
        except BaseException:
            pool.shutdown(cancel_futures=True)  # start no queued cell after a failure
            raise


def rolling_evaluate(datasets, config: EvalConfig,
                     checkpoint_dir: Optional[str] = None,
                     load_only: bool = False) -> list:
    """Train and score every (country, model, T, horizon) cell of the config;
    return one CellResult per cell, in grid order.

    Each cell trains its own model with a seed derived from (seed, country,
    T, horizon), so cells are reproducible independently of execution order.
    Each target's MPNN_TL meta-training and every cell that waits for none
    are submitted first; each target's MPNN_TL cells follow once its meta
    outcome is read.  In-process, that runs every meta task, then every cell
    in grid order; `config.jobs` > 1 runs them over worker processes in the
    order submitted.  Cells without enough data, or whose training diverged,
    are skipped with their reason, not failed; any other error stops the grid.

    With `load_only`, every trainable cell loads its checkpoint from
    checkpoint_dir instead of training: nothing is meta-trained or saved,
    cells run in-process whatever `config.jobs` says, and a missing
    checkpoint is a CheckpointError naming the cell.
    """
    tasks = _grid_tasks(datasets, config)
    if load_only and checkpoint_dir is None:
        raise ContractError("load_only needs a checkpoint directory")
    if (checkpoint_dir is not None and not load_only
            and any(name in TRAINABLE_MODELS for name in config.models)):
        make_dir(checkpoint_dir)   # a bad path fails before any cell trains
    for ds in datasets:
        normalized_graphs(ds)   # once, before any worker forks
    ctx = _CellContext(datasets={ds.country: ds for ds in datasets}, config=config,
                       checkpoint_dir=checkpoint_dir, load_only=load_only)
    # one meta-training per target country, each on all the others
    targets = ([ds.country for ds in datasets] if "MPNN_TL" in config.models
               and len(datasets) > 1 and not load_only else [])
    with _submitter(ctx, len(targets) + len(tasks)) as submit:
        metas = {target: submit(target) for target in targets}
        # a target's MPNN_TL cells wait for its meta outcome; the rest go now
        outcomes = [None if task[1] == "MPNN_TL" and task[0] in metas else submit(task)
                    for task in tasks]
        shared = {target: outcome() for target, outcome in metas.items()}
        outcomes = [outcome or submit((*task, shared[task[0]]))
                    for task, outcome in zip(tasks, outcomes)]
        return [outcome() for outcome in outcomes]   # grid order


# ---------------------------------------------------------------- reports

def _float_cell(x) -> str:
    return repr(float(x))


def correlation_lines(correlations) -> list:
    """correlations.csv lines; regions are country-qualified, missing values
    are empty cells."""
    lines = ["region,shift,pearson"]
    for country, region, shift, value in correlations:
        cell = "" if value is None else _float_cell(value)
        lines.append(f"{country}/{region},{shift},{cell}")
    return lines


def case_stat_lines(case_stats) -> list:
    lines = ["country,day,date,mean,std,max_diff"]
    lines.extend(
        f"{country},{day},{date},{_float_cell(mean)},{_float_cell(std)},"
        f"{_float_cell(diff)}"
        for country, day, date, mean, std, diff in case_stats)
    return lines


ROWS_HEADER = "country,model,T,horizon,region,prediction,actual,abs_error"
_SKIP_LINE = re.compile(
    r"^# skipped country=(?P<c>.*?) model=(?P<m>\S+) "
    r"T=(?P<t>\d+) j=(?P<j>\d+): (?P<reason>.*)$")


def cell_label(task) -> str:
    country, model, t, j = task
    return f"country={country} model={model} T={t} j={j}"


def emit_report(cells, out_dir: str) -> dict:
    """Write rows.csv and summary.json of a list of CellResults.

    Output is byte-deterministic for a fixed list.  Skipped cells appear, in
    list order, as comment lines above the rows.csv header, in the form
    parse_skip_line reads back; the scored cells' rows follow it, in list
    order.  Returns the path of each artifact.
    """
    paths = {"rows": os.path.join(out_dir, "rows.csv"),
             "summary": os.path.join(out_dir, "summary.json")}
    lines = [f"# skipped {cell_label(cell.key)}: {cell.reason}" for cell in cells
             if cell.reason is not None]
    lines.append(ROWS_HEADER)
    for cell in cells:   # a skipped cell has no regions, so no rows
        key = f"{cell.country},{cell.model},{cell.t},{cell.horizon},"
        lines.extend(f"{key}{region},{p!r},{a!r},{e!r}" for region, p, a, e in zip(
            cell.regions, cell.prediction.tolist(), cell.actual.tolist(),
            cell.abs_error.tolist()))
    write_file(paths["rows"], "\n".join(lines) + "\n")
    write_file(paths["summary"],
               json.dumps(range_summary(cells), sort_keys=True, indent=2,
                          allow_nan=False) + "\n")
    return paths


def parse_skip_line(line: str, path: str) -> CellResult:
    """The skipped cell a rows.csv skip line records."""
    m = _SKIP_LINE.match(line)
    if not m:
        raise DataError(f"{path}: unrecognized skip line {line!r}")
    return CellResult(m["c"], m["m"], int(m["t"]), int(m["j"]), reason=m["reason"])


def load_report_rows(path: str) -> list:
    """The cells of an emitted rows.csv: its skipped cells, then its scored
    cells, each in file order.

    Every line above the header is a skip line, and every line below it a
    row.  A malformed row, a nan or inf or an error past the float64 range, a
    region repeated within a cell, a cell whose rows are not adjacent and a
    cell with a second skip line or with a skip line and rows are each a
    DataError naming the file.
    """
    lines = read_file(path).splitlines()
    if ROWS_HEADER not in lines:
        raise DataError(f"{path}: not a rows.csv report")
    head = lines.index(ROWS_HEADER)
    skipped = [parse_skip_line(ln, path) for ln in lines[:head] if ln]
    groups = {}   # cell key -> (line number, region, prediction, actual) per row
    last = None
    for lineno, ln in enumerate(lines[head + 1:], head + 2):
        if not ln:
            continue
        try:   # a wrong width fails the unpacking, a bad number its parse
            country, model, t, j, region, pred, actual, _ = ln.split(",")
            key = (country, model, int(t), int(j))
            row = (lineno, region, float(pred), float(actual))
        except ValueError:
            raise DataError(f"{path}: malformed row {ln!r}") from None
        if key != last and key in groups:
            raise DataError(f"{path} line {lineno}: cell {cell_label(key)} "
                            f"continues after other cells' rows")
        groups.setdefault(key, []).append(row)
        last = key
    cells = []
    for key, rows in groups.items():
        linenos, regions, preds, actuals = zip(*rows)
        cell = CellResult(*key, regions, np.array(preds), np.array(actuals))
        bad = np.flatnonzero(~np.isfinite(cell.abs_error))
        if bad.size:
            raise DataError(f"{path} line {linenos[bad[0]]}: prediction {preds[bad[0]]!r} "
                            f"and actual {actuals[bad[0]]!r} have no finite error")
        if len(set(regions)) != len(regions):
            raise DataError(f"{path}: cell {cell_label(key)} repeats a region")
        cells.append(cell)
    seen = set(groups)
    for skip in skipped:
        if skip.key in seen:
            raise DataError(f"{path}: cell {cell_label(skip.key)} has a skip line "
                            f"and {'rows' if skip.key in groups else 'another skip line'}")
        seen.add(skip.key)
    return skipped + cells
