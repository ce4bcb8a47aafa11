"""Rolling-origin evaluation: the (T, horizon) protocol driver, error and
correlation metrics, and CSV/JSON report emission."""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .baselines import ar_fit, ar_predict, avg_predict, avg_window_predict, last_day_predict
from .dataio import CountryDataset, make_dir, read_lines, write_file
from .errors import (CheckpointError, ContractError, DataError, InsufficientDataError,
                     TrainingDivergedError)
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
    T + j within the data is one cell.  A trainable model trains each cell
    on its own; a baseline scores all cells of an anchor from one history."""
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

    def anchors(self, t_total: int) -> list:
        """(t, horizons) for each anchor t of this grid, with its horizons j
        whose target day t + j fits in t_total; an anchor with none is left out."""
        horizons = self.horizons or tuple(range(1, self.dt + 1))
        t_end = t_total if self.t_end is None else self.t_end
        # horizons are sorted: past t_total - horizons[0], none fits
        return [(t, tuple(j for j in horizons if t + j <= t_total))
                for t in range(self.t_start, min(t_end, t_total - horizons[0]) + 1)]


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
    by_model = {}   # model -> (horizon, absolute errors) per scored cell
    for cell in cells:
        if cell.reason is None:
            by_model.setdefault(cell.model, []).append((cell.horizon, cell.abs_error))
    singles = tuple((j, j) for j in sorted(
        {j for scored in by_model.values() for j, _ in scored}))
    out = {}
    for model in sorted(by_model):
        entry = {}
        for lo, hi in SUMMARY_RANGES + singles:
            picked = [err for j, err in by_model[model] if lo <= j <= hi]
            errors = np.concatenate(picked) if picked else np.empty(0)
            if errors.size:
                entry[f"{lo}-{hi}"] = error_metric(errors)
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
    m = dataset.mobility
    return (m.sum(axis=2) + m.sum(axis=1) - np.diagonal(m, axis1=1, axis2=2)).T


def correlation_table(dataset: CountryDataset, shifts=tuple(range(1, 15))) -> list:
    """(country, region, shift, correlation|None) rows over the given shifts."""
    totals = mobility_totals(dataset)
    cases = dataset.case_window(dataset.t_total, dataset.t_total)
    return [(dataset.country, region, s, pearson_shift_correlation(totals[v], cases[v], s))
            for v, region in enumerate(dataset.regions) for s in shifts]


def case_stats_table(dataset: CountryDataset) -> list:
    """(country, day, date, mean, std, max_diff) per day across regions."""
    by_day = np.ascontiguousarray(dataset.case_window(dataset.t_total, dataset.t_total).T)
    stats = (by_day.mean(axis=1), by_day.std(axis=1), np.ptp(by_day, axis=1))
    return list(zip(itertools.repeat(dataset.country), range(1, dataset.t_total + 1),
                    dataset.dates, *(column.tolist() for column in stats)))


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
    checkpoint_dir: Optional[str]
    load_only: bool = False   # load each trainable cell's checkpoint, never train

    def foreign(self, country: str) -> list:
        """Every other country's dataset, in request order: what `country`
        transfers from, for meta-training and TL_BASE alike."""
        return [ds for other, ds in self.datasets.items() if other != country]


def _meta_task(ctx: _CellContext, target: str):
    """The target's shared MPNN_TL initialization, or why meta-training failed.

    Learns from the task grids of ctx.foreign(target) with a seed derived
    from (seed, "meta", target), and saves <target>__MPNN_TL__meta.ckpt
    into the checkpoint directory when there is one.
    """
    cfg = ctx.config
    foreign = ctx.foreign(target)
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


def _run_cell(task):
    """Pool entry point: task is (function, args), run as function(ctx,
    *args) on the worker's context.  In-process tasks never come here: the
    benchmark tracer wraps this function and counts each call as a forked
    worker's cell, so an in-process call would count the parent twice."""
    fn, args = task
    return fn(_CELL_CTX, *args)


def _trainable_cell(ctx: _CellContext, country: str, model_name: str, t: int,
                    j: int, shared) -> CellResult:
    """One trainable cell, scored or skipped.  Its parameters are loaded from
    the cell's file under ctx.load_only, else trained.  Its outcome, a
    Checkpoint or the reason of a shared or diverged skip, is kept with the
    cell's record as that file when ctx has a checkpoint directory and is
    not load-only; a load checks the whole record, cell_seed too."""
    key = (country, model_name, t, j)
    if model_name == "MPNN_TL" and not ctx.foreign(country):
        return CellResult(*key, reason="transfer initialization needs at least "
                                       "one other country")
    dataset = ctx.datasets[country]
    cell_seed = derive_seed(ctx.config.seed, country, t, j)
    cell = {"country": country, "model_name": model_name, "t": t, "horizon": j,
            "cell_seed": cell_seed}
    path = (None if ctx.checkpoint_dir is None
            else os.path.join(ctx.checkpoint_dir, checkpoint_name(*key)))
    outcome = shared   # a reason string skips the cell as it stands
    if not isinstance(shared, str):
        model = build_model(model_name, ctx.config.train)
        # a stored skip is its reason, read before the splits, as it was recorded
        outcome = (load_checkpoint(path, model, cell)
                   if ctx.load_only and os.path.exists(path) else None)
    if not isinstance(outcome, str):
        try:
            splits = make_splits(dataset, t, j, model.d, model.seq_len)
            if outcome is None and ctx.load_only:
                raise CheckpointError(f"missing checkpoint for cell {cell_label(key)}: "
                                      f"{path}")
            if outcome is None and model_name == "TL_BASE":
                outcome = tl_base_train(ctx.foreign(country), splits, model,
                                        ctx.config.train, cell_seed)
            elif outcome is None:
                outcome = train_model(splits, model, ctx.config.train, cell_seed,
                                      init_state=shared)
            with divergence_at(outcome.epoch):
                preds = predict(model, outcome.state, [splits.test])
        except DataError as exc:   # InsufficientDataError included
            return CellResult(*key, reason=str(exc))
        except TrainingDivergedError as exc:
            outcome = f"training diverged: {exc}"
    if path is not None and not ctx.load_only:
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
    validation or test forecast) or it has no shared initialization.  A
    training run keeps the last two reasons as the cell's checkpoint.  An
    MPNN_TL cell with no foreign country is skipped too, as is a baseline
    cell whose forecast is not finite (a history near the float64 limit).
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


def rolling_evaluate(datasets, config: EvalConfig,
                     checkpoint_dir: Optional[str] = None,
                     load_only: bool = False) -> list:
    """Train and score every (country, model, T, horizon) cell of the config;
    return one CellResult per cell, in grid order.

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

    With `load_only`, every trainable cell loads its checkpoint from
    checkpoint_dir instead of training: nothing is meta-trained or saved,
    cells run in-process whatever `config.jobs` says, and a missing
    checkpoint is a CheckpointError naming the cell.
    """
    units = _grid_tasks(datasets, config)
    if load_only and checkpoint_dir is None:
        raise ContractError("load_only needs a checkpoint directory")
    if (checkpoint_dir is not None and not load_only
            and any(name in TRAINABLE_MODELS for name in config.models)):
        make_dir(checkpoint_dir)   # a bad path fails before any cell trains
    for ds in datasets:
        normalized_graphs(ds)   # once, before any worker forks
    ctx = _CellContext(datasets={ds.country: ds for ds in datasets}, config=config,
                       checkpoint_dir=checkpoint_dir, load_only=load_only)
    # one meta-training per target country with a foreign country to learn from
    targets = ([country for country in ctx.datasets if ctx.foreign(country)]
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
    order.  rows.csv is streamed one cell at a time, never held whole.
    Returns the path of each artifact.
    """
    paths = {"rows": os.path.join(out_dir, "rows.csv"),
             "summary": os.path.join(out_dir, "summary.json")}
    write_file(paths["rows"], _rows_chunks(cells))
    write_file(paths["summary"],
               json.dumps(range_summary(cells), sort_keys=True, indent=2,
                          allow_nan=False) + "\n")
    return paths


def _rows_chunks(cells):
    """rows.csv of `cells` as text chunks: each skip line, the header, then
    one chunk per cell."""
    for cell in cells:
        if cell.reason is not None:
            yield f"# skipped {cell_label(cell.key)}: {cell.reason}\n"
    yield ROWS_HEADER + "\n"
    for cell in cells:   # a skipped cell has no regions, so no rows
        key = f"{cell.country},{cell.model},{cell.t},{cell.horizon},"
        yield "".join(f"{key}{region},{p!r},{a!r},{e!r}\n" for region, p, a, e in zip(
            cell.regions, cell.prediction.tolist(), cell.actual.tolist(),
            cell.abs_error.tolist()))


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
    DataError naming the file.  The file is read one line at a time, and
    each cell is built when its rows end.
    """
    lines = enumerate(read_lines(path), 1)
    head = []   # the lines above the header
    for _, ln in lines:
        if ln == ROWS_HEADER:
            break
        head.append(ln)
    else:
        raise DataError(f"{path}: not a rows.csv report")
    skipped = [parse_skip_line(ln, path) for ln in head if ln]
    cells, shared, fault = [], {}, None   # shared: one regions tuple per region list
    for key, rows in _report_groups(path, lines):
        linenos, regions, preds, actuals = zip(*rows)
        cell = CellResult(*key, shared.setdefault(regions, regions), np.array(preds),
                          np.array(actuals))
        fault = fault or _cell_fault(path, cell, linenos)
        cells.append(cell)
    if fault is not None:   # raised after the last row, so a malformed row comes first
        raise fault
    keys = {cell.key for cell in cells}
    seen = set(keys)
    for skip in skipped:
        if skip.key in seen:
            raise DataError(f"{path}: cell {cell_label(skip.key)} has a skip line "
                            f"and {'rows' if skip.key in keys else 'another skip line'}")
        seen.add(skip.key)
    return skipped + cells


def _report_groups(path: str, lines):
    """Each cell's key and its (line number, region, prediction, actual)
    rows, read from (line number, line) pairs one cell at a time.  A
    malformed row, or a cell whose rows are not adjacent, is a DataError."""
    keys, key, rows = set(), None, []
    for lineno, ln in lines:
        if not ln:
            continue
        try:   # a wrong width fails the unpacking, a bad number its parse
            country, model, t, j, region, pred, actual, _ = ln.split(",")
            row_key = (country, model, int(t), int(j))
            row = (lineno, region, float(pred), float(actual))
        except ValueError:
            raise DataError(f"{path}: malformed row {ln!r}") from None
        if row_key != key:
            if row_key in keys:
                raise DataError(f"{path} line {lineno}: cell {cell_label(row_key)} "
                                f"continues after other cells' rows")
            if rows:
                yield key, rows
            key, rows = row_key, []
            keys.add(key)
        rows.append(row)
    if rows:
        yield key, rows


def _cell_fault(path: str, cell: CellResult, linenos: tuple) -> Optional[DataError]:
    """Why a read-back cell is not one emit_report wrote, or None: an error
    that is not finite, or a region given twice."""
    bad = np.flatnonzero(~np.isfinite(cell.abs_error))
    if bad.size:
        i = bad[0]
        return DataError(f"{path} line {linenos[i]}: prediction {float(cell.prediction[i])!r} "
                         f"and actual {float(cell.actual[i])!r} have no finite error")
    if len(set(cell.regions)) != len(cell.regions):
        return DataError(f"{path}: cell {cell_label(cell.key)} repeats a region")
    return None
