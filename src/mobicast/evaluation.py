"""Rolling-origin evaluation: the (T, horizon) protocol driver, error and
correlation metrics, and CSV/JSON report emission."""

from __future__ import annotations

import concurrent.futures
import contextlib
import json
import os
import re
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .baselines import ar_fit, ar_predict, avg_predict, avg_window_predict, last_day_predict
from .dataio import CountryDataset, make_dir, write_file
from .errors import (CheckpointError, ContractError, DataError, InsufficientDataError,
                     SkippedCell, TrainingDivergedError)
from .graphs import normalized_graphs
from .meta import MetaConfig, maml_meta_train, save_meta_state, tl_base_train
from .models import model_from_spec
from .rng import derive_seed
from .train import (
    PROTOCOL_START_DAY,
    TrainConfig,
    load_checkpoint,
    make_splits,
    predict,
    save_checkpoint,
    train_model,
)

MODEL_NAMES = ("AVG", "AVG_WINDOW", "LAST_DAY", "AR", "LSTM", "MPNN",
               "MPNN_LSTM", "MPNN_TL", "TL_BASE")
# the model kind each trainable grid name builds; every other name is a baseline
TRAINABLE_KINDS = {"LSTM": "lstm", "MPNN": "mpnn", "MPNN_LSTM": "mpnn_lstm",
                   "MPNN_TL": "mpnn", "TL_BASE": "mpnn"}
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


@dataclass(frozen=True)
class ReportRow:
    country: str
    model: str
    t: int
    horizon: int
    region: str
    prediction: float
    actual: float

    @property
    def abs_error(self) -> float:
        return abs(self.prediction - self.actual)


@dataclass
class ErrorReport:
    rows: list
    skipped: list   # (country, model, t, j, reason)


# ---------------------------------------------------------------- metrics

def error_metric(rows) -> float:
    """Mean absolute error over all (region, test day) entries."""
    rows = list(rows)
    if not rows:
        raise ContractError("error_metric of an empty row set")
    return float(np.mean([r.abs_error for r in rows]))


def range_summary(rows) -> dict:
    """Per-model mean error over horizon ranges, keyed like "1-14", and over
    each single horizon present, keyed like "7-7".

    Each range averages over every available row whose horizon falls inside
    it, so horizons contribute in proportion to their completed cells.
    """
    by_model = {}
    for r in rows:
        by_model.setdefault(r.model, []).append(r)
    singles = tuple((j, j) for j in sorted({r.horizon for r in rows}))
    out = {}
    for model in sorted(by_model):
        entry = {}
        for lo, hi in SUMMARY_RANGES + singles:
            in_range = [r for r in by_model[model] if lo <= r.horizon <= hi]
            if in_range:
                entry[f"{lo}-{hi}"] = error_metric(in_range)
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
    fields of cfg."""
    if name not in TRAINABLE_KINDS:
        raise ContractError(f"unknown trainable model {name!r}")
    return model_from_spec({**asdict(cfg), "kind": TRAINABLE_KINDS[name]})


def checkpoint_name(country: str, model: str, t: int, j: int) -> str:
    return f"{country}__{model}__T{t}_j{j}.ckpt"


def _baseline_cell(name: str, dataset: CountryDataset, t: int, j: int,
                   cfg: EvalConfig) -> np.ndarray:
    history = dataset.case_window(t, t)
    if name == "AVG":
        return avg_predict(history)
    if name == "AVG_WINDOW":
        return avg_window_predict(history, d=cfg.train.d)
    if name == "LAST_DAY":
        return last_day_predict(history)
    fit = ar_fit(history, p=cfg.ar_order, differencing=cfg.ar_differencing)
    return ar_predict(fit, history, j=j)


# Worker-process context for parallel grid evaluation; populated once per
# worker by the pool initializer so tasks stay tiny.
_CELL_CTX = None


def _init_cell_worker(payload):
    global _CELL_CTX
    _CELL_CTX = payload


@dataclass(frozen=True)
class _CellContext:
    datasets: tuple
    config: EvalConfig
    checkpoint_dir: Optional[str]
    load_only: bool = False   # load each trainable cell's checkpoint, never train

    def dataset(self, country: str) -> CountryDataset:
        for ds in self.datasets:
            if ds.country == country:
                return ds
        raise ContractError(f"unknown country {country!r}")


def _meta_task(ctx: _CellContext, target: str):
    """The target's shared MPNN_TL initialization, or why meta-training failed.

    Learns from every other country's task grid with a seed derived from
    (seed, "meta", target), and saves <target>__MPNN_TL__meta.ckpt into the
    checkpoint directory when there is one.
    """
    cfg = ctx.config
    foreign = [ds for ds in ctx.datasets if ds.country != target]
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


def _keep(ctx: _CellContext, task, outcome):
    """Save a trainable cell's outcome, a Checkpoint or a skip reason, as
    its checkpoint when ctx has a checkpoint directory; return the outcome."""
    path = _cell_path(ctx, task)
    if path is not None:
        country, model_name, t, j = task
        save_checkpoint(path, outcome, extra_meta={
            "country": country, "model_name": model_name, "t": t, "horizon": j,
            "cell_seed": derive_seed(ctx.config.seed, country, t, j)})
    return outcome


def _cell_checkpoint(ctx: _CellContext, task, model, dataset, shared):
    """The cell's splits and model: loaded from its checkpoint under
    ctx.load_only, else `model` trained and kept."""
    country, model_name, t, j = task
    path = _cell_path(ctx, task)
    # a stored skip raises SkippedCell before the splits, as it was recorded
    stored = load_checkpoint(path) if ctx.load_only and os.path.exists(path) else None
    splits = make_splits(dataset, t, j, model.d, model.seq_len)
    if stored is not None:
        return splits, stored
    if ctx.load_only:
        raise CheckpointError(f"missing checkpoint for cell country={country} "
                              f"model={model_name} T={t} j={j}: {path}")
    cfg = ctx.config
    cell_seed = derive_seed(cfg.seed, country, t, j)
    if model_name == "TL_BASE":
        ckpt = tl_base_train(list(ctx.datasets), country, splits, model,
                             cfg.train, cell_seed)
    else:
        ckpt = train_model(splits, model, cfg.train, cell_seed, init_state=shared)
    return splits, _keep(ctx, task, ckpt)


def evaluate_cell(ctx: _CellContext, country: str, model_name: str, t: int,
                  j: int, shared=None):
    """One protocol cell: fit, train or load, predict day t+j; return rows or a skip.

    `shared`, passed to MPNN_TL cells only, is the country's meta-trained
    ModelState or the reason it has none.  Returns the cell's rows, or the
    reason string when the cell lacks the data its model needs, its training
    diverged or it has no shared initialization.  The last two keep the
    reason as the cell's checkpoint, which a load-only run reads back as the
    same skip.
    """
    task = (country, model_name, t, j)
    dataset = ctx.dataset(country)
    cfg = ctx.config
    if model_name == "MPNN_TL" and len(ctx.datasets) == 1:
        return "transfer initialization needs at least one other country"
    if isinstance(shared, str):
        return _keep(ctx, task, shared)
    try:
        if model_name not in TRAINABLE_KINDS:
            preds = _baseline_cell(model_name, dataset, t, j, cfg)
        else:
            model = build_model(model_name, cfg.train)
            splits, ckpt = _cell_checkpoint(ctx, task, model, dataset, shared)
            preds = predict(ckpt.model, ckpt.state, [splits.test])
    except (DataError, SkippedCell) as exc:  # DataError includes InsufficientDataError
        return str(exc)
    except TrainingDivergedError as exc:
        return _keep(ctx, task, f"training diverged: {exc}")
    actual = dataset.cases_on(t + j)
    return [ReportRow(country, model_name, t, j, dataset.regions[v],
                      float(preds[v]), float(actual[v]))
            for v in range(dataset.n)]


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


def _schedule(run, tasks, targets):
    """Yield (index, outcome) per cell of tasks.  run(items) starts meta tasks
    (target names) and cells (task tuples), then yields their outcomes in
    order; a target's MPNN_TL cells start once its meta outcome is read."""
    later = [k for k, task in enumerate(tasks) if task[1] == "MPNN_TL" and task[0] in targets]
    ready = sorted(set(range(len(tasks))).difference(later))
    outcomes = run([*targets, *(tasks[k] for k in ready)])
    shared = {target: next(outcomes) for target in targets}
    later_outcomes = run([(*tasks[k], shared[tasks[k][0]]) for k in later])
    yield from zip(ready, outcomes)
    yield from zip(later, later_outcomes)


@contextlib.contextmanager
def _runner(ctx: _CellContext, work: int):
    """_schedule's run(items): in-process, or through at most `work` workers."""
    if ctx.config.jobs == 1 or ctx.load_only:
        yield lambda items: (_run_task(ctx, item) for item in items)
        return
    # a fork-started pool starts every worker at its first submit
    workers = min(ctx.config.jobs, work, os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_cell_worker,
            initargs=(ctx,)) as pool:
        try:   # submit every item now, read the results in order
            yield lambda items: map(concurrent.futures.Future.result,
                                    [pool.submit(_run_cell, item) for item in items])
        except BaseException:
            pool.shutdown(cancel_futures=True)  # start no queued cell after a failure
            raise


def rolling_evaluate(datasets, config: EvalConfig,
                     checkpoint_dir: Optional[str] = None,
                     load_only: bool = False) -> ErrorReport:
    """Train and score every (country, model, T, horizon) cell of the config.

    Each cell trains its own model with a seed derived from (seed, country,
    T, horizon), so cells are reproducible independently of execution order.
    _schedule runs them and each target's MPNN_TL meta-training, in-process
    or over `config.jobs` > 1 worker processes; the report keeps grid order.
    Cells without enough data, or whose training diverged, are skipped and
    recorded, not failed; any other error stops the grid.

    With `load_only`, every trainable cell loads its checkpoint from
    checkpoint_dir instead of training: nothing is meta-trained or saved,
    cells run in-process whatever `config.jobs` says, and a missing
    checkpoint is a CheckpointError naming the cell.
    """
    tasks = _grid_tasks(datasets, config)
    if load_only and checkpoint_dir is None:
        raise ContractError("load_only needs a checkpoint directory")
    if (checkpoint_dir is not None and not load_only
            and any(name in TRAINABLE_KINDS for name in config.models)):
        make_dir(checkpoint_dir)   # a bad path fails before any cell trains
    for ds in datasets:
        normalized_graphs(ds)   # once, before any worker forks
    ctx = _CellContext(datasets=tuple(datasets), config=config,
                       checkpoint_dir=checkpoint_dir, load_only=load_only)
    # one meta-training per target country, each on all the others
    targets = ([ds.country for ds in datasets] if "MPNN_TL" in config.models
               and len(datasets) > 1 and not load_only else [])
    with _runner(ctx, len(targets) + len(tasks)) as run:
        outcomes = dict(_schedule(run, tasks, targets))
    report = ErrorReport(rows=[], skipped=[])
    for k, task in enumerate(tasks):   # grid order, whatever order cells ran in
        if isinstance(outcomes[k], str):
            report.skipped.append((*task, outcomes[k]))
        else:
            report.rows.extend(outcomes[k])
    return report


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
    r"^# skipped country=(?P<c>.*) model=(?P<m>\S+) "
    r"T=(?P<t>\d+) j=(?P<j>\d+): (?P<reason>.*)$")


def emit_report(report: ErrorReport, out_dir: str) -> dict:
    """Write rows.csv and summary.json.

    Output is byte-deterministic for a fixed report.  Skipped cells appear
    as comment lines above the rows.csv header, in the form parse_skip_line
    reads back.  Returns the path of each artifact.
    """
    paths = {"rows": os.path.join(out_dir, "rows.csv"),
             "summary": os.path.join(out_dir, "summary.json")}
    lines = [f"# skipped country={c} model={m} T={t} j={j}: {reason}"
             for c, m, t, j, reason in report.skipped]
    lines.append(ROWS_HEADER)
    lines.extend(
        f"{r.country},{r.model},{r.t},{r.horizon},{r.region},"
        f"{_float_cell(r.prediction)},{_float_cell(r.actual)},"
        f"{_float_cell(r.abs_error)}"
        for r in report.rows)
    write_file(paths["rows"], "\n".join(lines) + "\n")
    write_file(paths["summary"],
               json.dumps(range_summary(report.rows), sort_keys=True, indent=2) + "\n")
    return paths


def parse_skip_line(line: str, path: str):
    """(country, model, t, j, reason) of a rows.csv skip line."""
    m = _SKIP_LINE.match(line)
    if not m:
        raise DataError(f"{path}: unrecognized skip line {line!r}")
    return (m["c"], m["m"], int(m["t"]), int(m["j"]), m["reason"])


def load_report_rows(path: str):
    """Rows and skip lines back from an emitted rows.csv."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read report file {path}: {exc}") from exc
    skipped_lines = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body or body[0] != ROWS_HEADER:
        raise DataError(f"{path}: not a rows.csv report")
    rows = []
    for ln in body[1:]:
        try:   # a wrong width fails the unpacking, a bad number its parse
            country, model, t, j, region, pred, actual, _ = ln.split(",")
            rows.append(ReportRow(country, model, int(t), int(j), region,
                                  float(pred), float(actual)))
        except ValueError:
            raise DataError(f"{path}: malformed row {ln!r}") from None
    return rows, skipped_lines
