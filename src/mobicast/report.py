"""Grid outcomes and the tables made from them, with no training: the cell
result, error metrics and range summaries, mobility/case correlation and
case-stat tables, and the rows.csv/summary.json writer and reader."""

from __future__ import annotations

import itertools
import json
import os
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dataio import CountryDataset, read_lines, write_file
from .errors import ContractError, DataError

MODEL_NAMES = ("AVG", "AVG_WINDOW", "LAST_DAY", "AR", "LSTM", "MPNN",
               "MPNN_LSTM", "MPNN_TL", "TL_BASE")
SUMMARY_RANGES = ((1, 3), (1, 7), (1, 14))


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
