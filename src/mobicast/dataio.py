"""Ingestion of mobility/case files, alignment, synthetic epidemics, bundles.

Matrix convention everywhere: mobility M[u][v] is the number of people moving
FROM region v INTO region u on that day (row = destination, column = origin);
the diagonal is within-region movement.
"""

from __future__ import annotations

import csv
import datetime
import json
import logging
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BundleError, DataError
from .rng import Rng, derive_seed

log = logging.getLogger(__name__)

BUNDLE_FORMAT_VERSION = "1"


# ---------------------------------------------------------------- records

@dataclass
class IngestStats:
    clamped: int = 0  # negative case values forced to 0 (reporting corrections)
    missing: int = 0  # (region, day) pairs absent from the file, filled with 0


def _parse_date(text: str, line_no: int, path: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise DataError(f"{path}:{line_no}: unparseable date {text!r}: {exc}") from exc


def _check_contiguous(dates: list[str], context: str) -> None:
    parsed = [datetime.date.fromisoformat(d) for d in dates]
    for a, b in zip(parsed, parsed[1:]):
        if (b - a).days != 1:
            raise DataError(f"{context}: dates must be contiguous, gap between {a} and {b}")


# ---------------------------------------------------------------- dataset

class CountryDataset:
    """Immutable aligned view of one country: regions, dates, cases, mobility.

    Days are 1-based in every accessor: day 1 is dates[0].  All case reads by
    downstream code go through the accessors, which makes train/test isolation
    checkable by wrapping them.  `graph_cache` holds every day's normalized
    mobility once `graphs.normalized_graphs` has filled it, None before.
    """

    __slots__ = ("country", "regions", "dates", "cases", "mobility",
                 "graph_cache")

    def __init__(self, country: str, regions, dates, cases, mobility):
        regions = tuple(str(r) for r in regions)
        dates = tuple(str(d) for d in dates)
        cases = np.asarray(cases, dtype=np.float64).copy()
        mobility = tuple(np.asarray(m, dtype=np.float64).copy() for m in mobility)
        n, t = len(regions), len(dates)
        if len(set(regions)) != n:
            raise DataError(f"{country}: duplicate region ids")
        if cases.shape != (n, t):
            raise DataError(f"{country}: cases shape {cases.shape}, expected ({n}, {t})")
        if len(mobility) != t:
            raise DataError(f"{country}: {len(mobility)} mobility matrices for {t} dates")
        for k, m in enumerate(mobility):
            if m.shape != (n, n):
                raise DataError(f"{country}: mobility[{k}] shape {m.shape}, expected ({n}, {n})")
            if np.any(m < 0):
                raise DataError(f"{country}: negative mobility entry on {dates[k]}")
        if np.any(cases < 0):
            raise DataError(f"{country}: negative case values (clamp on ingestion)")
        if not np.all(np.isfinite(cases)):
            raise DataError(f"{country}: non-finite case values")
        _check_contiguous(list(dates), country)
        cases.setflags(write=False)
        for m in mobility:
            m.setflags(write=False)
        self.country = country
        self.regions = regions
        self.dates = dates
        self.cases = cases
        self.mobility = mobility
        self.graph_cache = None

    @property
    def n(self) -> int:
        return len(self.regions)

    @property
    def t_total(self) -> int:
        return len(self.dates)

    def _day_index(self, day: int) -> int:
        if not 1 <= day <= self.t_total:
            raise DataError(f"{self.country}: day {day} outside 1..{self.t_total}")
        return day - 1

    def cases_on(self, day: int) -> np.ndarray:
        """New cases per region on a 1-based day; shape (n,)."""
        return self.cases[:, self._day_index(day)]

    def case_window(self, day: int, d: int) -> np.ndarray:
        """Cases for the d days ending at `day`, oldest column first; shape (n, d)."""
        if d < 1:
            raise DataError(f"window length must be >= 1, got {d}")
        if day - d + 1 < 1:
            raise DataError(f"{self.country}: window of {d} days ending at day {day} "
                            f"starts before day 1")
        hi = self._day_index(day)
        return self.cases[:, hi - d + 1:hi + 1]

    def mobility_on(self, day: int) -> np.ndarray:
        """Raw (unnormalized) mobility matrix for a 1-based day; shape (n, n)."""
        return self.mobility[self._day_index(day)]


@dataclass
class RawCountryData:
    """Pre-alignment container: mobility and cases may cover different dates."""
    country: str
    regions: tuple
    mobility: dict  # ISO date -> n x n matrix
    case_dates: tuple
    cases: np.ndarray  # n x len(case_dates)


# ---------------------------------------------------------------- loaders

def load_region_map(path: str) -> dict:
    """Two-column CSV source_name,region_id used to reconcile naming schemes."""
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["source_name", "region_id"]:
            raise DataError(f"{path}: expected header source_name,region_id")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataError(f"{path}:{line_no}: expected 2 columns, got {len(row)}")
            out[row[0].strip()] = row[1].strip()
    return out


def _resolve_region(name: str, regions_idx: dict, region_map, path: str, line_no: int) -> int:
    name = name.strip()
    if region_map is not None:
        name = region_map.get(name, name)
    idx = regions_idx.get(name)
    if idx is None:
        raise DataError(f"{path}:{line_no}: unknown region id {name!r}")
    return idx


def load_mobility(path: str, regions, region_map: dict | None = None) -> dict:
    """Read a mobility CSV into per-day raw matrices (same-day recordings summed).

    Accepts both the full format (date,time_of_day,origin,destination,count,
    time_of_day in {0,1,2}) and the pre-aggregated one without time_of_day.
    """
    regions = [str(r) for r in regions]
    regions_idx = {r: i for i, r in enumerate(regions)}
    n = len(regions)
    out: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if header == ["date", "time_of_day", "origin", "destination", "count"]:
            has_tod = True
        elif header == ["date", "origin", "destination", "count"]:
            has_tod = False
        else:
            raise DataError(f"{path}: unrecognized mobility header {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{line_no}: expected {len(header)} columns")
            date = _parse_date(row[0], line_no, path).isoformat()
            col = 1
            if has_tod:
                tod = row[col].strip()
                if tod not in ("0", "1", "2"):
                    raise DataError(f"{path}:{line_no}: time_of_day must be 0, 1 or 2, "
                                    f"got {tod!r}")
                col += 1
            origin = _resolve_region(row[col], regions_idx, region_map, path, line_no)
            dest = _resolve_region(row[col + 1], regions_idx, region_map, path, line_no)
            try:
                count = float(row[col + 2])
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: bad count {row[col + 2]!r}") from exc
            if not np.isfinite(count) or count < 0:
                raise DataError(f"{path}:{line_no}: count must be finite and >= 0, got {count}")
            if date not in out:
                out[date] = np.zeros((n, n))
            out[date][dest, origin] += count
    return out


def load_cases(path: str, regions, dates=None, region_map: dict | None = None):
    """Read a cases CSV into an n x T matrix over `dates` (default: the file's span).

    Returns (dates, matrix, IngestStats).  Negative values (reporting
    corrections) are clamped to 0; absent (region, day) pairs become 0.  Both
    are counted in the stats and logged.
    """
    regions = [str(r) for r in regions]
    regions_idx = {r: i for i, r in enumerate(regions)}
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["date", "region", "new_cases"]:
            raise DataError(f"{path}: expected header date,region,new_cases")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{line_no}: expected 3 columns, got {len(row)}")
            date = _parse_date(row[0], line_no, path)
            ridx = _resolve_region(row[1], regions_idx, region_map, path, line_no)
            try:
                value = float(row[2])
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: bad case count {row[2]!r}") from exc
            records.append((date, ridx, value))
    if not records:
        raise DataError(f"{path}: no case records")
    if dates is None:
        lo = min(r[0] for r in records)
        hi = max(r[0] for r in records)
        dates = [(lo + datetime.timedelta(days=k)).isoformat()
                 for k in range((hi - lo).days + 1)]
    dates = [str(d) for d in dates]
    date_idx = {d: k for k, d in enumerate(dates)}
    stats = IngestStats()
    matrix = np.zeros((len(regions), len(dates)))
    seen = set()
    for date, ridx, value in records:
        k = date_idx.get(date.isoformat())
        if k is None:
            continue  # outside the requested span
        if value < 0:
            stats.clamped += 1
            value = 0.0
        matrix[ridx, k] = value
        seen.add((ridx, k))
    stats.missing = len(regions) * len(dates) - len(seen)
    if stats.clamped:
        log.warning("%s: clamped %d negative case values to 0", path, stats.clamped)
    if stats.missing:
        log.warning("%s: %d (region, day) pairs absent, filled with 0", path, stats.missing)
    return tuple(dates), matrix, stats


# ---------------------------------------------------------------- alignment

def align_and_filter(raw: RawCountryData, min_total_cases: int = 10) -> CountryDataset:
    """Intersect mobility/case dates and drop regions below the case threshold."""
    common = sorted(set(raw.mobility) & set(raw.case_dates))
    if not common:
        raise DataError(f"{raw.country}: mobility and case dates do not overlap")
    _check_contiguous(common, raw.country)
    case_pos = {d: k for k, d in enumerate(raw.case_dates)}
    cases = np.stack([raw.cases[:, case_pos[d]] for d in common], axis=1)
    mobility = [raw.mobility[d] for d in common]

    totals = cases.sum(axis=1)
    keep = np.flatnonzero(totals >= min_total_cases)
    if keep.size == 0:
        raise DataError(f"{raw.country}: no region has >= {min_total_cases} total cases")
    dropped = [raw.regions[i] for i in range(len(raw.regions)) if i not in set(keep.tolist())]
    if dropped:
        log.info("%s: dropping %d low-case regions: %s",
                 raw.country, len(dropped), ", ".join(map(str, dropped)))
    regions = [raw.regions[i] for i in keep]
    cases = cases[keep]
    mobility = [m[np.ix_(keep, keep)] for m in mobility]
    return CountryDataset(raw.country, regions, common, cases, mobility)


# ---------------------------------------------------------------- synthetic

@dataclass(frozen=True)
class SyntheticConfig:
    n_regions: int = 30
    n_days: int = 90
    n_countries: int = 4
    base_rate: float = 1.25       # daily growth multiplier during the wave
    self_loop_strength: float = 3.0  # diagonal = this x off-diagonal row mass
    underreporting: float = 0.5   # fraction of latent infections observed
    noise_seed: int = 0
    jitter: bool = True           # latent noise + Poisson observation jitter

    def __post_init__(self):
        if min(self.n_regions, self.n_days, self.n_countries) < 1:
            raise DataError("synthetic counts must be >= 1")
        if not 0.0 <= self.underreporting <= 1.0:
            raise DataError("underreporting must be in [0, 1]")
        if self.base_rate < 0 or self.self_loop_strength < 0:
            raise DataError("rates must be >= 0")


def _row_normalize(m: np.ndarray) -> np.ndarray:
    sums = m.sum(axis=1, keepdims=True)
    out = np.divide(m, sums, out=np.zeros_like(m), where=sums > 0)
    return out


def generate_synthetic(config: SyntheticConfig) -> list:
    """Seeded multi-country epidemics whose spread follows the mobility graph.

    Latent infections diffuse as I(t+1) = beta_t * RowNormalize(M(t)) @ I(t)
    (+ small nonnegative noise when jitter is on), with beta_t = base_rate
    during each country's growth phase and a decaying multiplier afterwards.
    Outbreak start days are staggered across countries; observed cases are
    round(underreporting * I), Poisson-jittered when jitter is on.
    """
    n, days = config.n_regions, config.n_days
    start0 = datetime.date(2020, 3, 1)
    dates = [(start0 + datetime.timedelta(days=k)).isoformat() for k in range(days)]
    regions = [f"R{i:02d}" for i in range(n)]
    stagger = max(1, days // (3 * config.n_countries))
    wave_len = max(10, days // 3)
    decay = min(0.95, 1.0 / config.base_rate) if config.base_rate > 0 else 0.0

    datasets = []
    for c in range(config.n_countries):
        rng = Rng(derive_seed(config.noise_seed, "synthetic", c))
        base = rng.uniform(0.0, 20.0, (n, n))
        off_mass = base.sum(axis=1) - np.diag(base)
        diag = config.self_loop_strength * off_mass * rng.uniform(0.9, 1.1, n)
        base[np.arange(n), np.arange(n)] = diag

        start = c * stagger
        seed_region = int(rng.random() * n) % n
        latent = np.zeros((n, days))
        mobility = []
        infected = np.zeros(n)
        for t in range(days):
            m_t = base * rng.uniform(0.7, 1.3, (n, n))
            mobility.append(m_t)
            if t == start:
                infected = infected.copy()
                infected[seed_region] += 10.0
            latent[:, t] = infected
            beta_t = config.base_rate if t < start + wave_len else config.base_rate * decay ** (
                t - start - wave_len + 1)
            infected = beta_t * (_row_normalize(m_t) @ infected)
            if config.jitter:
                infected = infected + infected * rng.uniform(0.0, 0.02, n)

        scaled = config.underreporting * latent
        if config.jitter:
            observed = rng.poisson(scaled).astype(np.float64)
        else:
            observed = np.round(scaled)
        datasets.append(CountryDataset(f"C{c}", regions, dates, observed, mobility))
    return datasets


# ---------------------------------------------------------------- bundles

def save_bundle(dataset: CountryDataset, dir_path: str) -> None:
    """Write manifest.json, cases.csv, and mobility/<date>.csv (lossless)."""
    os.makedirs(os.path.join(dir_path, "mobility"), exist_ok=True)
    manifest = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "country": dataset.country,
        "n": dataset.n,
        "t_total": dataset.t_total,
        "dates": list(dataset.dates),
        "regions": list(dataset.regions),
    }
    with open(os.path.join(dir_path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(dir_path, "cases.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "region", "new_cases"])
        for k, date in enumerate(dataset.dates):
            for i, region in enumerate(dataset.regions):
                writer.writerow([date, region, repr(float(dataset.cases[i, k]))])
    for k, date in enumerate(dataset.dates):
        path = os.path.join(dir_path, "mobility", f"{date}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for row in dataset.mobility[k]:
                writer.writerow([repr(float(v)) for v in row])


def load_bundle(dir_path: str) -> CountryDataset:
    manifest_path = os.path.join(dir_path, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise BundleError(f"{dir_path}: missing manifest.json")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise BundleError(f"{manifest_path}: invalid JSON: {exc}") from exc
    if manifest.get("format_version") != BUNDLE_FORMAT_VERSION:
        raise BundleError(f"{dir_path}: unsupported bundle format_version "
                          f"{manifest.get('format_version')!r}")
    for key in ("country", "n", "t_total", "dates", "regions"):
        if key not in manifest:
            raise BundleError(f"{dir_path}: manifest missing key {key!r}")
    n, t_total = manifest["n"], manifest["t_total"]
    regions, dates = manifest["regions"], manifest["dates"]
    if len(regions) != n:
        raise BundleError(f"{dir_path}: manifest lists {len(regions)} regions, n={n}")
    if len(dates) != t_total:
        raise BundleError(f"{dir_path}: manifest lists {len(dates)} dates, t_total={t_total}")

    regions_idx = {r: i for i, r in enumerate(regions)}
    date_idx = {d: k for k, d in enumerate(dates)}
    cases = np.zeros((n, t_total))
    filled = np.zeros((n, t_total), dtype=bool)
    cases_path = os.path.join(dir_path, "cases.csv")
    if not os.path.isfile(cases_path):
        raise BundleError(f"{dir_path}: missing cases.csv")
    with open(cases_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["date", "region", "new_cases"]:
            raise BundleError(f"{cases_path}: bad header {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 or row[0] not in date_idx or row[1] not in regions_idx:
                raise BundleError(f"{cases_path}:{line_no}: row does not match manifest")
            cases[regions_idx[row[1]], date_idx[row[0]]] = _number(
                row[2], cases_path, line_no)
            filled[regions_idx[row[1]], date_idx[row[0]]] = True
    if not filled.all():
        raise BundleError(f"{cases_path}: missing (region, date) entries")

    mobility = []
    for date in dates:
        path = os.path.join(dir_path, "mobility", f"{date}.csv")
        if not os.path.isfile(path):
            raise BundleError(f"{dir_path}: missing mobility matrix for {date}")
        mobility.append(_load_matrix(path, n))
    return CountryDataset(manifest["country"], regions, dates, cases, mobility)


def _number(cell: str, path: str, line_no: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise BundleError(f"{path}:{line_no}: non-numeric cell {cell!r}") from None


def _load_matrix(path: str, n: int) -> np.ndarray:
    """One dense n x n mobility CSV, parsed in one numpy call.

    A file numpy rejects, or of the wrong shape, is re-read cell by cell
    with float(), which accepts what numpy does not (quoted cells, digit
    underscores) and names the line of a ragged row or a non-numeric cell.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file
            mat = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                             encoding="utf-8")
        if mat.shape == (n, n):
            return mat
    except ValueError:
        pass
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            if len(row) != n:
                raise BundleError(f"{path}:{reader.line_num}: {len(row)} cells, "
                                  f"expected a dense {n}x{n} matrix")
            rows.append([_number(v, path, reader.line_num) for v in row])
    if len(rows) != n:
        raise BundleError(f"{path}: {len(rows)} rows, expected a dense {n}x{n} matrix")
    return np.array(rows)
