"""Ingestion of mobility/case files, alignment, synthetic epidemics, bundles,
the whole-file reader and the streamed CSV reader every input goes through,
and the one atomic writer every output goes through.

Matrix convention everywhere: mobility M[u][v] is the number of people moving
FROM region v INTO region u on that day (row = destination, column = origin);
the diagonal is within-region movement.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import logging
import os
from dataclasses import dataclass

import numpy as np

from .errors import BundleError, ContractError, DataError, ShapeError, WriteError
from .rng import Rng, derive_seed

log = logging.getLogger(__name__)

BUNDLE_FORMAT_VERSION = "2"


def normalize_incoming(m: np.ndarray) -> np.ndarray:
    """Scale each row to sum to 1 (incoming-edge normalization); zero rows stay zero."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"mobility matrix must be square, got {m.shape}")
    if not np.all(m >= 0):
        raise ContractError("mobility entries must be >= 0 (NaN is not)")
    sums = m.sum(axis=1, keepdims=True)
    return np.divide(m, sums, out=np.zeros_like(m), where=sums > 0)


# ---------------------------------------------------------------- files

def make_dir(path: str) -> None:
    """Create directory `path` and its parents; an existing one is kept."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise WriteError(f"cannot create directory {path}: {exc}") from exc


def read_file(path: str, binary: bool = False, error=DataError):
    """The UTF-8 text of file `path`, or its bytes with `binary`; a file that
    cannot be read or decoded raises `error` ("cannot read <path>: ...")."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return data if binary else data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def write_file(path: str, data) -> None:
    """Write `data` (str, as UTF-8, or bytes) to path + ".tmp", creating the parent
    directory, then rename it over `path`: no reader ever sees half a file."""
    make_dir(os.path.dirname(path) or ".")
    try:
        with open(path + ".tmp", "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(path + ".tmp", path)
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------- records

@dataclass
class IngestStats:
    clamped: int = 0  # negative case values forced to 0 (reporting corrections)
    missing: int = 0  # (region, day) pairs absent from the file, filled with 0


def _parse_date(text: str, where: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"{where}: unparseable date {text!r}: {exc}") from exc


def _check_contiguous(dates: list[str], context: str) -> None:
    parsed = [_parse_date(d, context) for d in dates]
    for a, b in zip(parsed, parsed[1:]):
        if (b - a).days != 1:
            raise DataError(f"{context}: dates must be contiguous, gap between {a} and {b}")


def _csv_rows(path: str, *headers: str) -> tuple:
    """(header, [(line_no, row), ...]) of a CSV file whose header, its cells
    stripped and comma-joined, is one of `headers`.

    Blank rows are skipped.  A file that cannot be read, another header or a
    row of another width raises DataError naming the file (and the line).
    """
    try:   # streamed, not through read_file: an ingest CSV can be large
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = ",".join(cell.strip() for cell in next(reader, []))
            rows = [(line_no, row) for line_no, row in enumerate(reader, start=2) if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if header not in headers:
        raise DataError(f"{path}: expected header {' or '.join(headers)}, got {header!r}")
    width = header.count(",") + 1
    for line_no, row in rows:
        if len(row) != width:
            raise DataError(f"{path}:{line_no}: expected {width} columns, got {len(row)}")
    return header, rows


# ---------------------------------------------------------------- dataset

class CountryDataset:
    """Immutable aligned view of one country: regions, dates, cases, mobility.

    Days are 1-based in every accessor: day 1 is dates[0].  All case reads by
    downstream code go through the accessors, which makes train/test isolation
    checkable by wrapping them.  `mobility` is one read-only C-contiguous
    (T, n, n) float64 array: a read-only one passed in is kept as it is, a
    writeable one is copied.  `graph_cache` holds every day's normalized
    mobility once `graphs.normalized_graphs` has filled it, None before.
    """

    __slots__ = ("country", "regions", "dates", "cases", "mobility",
                 "graph_cache")

    def __init__(self, country: str, regions, dates, cases, mobility):
        regions = tuple(str(r) for r in regions)
        dates = tuple(str(d) for d in dates)
        cases = np.asarray(cases, dtype=np.float64).copy()
        given = mobility
        mobility = np.asarray(mobility, dtype=np.float64, order="C")
        # copy a writeable array the caller still holds, not one asarray just built
        if mobility.flags.writeable and (mobility is given or not mobility.flags.owndata):
            mobility = mobility.copy()
        n, t = len(regions), len(dates)
        for name in (str(country), *regions):
            if any(ch in name for ch in ",\r\n"):
                raise DataError(f"id {name!r} contains a comma or line break, "
                                f"which report rows cannot hold")
        if len(set(regions)) != n:
            raise DataError(f"{country}: duplicate region ids")
        if cases.shape != (n, t):
            raise DataError(f"{country}: cases shape {cases.shape}, expected ({n}, {t})")
        if mobility.shape != (t, n, n):
            raise DataError(f"{country}: mobility shape {mobility.shape}, "
                            f"expected ({t}, {n}, {n})")
        # per-day extremes, no (T, n, n) temporary; low <= 0 <= high, so low + high never overflows
        low = mobility.min(axis=(1, 2), initial=0.0)
        high = mobility.max(axis=(1, 2), initial=0.0)
        for bad, what in ((~np.isfinite(low + high), "non-finite"), (low < 0, "negative")):
            days = np.flatnonzero(bad)
            if days.size:
                raise DataError(f"{country}: {what} mobility entry on {dates[days[0]]}")
        if np.any(cases < 0):
            raise DataError(f"{country}: negative case values (clamp on ingestion)")
        if not np.all(np.isfinite(cases)):
            raise DataError(f"{country}: non-finite case values")
        _check_contiguous(list(dates), country)
        cases.setflags(write=False)
        mobility.setflags(write=False)
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
        """Raw (unnormalized) mobility matrix for a 1-based day; a read-only
        (n, n) view of `mobility`."""
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
    _, rows = _csv_rows(path, "source_name,region_id")
    return {source.strip(): region.strip() for _, (source, region) in rows}


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
    header, rows = _csv_rows(path, "date,time_of_day,origin,destination,count",
                             "date,origin,destination,count")
    has_tod = "time_of_day" in header
    out: dict = {}
    for line_no, row in rows:
        date = _parse_date(row[0].strip(), f"{path}:{line_no}").isoformat()
        if has_tod and row[1].strip() not in ("0", "1", "2"):
            raise DataError(f"{path}:{line_no}: time_of_day must be 0, 1 or 2, "
                            f"got {row[1].strip()!r}")
        origin = _resolve_region(row[-3], regions_idx, region_map, path, line_no)
        dest = _resolve_region(row[-2], regions_idx, region_map, path, line_no)
        try:
            count = float(row[-1])
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: bad count {row[-1]!r}") from exc
        if not np.isfinite(count) or count < 0:
            raise DataError(f"{path}:{line_no}: count must be finite and >= 0, got {count}")
        if date not in out:
            out[date] = np.zeros((n, n))
        out[date][dest, origin] += count
    return out


def load_cases(path: str, regions, region_map: dict | None = None):
    """Read a cases CSV into an n x T matrix over the file's span of dates.

    Returns (dates, matrix, IngestStats).  Negative values (reporting
    corrections) are clamped to 0; absent (region, day) pairs become 0.  Both
    are counted in the stats and logged.  A (region, day) pair given twice,
    directly or through region_map, is an error naming the second line.
    """
    regions = [str(r) for r in regions]
    regions_idx = {r: i for i, r in enumerate(regions)}
    _, rows = _csv_rows(path, "date,region,new_cases")
    records = {}   # (date, region index) -> case count
    for line_no, (day, region, cell) in rows:
        date = _parse_date(day.strip(), f"{path}:{line_no}")
        ridx = _resolve_region(region, regions_idx, region_map, path, line_no)
        if (date, ridx) in records:
            raise DataError(f"{path}:{line_no}: repeats region {regions[ridx]!r} "
                            f"on {date.isoformat()}")
        try:
            value = float(cell)
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: bad case count {cell!r}") from exc
        if not np.isfinite(value):
            raise DataError(f"{path}:{line_no}: case count must be finite, got {value}")
        records[date, ridx] = value
    if not records:
        raise DataError(f"{path}: no case records")
    lo = min(date for date, _ in records)
    hi = max(date for date, _ in records)
    dates = [(lo + datetime.timedelta(days=k)).isoformat()
             for k in range((hi - lo).days + 1)]
    stats = IngestStats()
    matrix = np.zeros((len(regions), len(dates)))
    for (date, ridx), value in records.items():
        if value < 0:
            stats.clamped += 1
            value = 0.0
        matrix[ridx, (date - lo).days] = value
    stats.missing = len(regions) * len(dates) - len(records)
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
    kept = set(keep.tolist())
    dropped = [raw.regions[i] for i in range(len(raw.regions)) if i not in kept]
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
            infected = beta_t * (normalize_incoming(m_t) @ infected)
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
    """Write a format-2 bundle: manifest.json, cases.csv, and mobility.npy.

    mobility.npy holds every day's matrix as one (t_total, n, n) little-endian
    float64 array in dates order, so loading it restores the same bits.
    """
    manifest = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "country": dataset.country,
        "n": dataset.n,
        "t_total": dataset.t_total,
        "dates": list(dataset.dates),
        "regions": list(dataset.regions),
    }
    write_file(os.path.join(dir_path, "manifest.json"),
               json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    cases = io.StringIO(newline="")   # csv.writer ends each row with \r\n
    writer = csv.writer(cases)
    writer.writerow(["date", "region", "new_cases"])
    for k, date in enumerate(dataset.dates):
        for i, region in enumerate(dataset.regions):
            writer.writerow([date, region, repr(float(dataset.cases[i, k]))])
    write_file(os.path.join(dir_path, "cases.csv"), cases.getvalue())
    mobility = io.BytesIO()
    np.save(mobility, dataset.mobility.astype("<f8", copy=False), allow_pickle=False)
    write_file(os.path.join(dir_path, "mobility.npy"), mobility.getvalue())


def load_bundle(dir_path: str) -> CountryDataset:
    """Read a bundle that save_bundle wrote.

    A bundle of another format version, or whose files are missing,
    unreadable or disagree with its manifest, or whose cases.csv holds a
    (region, date) pair twice, raises BundleError naming the file; data the
    dataset rejects (say, negative mobility or a date that does not exist)
    raises DataError.
    """
    manifest_path = os.path.join(dir_path, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise BundleError(f"{dir_path}: missing manifest.json")
    try:
        manifest = json.loads(read_file(manifest_path))
    except (DataError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise BundleError(f"{manifest_path}: unreadable or invalid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise BundleError(f"{manifest_path}: expected a JSON object, "
                          f"got {type(manifest).__name__}")
    version = manifest.get("format_version")
    if version != BUNDLE_FORMAT_VERSION:
        raise BundleError(f"{dir_path}: unsupported bundle format_version {version!r} "
                          f"(this version reads {BUNDLE_FORMAT_VERSION!r}); re-create "
                          f"the bundle with `mobicast ingest` or `mobicast synth`")
    for key, kind in (("country", str), ("n", int), ("t_total", int),
                      ("dates", list), ("regions", list)):
        value = manifest.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):   # true is no count
            raise BundleError(f"{dir_path}: manifest key {key!r} missing or not "
                              f"a JSON {kind.__name__}")
    n, t_total = manifest["n"], manifest["t_total"]
    regions, dates = manifest["regions"], manifest["dates"]
    if not all(isinstance(name, str) for name in regions + dates):
        raise BundleError(f"{dir_path}: manifest regions and dates must be strings")
    if len(regions) != n:
        raise BundleError(f"{dir_path}: manifest lists {len(regions)} regions, n={n}")
    if len(dates) != t_total:
        raise BundleError(f"{dir_path}: manifest lists {len(dates)} dates, t_total={t_total}")

    cases_path = os.path.join(dir_path, "cases.csv")
    try:
        _, rows = _csv_rows(cases_path, "date,region,new_cases")
    except DataError as exc:
        raise BundleError(str(exc)) from exc
    regions_idx = {r: i for i, r in enumerate(regions)}
    date_idx = {d: k for k, d in enumerate(dates)}
    cases = np.zeros((n, t_total))
    filled = np.zeros((n, t_total), dtype=bool)
    for line_no, (date, region, cell) in rows:
        i, k = regions_idx.get(region), date_idx.get(date)
        if i is None or k is None:
            raise BundleError(f"{cases_path}:{line_no}: row does not match manifest")
        if filled[i, k]:
            raise BundleError(f"{cases_path}:{line_no}: repeats region {region!r} "
                              f"on {date}")
        try:
            cases[i, k] = float(cell)
        except ValueError:
            raise BundleError(f"{cases_path}:{line_no}: non-numeric cell "
                              f"{cell!r}") from None
        filled[i, k] = True
    if not filled.all():
        raise BundleError(f"{cases_path}: missing (region, date) entries")

    mobility_path = os.path.join(dir_path, "mobility.npy")
    if not os.path.isfile(mobility_path):
        raise BundleError(f"{mobility_path}: missing mobility file")
    try:
        with open(mobility_path, "rb") as fh:
            # np.load minus its .npz and pickle branches: anything but one
            # .npy array (a bad header, short data, an object array) is a
            # ValueError here
            mobility = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise BundleError(f"{mobility_path}: unreadable or truncated .npy file: "
                          f"{exc}") from None
    if mobility.dtype != np.dtype("<f8"):
        raise BundleError(f"{mobility_path}: dtype {mobility.dtype.str}, expected <f8")
    if mobility.shape != (t_total, n, n):
        raise BundleError(f"{mobility_path}: shape {mobility.shape}, expected "
                          f"{(t_total, n, n)} from the manifest")
    mobility.setflags(write=False)  # no one else holds it: the dataset need not copy
    return CountryDataset(manifest["country"], regions, dates, cases, mobility)
