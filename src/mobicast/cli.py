"""Command-line surface: dataset ingestion and synthesis, correlation tables,
grid training and rescoring (both from one EvalConfig), and report merging.

Every command that produces a directory also writes a run.json manifest there
(command line, resolved configuration, its hash, seed, package and bundle
format versions, completion status), which is enough to rerun the command.
No manifest field depends on wall-clock time, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import io
import json
import os
import sys
import typing

from . import __version__
from .dataio import (
    BUNDLE_FORMAT_VERSION,
    SyntheticConfig,
    align_and_filter,
    generate_synthetic,
    load_bundle,
    load_cases,
    load_mobility,
    load_region_map,
    make_dir,
    read_file,
    save_bundle,
    write_file,
)
from .errors import ContractError, DataError, MobicastError, WriteError
from .report import (
    MODEL_NAMES,
    case_stat_lines,
    case_stats_table,
    cell_label,
    correlation_lines,
    correlation_table,
    emit_report,
    load_report_rows,
)
from .rng import sha256

MANIFEST_NAME = "run.json"
DATA_DIR_ENV = "MOBICAST_DATA"


def keep_heap_resident() -> None:
    """Keep a training step's freed arrays in the heap for the next step.

    A step's tape arrays, freed at its end, would otherwise go back to the
    OS (mmapped blocks at once, the heap top past 128 KiB) and be faulted in
    again by the next batch.  Raising glibc's mmap threshold to 4 MiB keeps
    such blocks in the heap, and its trim threshold of 16 MiB keeps that much
    free heap top mapped.  Process-wide; pool workers inherit it through
    fork.  A no-op where the C library has no mallopt (not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 4 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 16 << 20)   # M_TRIM_THRESHOLD


# ---------------------------------------------------------------- run config

def config_digest(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8")).hexdigest()


def _check_type(key: str, value, hint, prefix: str) -> None:
    """Reject a JSON value that does not fit a field annotated int, float,
    str or Optional of one; an int fits a float and a bool fits neither."""
    types = typing.get_args(hint) or (hint,)   # Optional[int] -> (int, NoneType)
    if not {int, float, str} & set(types):
        return   # list fields (models, grid horizons) check their own values
    accepted = types + (int,) if float in types else types
    if isinstance(value, bool) or not isinstance(value, accepted):
        names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise ContractError(f"{prefix}config key {key!r} must be {names}, got {value!r}")


def _from_dict(cls, doc: dict, prefix: str = ""):
    """cls built from a JSON object over its fields; a field whose default
    is a dataclass is read the same way from a nested object, and every
    other value must be of its field's JSON type."""
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ContractError(f"unknown {prefix}config keys: {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = dict(doc)
    for key, value in doc.items():
        if dataclasses.is_dataclass(fields[key]):
            if not isinstance(value, dict):
                raise ContractError(f"config section {key!r} must be an object")
            kwargs[key] = _from_dict(type(fields[key]), value, f"{key} ")
        else:
            _check_type(key, value, hints[key], prefix)
    return cls(**kwargs)


def run_config_from_dict(doc) -> EvalConfig:
    from .evaluation import EvalConfig   # the training stack loads for grid runs only
    if not isinstance(doc, dict):
        raise ContractError("run config must be a JSON object")
    return _from_dict(EvalConfig, doc)


def read_json(path: str, error=DataError):
    """The JSON value file `path` holds; invalid JSON raises `error` naming it."""
    try:
        return json.loads(read_file(path))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc


def resolve_run_config(args) -> EvalConfig:
    """Defaults, overlaid by --config file, overlaid by explicit flags."""
    cfg = run_config_from_dict(read_json(args.config, ContractError)
                               if args.config else {})
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.jobs is not None:
        updates["jobs"] = args.jobs
    if args.model:
        updates["models"] = tuple(args.model)
    grid = {}   # applied in one replace, so only the final grid is validated
    if args.t is not None:
        grid.update(t_start=args.t, t_end=args.t)
    if args.t_start is not None:
        grid["t_start"] = args.t_start
    if args.t_end is not None:
        grid["t_end"] = args.t_end
    if args.dt is not None:
        grid.update(dt=args.dt, horizons=None)
    if args.horizon:
        grid["horizons"] = tuple(args.horizon)
    if grid:
        updates["grid"] = dataclasses.replace(cfg.grid, **grid)
    return dataclasses.replace(cfg, **updates) if updates else cfg


# ---------------------------------------------------------------- plumbing

def resolve_input(path: str) -> str:
    """Relative bundle and raw-data paths resolve against the default data
    directory; run outputs (checkpoints, report directories) never do."""
    base = os.environ.get(DATA_DIR_ENV, "")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def load_bundles(paths) -> list:
    return [load_bundle(resolve_input(p)) for p in paths]


def write_manifest(out_dir: str, command, config_doc: dict, seed, status: str,
                   extra: dict | None = None) -> None:
    doc = {
        "command": list(command),
        "config": config_doc,
        "config_hash": config_digest(config_doc),
        "seed": seed,
        "package_version": __version__,
        "bundle_format_version": BUNDLE_FORMAT_VERSION,
        "status": status,
        **(extra or {}),
    }
    write_file(os.path.join(out_dir, MANIFEST_NAME),
               json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _read_regions_file(path: str) -> list:
    lines = io.StringIO(read_file(path), newline=None)   # \n, \r\n or \r
    regions = {}   # ordered; blank and comment lines never enter
    for line_no, line in enumerate(lines, 1):
        region = line.strip()
        if region in regions:
            raise DataError(f"{path}:{line_no}: duplicate region id {region!r}")
        if region and not region.startswith("#"):
            regions[region] = None
    if not regions:
        raise DataError(f"{path}: no region ids")
    return list(regions)


# ---------------------------------------------------------------- commands

def cmd_ingest(args, argv) -> int:
    regions = _read_regions_file(resolve_input(args.regions_file))
    region_map = (load_region_map(resolve_input(args.region_map))
                  if args.region_map else None)
    mobility = load_mobility(resolve_input(args.mobility), regions, region_map)
    dates, matrix, stats = load_cases(resolve_input(args.cases), regions,
                                      region_map=region_map)
    dataset = align_and_filter(args.country, regions, mobility, dates, matrix,
                               min_total_cases=args.min_total_cases)
    save_bundle(dataset, args.out)
    config_doc = {"country": args.country, "cases": args.cases,
                  "mobility": args.mobility, "regions_file": args.regions_file,
                  "region_map": args.region_map,
                  "min_total_cases": args.min_total_cases}
    write_manifest(args.out, argv, config_doc, None, "complete", {
        "regions_kept": dataset.n, "days": dataset.t_total,
        "values_clamped": stats.clamped, "values_missing": stats.missing})
    print(f"wrote bundle {args.out}: {dataset.n} regions, "
          f"{dataset.t_total} days")
    return 0


def cmd_synth(args, argv) -> int:
    cfg = SyntheticConfig(n_regions=args.regions, n_days=args.days,
                          n_countries=args.countries, base_rate=args.base_rate,
                          self_loop_strength=args.self_loop,
                          underreporting=args.underreporting,
                          noise_seed=args.seed, jitter=not args.no_jitter)
    datasets = generate_synthetic(cfg)
    for ds in datasets:
        save_bundle(ds, os.path.join(args.out, ds.country))
    write_manifest(args.out, argv, dataclasses.asdict(cfg), args.seed,
                   "complete", {"countries": [ds.country for ds in datasets]})
    print(f"wrote {len(datasets)} synthetic bundles under {args.out}")
    return 0


def cmd_correlate(args, argv) -> int:
    if args.max_shift < 1:
        raise ContractError(f"--max-shift must be >= 1, got {args.max_shift}")
    datasets = load_bundles(args.bundle)
    for ds in datasets:   # the widest shift leaves two days to correlate
        if ds.t_total < args.max_shift + 2:
            raise ContractError(f"need more than {args.max_shift + 1} days for "
                                f"--max-shift {args.max_shift}; country "
                                f"{ds.country} has {ds.t_total}")
    shifts = tuple(range(1, args.max_shift + 1))
    correlations = []
    stats = []
    for ds in datasets:
        correlations.extend(correlation_table(ds, shifts=shifts))
        stats.extend(case_stats_table(ds))
    write_file(os.path.join(args.out, "correlations.csv"),
               "\n".join(correlation_lines(correlations)) + "\n")
    write_file(os.path.join(args.out, "case_stats.csv"),
               "\n".join(case_stat_lines(stats)) + "\n")
    config_doc = {"bundles": list(args.bundle), "max_shift": args.max_shift}
    write_manifest(args.out, argv, config_doc, None, "complete")
    print(f"wrote correlations for {len(datasets)} countries to {args.out}")
    return 0


def _grid_run(args, argv, checkpoint_dir, load_only=False) -> int:
    """Evaluate the configured grid; write the report and the manifest."""
    from .evaluation import rolling_evaluate
    cfg = resolve_run_config(args)
    datasets = load_bundles(args.bundle)
    make_dir(args.out)   # a bad path fails before any cell trains
    try:
        for name in ("rows.csv", "summary.json"):   # a failed run leaves no earlier report
            try:
                os.remove(os.path.join(args.out, name))
            except FileNotFoundError:
                pass
            except OSError as exc:
                raise WriteError(f"cannot remove {exc.filename}: {exc}") from exc
        cells = rolling_evaluate(datasets, cfg, checkpoint_dir, load_only)
        paths = emit_report(cells, args.out)
    except MobicastError as exc:
        write_manifest(args.out, argv, dataclasses.asdict(cfg), cfg.seed,
                       "failed", {"error": str(exc)})
        raise
    skipped = [cell for cell in cells if cell.reason is not None]
    rows = sum(len(cell.regions) for cell in cells)
    write_manifest(args.out, argv, dataclasses.asdict(cfg), cfg.seed,
                   "partial" if skipped else "complete",
                   {"rows": rows, "skipped_cells": len(skipped),
                    "countries": [ds.country for ds in datasets]})
    print(f"wrote {paths['rows']} ({rows} rows, {len(skipped)} skipped cells)")
    for cell in skipped:
        print(f"skipped {cell_label(cell.key)}: {cell.reason}", file=sys.stderr)
    return 1 if skipped else 0


def cmd_train(args, argv) -> int:
    return _grid_run(args, argv,
                     args.checkpoints or os.path.join(args.out, "checkpoints"))


def cmd_evaluate(args, argv) -> int:
    return _grid_run(args, argv, args.checkpoints, load_only=True)


def cmd_report(args, argv) -> int:
    if os.path.isdir(args.out):   # merging would overwrite an input's report and run.json
        for src in args.inputs:
            if os.path.isdir(src) and os.path.samefile(src, args.out):
                raise ContractError(f"--out {args.out} is the input directory {src}; "
                                    f"merge into another directory")
    merged = []
    owner = {}   # (country, model, T, j) -> the input that holds the cell
    for src in args.inputs:
        path = os.path.join(src, MANIFEST_NAME)   # an input without one is read as is
        manifest = read_json(path) if os.path.exists(path) else {}
        if not isinstance(manifest, dict):
            raise DataError(f"{path}: not a JSON object")
        if manifest.get("status") == "failed":
            raise DataError(f"{src}: its last command failed ({path}); not merged")
        cells = load_report_rows(os.path.join(src, "rows.csv"))
        keys = {cell.key for cell in cells}
        clash = min(keys & owner.keys(), default=None)
        if clash is not None:
            raise DataError(f"cell {cell_label(clash)} is in both {owner[clash]} and {src}")
        owner.update(dict.fromkeys(keys, src))
        merged.extend(cells)
    paths = emit_report(merged, args.out)
    write_manifest(args.out, argv, {"inputs": list(args.inputs)}, None, "complete", {
        "rows": sum(len(cell.regions) for cell in merged),
        "skipped_cells": sum(cell.reason is not None for cell in merged)})
    print(f"merged {len(args.inputs)} reports into {paths['rows']}")
    return 0


# ---------------------------------------------------------------- parser

def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE",
                   help="JSON run configuration (unknown keys rejected)")
    p.add_argument("--seed", type=int, default=None,
                   help="global seed (default 0)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for grid cells and meta-training "
                        "(default 1; never more than the tasks or CPUs)")
    p.add_argument("--model", action="append", metavar="NAME",
                   help="model to run, repeatable; one of "
                        + ", ".join(MODEL_NAMES))
    p.add_argument("--t", type=int, default=None,
                   help="single anchor day T")
    p.add_argument("--t-start", type=int, default=None,
                   help="first anchor day (default 14)")
    p.add_argument("--t-end", type=int, default=None,
                   help="last anchor day (default: data end)")
    p.add_argument("--dt", type=int, default=None,
                   help="forecast horizons 1..dt (default 14)")
    p.add_argument("--horizon", action="append", type=int, metavar="J",
                   help="explicit horizon, repeatable (overrides --dt)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobicast",
        description="Forecast daily epidemic case counts per region from "
                    "inter-region mobility graphs.",
        epilog=f"Relative bundle and raw-data paths resolve against "
               f"${DATA_DIR_ENV} when it is set; run outputs never do.")
    parser.add_argument("--version", action="version",
                        version=f"mobicast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("ingest", help="build a dataset bundle from raw CSVs")
    p.add_argument("--country", required=True)
    p.add_argument("--cases", required=True, metavar="CSV",
                   help="date,region,new_cases")
    p.add_argument("--mobility", required=True, metavar="CSV",
                   help="date[,time_of_day],origin,destination,count")
    p.add_argument("--regions-file", required=True, metavar="FILE",
                   help="region ids, one per line")
    p.add_argument("--region-map", metavar="CSV",
                   help="source_name,region_id renames")
    p.add_argument("--min-total-cases", type=int, default=10,
                   help="drop regions below this case total (default 10)")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("synth", help="generate seeded synthetic bundles")
    p.add_argument("--regions", type=int, default=30)
    p.add_argument("--days", type=int, default=90)
    p.add_argument("--countries", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base-rate", type=float, default=1.25)
    p.add_argument("--self-loop", type=float, default=3.0)
    p.add_argument("--underreporting", type=float, default=0.5)
    p.add_argument("--no-jitter", action="store_true")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("correlate",
                       help="mobility/case shift correlations and case stats")
    p.add_argument("--bundle", action="append", required=True, metavar="DIR")
    p.add_argument("--max-shift", type=int, default=14)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(handler=cmd_correlate)

    p = sub.add_parser("train",
                       help="train the grid, write checkpoints and a report")
    p.add_argument("--bundle", action="append", required=True, metavar="DIR")
    p.add_argument("--checkpoints", metavar="DIR",
                   help="checkpoint directory (default OUT/checkpoints)")
    p.add_argument("--out", required=True, metavar="DIR")
    _add_run_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate",
                       help="score the grid from the checkpoints a train "
                            "run wrote, training nothing",
                       description="Rescore the grid: every trainable cell "
                                   "loads its checkpoint from --checkpoints "
                                   "and nothing is trained or meta-trained.")
    p.add_argument("--bundle", action="append", required=True, metavar="DIR")
    p.add_argument("--checkpoints", required=True, metavar="DIR",
                   help="checkpoint directory of a train run")
    p.add_argument("--out", required=True, metavar="DIR")
    _add_run_flags(p)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("report", help="merge report directories into one")
    p.add_argument("inputs", nargs="+", metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    keep_heap_resident()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, argv)
    except MobicastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
