#!/usr/bin/env python3
"""mobicast benchmark: seeded grid workloads run through the real CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload recurrent --seed 0 --seconds 30 --trace 0

Each workload synthesizes its country bundles from --seed, then repeats
`mobicast train` followed by `mobicast evaluate --checkpoints` (the rescore),
each in a fresh interpreter, for --seconds seconds.  With --trace 0 the last
stdout line reports the end-to-end metrics; with --trace 1 it reports the
per-layer metrics of traced runs (perfbench/tracer.py) alternated with
untraced runs of the same command, whose ratio is the tracing overhead.
Every run's outputs are checked; see perfbench/README.md for the checks,
metrics and workloads.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
sys.path.insert(0, BENCH_DIR)

from tracer import TAPE_OPS, merge  # noqa: E402

# Every timed process gets one BLAS thread: on 2 cores the default more than
# doubles meta-training CPU time, and `--jobs 2` would run 4 threads on 2 cores.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
MIN_REPEATS = 3          # untraced train+rescore repeats per --trace 0 run
# Set-up and rescore commands shorter than this run several times per
# repeat (at most 3), so their medians rest on more samples.
SHORT_COMMAND_S = 1.0
MIN_TRACE_PAIRS = 2      # (untraced, traced) pairs per --trace 1 run
RUN_LIMIT_S = 150.0      # stop repeating after this, whatever --seconds says
COMMAND_TIMEOUT_S = 160.0
# Canary predictions must match the stored reference rows this closely.
REFERENCE_ATOL = 1e-6
REFERENCE_RTOL = 1e-6
BASELINE_RTOL = 1e-9
D_WINDOW = 7             # TrainConfig.d default: AVG_WINDOW's window
ROWS_HEADER = "country,model,T,horizon,region,prediction,actual,abs_error"
ALL_MODELS = ("AVG", "AVG_WINDOW", "LAST_DAY", "AR", "LSTM", "MPNN",
              "MPNN_LSTM", "MPNN_TL", "TL_BASE")


# ---------------------------------------------------------------- workloads

@dataclasses.dataclass(frozen=True)
class Country:
    """One bundle: country C<index> of a `synth --countries index+1` call."""
    regions: int
    days: int
    stream: int          # offsets the synth seed so countries are independent
    index: int = 0

    @property
    def name(self) -> str:
        return f"C{self.index}"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    countries: tuple
    models: tuple
    t_start: int
    t_end: int
    horizons: tuple
    epochs: int
    jobs: int
    meta: dict
    layers: tuple        # spans that must record calls in the traced run

    def config(self, seed: int) -> dict:
        # max_epochs == patience_start_epoch: early stopping never fires,
        # so every cell runs exactly `epochs` epochs.
        doc = {"train": {"max_epochs": self.epochs,
                         "patience_start_epoch": self.epochs},
               "grid": {"t_start": self.t_start, "t_end": self.t_end,
                        "horizons": list(self.horizons)},
               "models": list(self.models), "seed": seed, "jobs": self.jobs}
        if self.meta:
            doc["meta"] = dict(self.meta)
        return doc

    def cells(self, country: Country) -> list:
        last = min(self.t_end, country.days - 1)
        return [(m, t, j) for m in self.models
                for t in range(self.t_start, last + 1)
                for j in self.horizons if t + j <= country.days]

    def toy(self) -> "Workload":
        """The same models and layers at 6 regions x 24 days, 1 epoch."""
        countries = tuple(dataclasses.replace(c, regions=6 + 2 * k, days=24)
                          for k, c in enumerate(self.countries))
        return dataclasses.replace(self, countries=countries, t_start=20,
                                   t_end=21, horizons=(1, 3), epochs=1)


_NEURAL = ("dataio.load_bundle", "graphs.assemble_samples",
           "graphs.normalize_incoming", "models.forward", "rng.random",
           "rng.permutation", "optim.adam_step", "train.make_splits",
           "train.train_model", "params.save_params", "params.load_params",
           "evaluation.emit_report", "evaluation.evaluate_cell",
           "tape.backward", "tape.matmul.fwd", "tape.matmul.bwd",
           "tape.add_row.fwd", "tape.add_row.bwd", "tape.relu.fwd",
           "tape.relu.bwd", "tape.other.fwd", "tape.other.bwd")
_GRAPH = ("tape.block_diag_matmul.fwd", "tape.block_diag_matmul.bwd",
          "tape.hconcat.fwd", "tape.hconcat.bwd", "layers.batchnorm.fwd",
          "layers.batchnorm.bwd", "layers.dropout.fwd", "layers.dropout.bwd")
_RECURRENT = ("models.lstm_cell", "tape.sigmoid.fwd", "tape.sigmoid.bwd",
              "tape.tanh.fwd", "tape.tanh.bwd", "tape.mul.fwd",
              "tape.mul.bwd", "tape.add.fwd", "tape.add.bwd")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="recurrent",
        why="LSTM and MPNN_LSTM cells: time goes to the recurrent inner "
            "loop (sigmoid, tanh, gate matmuls); almost no meta, baseline, "
            "checkpoint or report work",
        countries=(Country(30, 60, 0),),
        models=("LSTM", "MPNN_LSTM"), t_start=40, t_end=40, horizons=(1, 7),
        epochs=4, jobs=1, meta={},
        layers=_NEURAL + _GRAPH + _RECURRENT),
    Workload(
        name="transfer",
        why="two countries of 30 and 40 regions: serial meta-training for "
            "MPNN_TL, mixed-n TL_BASE batches, the process pool; no LSTM",
        countries=(Country(30, 60, 0), Country(40, 60, 1, index=1)),
        models=("MPNN_TL", "TL_BASE", "MPNN"), t_start=40, t_end=40,
        horizons=(1, 7), epochs=4, jobs=2, meta={"dt": 2},
        layers=_NEURAL + _GRAPH + ("meta.maml_meta_train",
                                   "meta.enumerate_tasks", "meta.tl_base_train",
                                   "optim.sgd_step")),
    Workload(
        name="sweep",
        why="one 100-region country, MPNN plus four baselines over many "
            "cells at 2 epochs: per-cell overhead (splits, checkpoints, AR "
            "fits, report, bundle parse)",
        countries=(Country(100, 60, 0),),
        models=("MPNN", "AVG", "AVG_WINDOW", "LAST_DAY", "AR"), t_start=40,
        t_end=47, horizons=(1, 3, 7), epochs=2, jobs=1, meta={},
        layers=_NEURAL + _GRAPH + ("baselines.ar_fit", "baselines.ar_predict")),
)}


# ---------------------------------------------------------------- metrics

END_TO_END = {"setup_s": "s", "train_s": "s", "train_cpu_s": "s",
              "peak_rss_mb": "MB", "rescore_s": "s"}

# Span -> the per-layer metrics reported for it.
SPAN_METRICS = {
    "dataio.load_bundle": ("s", "self_s", "calls"),
    "graphs.assemble_samples": ("s", "self_s", "calls"),
    "graphs.normalize_incoming": ("s", "self_s", "calls"),
    "models.lstm_cell": ("s", "self_s", "calls"),
    "models.forward": ("s", "self_s"),
    "rng.random": ("s", "self_s", "calls"),
    "rng.permutation": ("s", "self_s"),
    "optim.adam_step": ("s", "self_s", "calls"),
    "optim.sgd_step": ("s", "self_s", "calls"),
    "train.make_splits": ("s", "self_s"),
    "train.train_model": ("s", "self_s", "calls"),
    "meta.maml_meta_train": ("s", "self_s", "calls"),
    "meta.enumerate_tasks": ("s", "self_s"),
    "meta.tl_base_train": ("s", "self_s"),
    "baselines.ar_fit": ("s", "self_s", "calls"),
    "baselines.ar_predict": ("s", "self_s"),
    "params.save_params": ("s", "self_s", "calls"),
    "params.load_params": ("s", "self_s", "calls"),
    "evaluation.emit_report": ("s", "self_s"),
}
OP_LAYERS = tuple(f"tape.{op}" for op in TAPE_OPS) + (
    "tape.other", "layers.batchnorm", "layers.dropout")
COUNTS = ("tape.nodes", "train.epochs", "meta.tasks",
          "params.save_params.bytes")


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for span, kinds in SPAN_METRICS.items():
        for kind in kinds:
            units[f"{span}.{kind}"] = "count" if kind == "calls" else "s"
    units["graphs.normalize_incoming.unique_ratio"] = "ratio"
    for layer in OP_LAYERS:
        units[f"{layer}.fwd_s"] = "s"
        units[f"{layer}.bwd_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units["tape.backward.self_s"] = "s"
    for name in COUNTS:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    for model in ALL_MODELS:
        units[f"evaluation.cell_s.{model}.p50"] = "s"
        units[f"evaluation.cell_s.{model}.tail"] = "s"
        units[f"evaluation.cell_s.{model}.n"] = "count"
    units["evaluation.uncovered_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def is_count(name: str) -> bool:
    """Per-layer metrics that must repeat exactly between traced runs."""
    return (name.endswith((".calls", ".n", ".unique_ratio"))
            or name in COUNTS)


def tail_rank(n: int):
    """Highest whole percentile with at least 10 cells beyond it (or None)."""
    q = math.floor(100 * (1 - 10 / n)) if n else 0
    return q if q >= 50 else None


def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(trace: dict) -> dict:
    """Per-layer metric values of one traced train + rescore."""
    stats = trace["stats"]
    out = {}

    def span(name):
        return stats.get(name, [0, 0.0, 0.0])

    for name, kinds in SPAN_METRICS.items():
        calls, total, self_s = span(name)
        values = {"s": total, "self_s": self_s, "calls": calls}
        for kind in kinds:
            out[f"{name}.{kind}"] = values[kind]
    calls = span("graphs.normalize_incoming")[0]
    out["graphs.normalize_incoming.unique_ratio"] = (
        len(trace["digests"]) / calls if calls else 0.0)
    for layer in OP_LAYERS:
        fwd, bwd = span(f"{layer}.fwd"), span(f"{layer}.bwd")
        out[f"{layer}.fwd_s"] = fwd[1]
        out[f"{layer}.bwd_s"] = bwd[1]
        out[f"{layer}.calls"] = fwd[0]
    out["tape.backward.self_s"] = span("tape.backward")[2]
    for name in COUNTS:
        out[name] = trace["counters"].get(name, 0)
    for model in ALL_MODELS:
        durations = trace["cells"].get(model, [])
        q = tail_rank(len(durations))
        out[f"evaluation.cell_s.{model}.p50"] = (
            statistics.median(durations) if durations else 0.0)
        out[f"evaluation.cell_s.{model}.tail"] = (
            percentile(durations, q) if q else 0.0)
        out[f"evaluation.cell_s.{model}.n"] = len(durations)
    out["evaluation.uncovered_s"] = trace["uncovered_s"]
    return out


# ---------------------------------------------------------------- processes

@dataclasses.dataclass
class Timed:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "MOBICAST_DATA")}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    return env


def run_timed(argv: list, log_path: str) -> Timed:
    """Run one command in a fresh process group; wall, CPU and peak RSS come
    from os.wait4, which folds in every descendant the command reaped."""
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    # Reaped by wait4 above; tell Popen so it never waits on the pid again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:   # stop anything the command left behind in its group
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return Timed(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def cli(*args) -> list:
    return [sys.executable, "-m", "mobicast.cli", *args]


def traced(trace_path: str, *args) -> list:
    return [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), trace_path,
            *args]


# ---------------------------------------------------------------- inputs

def make_inputs(workload: Workload, seed: int, where: str) -> list:
    """Synthesize each country's bundle; returns the bundle directories."""
    bundles = []
    for country in workload.countries:
        out = os.path.join(where, f"synth{country.stream}")
        res = run_timed(cli("synth", "--regions", str(country.regions),
                            "--days", str(country.days),
                            "--countries", str(country.index + 1),
                            "--seed", str(seed + 1000 * country.stream),
                            "--out", out), out + ".log")
        if res.code != 0:
            raise SystemExit(f"synth failed; see {out}.log")
        bundles.append(os.path.join(out, country.name))
    return bundles


def read_cases(bundle: str) -> dict:
    """(region, 1-based day) -> cases, parsed from the bundle's cases.csv."""
    with open(os.path.join(bundle, "manifest.json"), encoding="utf-8") as fh:
        dates = json.load(fh)["dates"]
    day_of = {d: k + 1 for k, d in enumerate(dates)}
    with open(os.path.join(bundle, "cases.csv"), newline="",
              encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {(region, day_of[date]): float(value)
                for date, region, value in reader}


# ---------------------------------------------------------------- checks

def parse_rows(path: str):
    """(skip lines, rows) of a rows.csv; rows are split string lists."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    skips = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body or body[0] != ROWS_HEADER:
        raise ValueError(f"{path}: not a rows.csv report")
    return skips, [ln.split(",") for ln in body[1:]]


def baseline_reference(model: str, cases: dict, region: str, t: int) -> float:
    history = [cases[(region, day)] for day in range(1, t + 1)]
    if model == "AVG":
        return sum(history) / len(history)
    if model == "AVG_WINDOW":
        window = history[-D_WINDOW:]
        return sum(window) / len(window)
    return history[-1]


def check_report(out_dir: str, workload: Workload, cases: list) -> list:
    """Problems with one train output; an empty list means it passed."""
    problems = []
    with open(os.path.join(out_dir, "run.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("status") != "complete":
        problems.append(f"run.json status {manifest.get('status')!r}")
    skips, rows = parse_rows(os.path.join(out_dir, "rows.csv"))
    if skips:
        problems.append(f"{len(skips)} skipped cells: {skips[0]}")
    expected = sum(len(workload.cells(c)) * c.regions
                   for c in workload.countries)
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    by_country = {c.name: k for k, c in enumerate(workload.countries)}
    for row in rows:
        country, model, t, j, region, pred, actual = row[:7]
        k = by_country.get(country)
        if k is None:
            problems.append(f"row for unknown country {country}")
            break
        t, j, pred = int(t), int(j), float(pred)
        if float(actual) != cases[k][(region, t + j)]:
            problems.append(f"actual mismatch at {row[:5]}")
            break
        if not math.isfinite(pred) or pred < 0:
            problems.append(f"bad prediction {pred} at {row[:5]}")
            break
        if model in ("AVG", "AVG_WINDOW", "LAST_DAY"):
            ref = baseline_reference(model, cases[k], region, t)
            if abs(pred - ref) > BASELINE_RTOL * max(1.0, abs(ref)):
                problems.append(f"{model} prediction {pred} != {ref} at "
                                f"{row[:5]}")
                break
    return problems


def check_reference(out_dir: str, reference_path: str) -> list:
    """Canary predictions within tolerance of the stored reference rows."""
    _, got = parse_rows(os.path.join(out_dir, "rows.csv"))
    _, want = parse_rows(reference_path)
    if [r[:5] + r[6:7] for r in got] != [r[:5] + r[6:7] for r in want]:
        return ["canary rows differ from the reference in keys or actuals"]
    worst = max(abs(float(g[5]) - float(w[5]))
                - REFERENCE_RTOL * abs(float(w[5])) for g, w in zip(got, want))
    if worst > REFERENCE_ATOL:
        return [f"canary predictions differ from the reference by "
                f"{worst:.3e} beyond tolerance"]
    return []


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


# ---------------------------------------------------------------- runner

class Run:
    """One benchmark invocation: inputs, canary, set-up, timed repeats."""

    def __init__(self, workload: Workload, seed: int, where: str):
        self.workload = workload
        self.where = where
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.sha = None
        self.cells_per_command = sum(len(workload.cells(c))
                                     for c in workload.countries)
        os.makedirs(where, exist_ok=True)
        self.bundles = make_inputs(workload, seed, where)
        self.cases = [read_cases(b) for b in self.bundles]
        self.config = os.path.join(where, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(workload.config(seed), fh)
        self.repeats = 0

    def bundle_args(self) -> list:
        return [arg for b in self.bundles for arg in ("--bundle", b)]

    def fail(self, problem: str, cells: int) -> None:
        self.problems.append(problem)
        self.failed += cells

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter importing the CLI and loading
        the workload's bundles."""
        code = "import sys\nfrom mobicast import cli\ncli.load_bundles(sys.argv[1:])"
        res = run_timed([sys.executable, "-c", code, *self.bundles],
                        os.path.join(self.where, "setup.log"))
        if res.code != 0:
            raise SystemExit("set-up failed: cannot load the bundles")
        return res.wall_s

    def repeat(self, tracing: bool, rescores: int = 1):
        """train once, then rescore its checkpoints `rescores` times;
        returns (train, [rescore, ...], trace) with trace None when
        untraced, or None when a check failed."""
        self.repeats += 1
        tag = f"{'traced' if tracing else 'plain'}{self.repeats}"
        out = os.path.join(self.where, tag)
        shutil.rmtree(out, ignore_errors=True)
        common = [*self.bundle_args(), "--config", self.config]
        train_args = ["train", *common, "--out", out]
        cells = self.cells_per_command
        self.attempted += cells
        train = run_timed(traced(out + ".trace.json", *train_args) if tracing
                          else cli(*train_args), out + ".log")
        if train.code != 0:
            self.fail(f"{tag}: train exited {train.code}; see {out}.log",
                      cells)
            return None
        try:
            problems = check_report(out, self.workload, self.cases)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.fail(f"{tag}: " + "; ".join(problems), cells)
            return None
        rows = os.path.join(out, "rows.csv")
        digest = sha256(rows)
        if self.sha is None:
            self.sha = digest
        elif digest != self.sha:
            # Also covers traced rows: they must equal the untraced ones.
            self.fail(f"{tag}: rows.csv sha256 {digest} differs from the "
                      f"first repeat's {self.sha}", cells)
            return None
        timed_rescores = []
        for k in range(rescores):
            rescored = f"{out}-rescore{k}"
            shutil.rmtree(rescored, ignore_errors=True)
            rescore_args = ["evaluate", *common, "--out", rescored,
                            "--checkpoints", os.path.join(out, "checkpoints")]
            self.attempted += cells
            rescore = run_timed(
                traced(rescored + ".trace.json", *rescore_args) if tracing
                else cli(*rescore_args), rescored + ".log")
            if rescore.code != 0:
                self.fail(f"{tag}: rescore exited {rescore.code}; see "
                          f"{rescored}.log", cells)
                return None
            if not same_bytes(rows, os.path.join(rescored, "rows.csv")):
                self.fail(f"{tag}: rescored rows.csv differs from trained "
                          f"rows", cells)
                return None
            timed_rescores.append(rescore)
        trace = None
        if tracing:
            trace = {"stats": {}, "cells": {}, "counters": {}, "digests": [],
                     "uncovered_s": 0.0}
            for path in (out + ".trace.json", f"{out}-rescore0.trace.json"):
                with open(path, encoding="utf-8") as fh:
                    part = json.load(fh)
                merge(trace, part)
                trace["uncovered_s"] += part["uncovered_s"]
                if part["missing_sites"]:
                    print(f"note: tracer found no {part['missing_sites']}")
        shutil.rmtree(os.path.join(out, "checkpoints"), ignore_errors=True)
        return train, timed_rescores, trace

    def canary(self) -> None:
        """Toy-size run at seed 0 compared with the stored reference rows."""
        toy = self.workload.toy()
        ref = os.path.join(REFERENCE_DIR, f"{self.workload.name}.csv")
        where = os.path.join(self.where, "canary")
        run = Run(toy, 0, where)
        result = run.repeat(tracing=False)
        self.attempted += run.attempted
        self.failed += run.failed
        self.problems.extend(f"canary {p}" for p in run.problems)
        if result is not None:
            problems = check_reference(os.path.join(where, "plain1"), ref)
            if problems:
                self.fail("; ".join(problems), run.cells_per_command)


def runs_per_repeat(seconds: float) -> int:
    return max(1, min(3, round(SHORT_COMMAND_S / seconds)))


def quartiles(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.4f} q3={q3:.4f} n={len(values)}"


def machine_line() -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; the line is informative
        blas = "unknown"
    pins = " ".join(f"{k}={v}" for k, v in THREAD_PINS.items())
    return (f"machine: nproc={os.cpu_count()} "
            f"python={sys.version.split()[0]} numpy={numpy.__version__} "
            f"blas={blas} {pins}")


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool):
    """Returns (result document, problems)."""
    started = time.perf_counter()
    where = os.path.join(WORK, workload.name)
    shutil.rmtree(where, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    run = Run(workload, seed, where)
    run.canary()
    metrics = {}
    deadline = time.perf_counter() + seconds
    limit = started + RUN_LIMIT_S

    def more(done: int, minimum: int, step_s: list) -> bool:
        if run.problems:
            return False
        now = time.perf_counter()
        if done < minimum:
            return now < limit
        return now + statistics.median(step_s) <= min(deadline, limit)

    if not trace:
        setup, trains, rescores, steps = [], [], [], []
        setup_runs = rescore_runs = 1
        while more(len(trains), MIN_REPEATS, steps):
            t0 = time.perf_counter()
            # set-up samples are spread over the run like the other metrics
            setup.extend(run.setup_time() for _ in range(setup_runs))
            got = run.repeat(tracing=False, rescores=rescore_runs)
            if got is None:
                break
            trains.append(got[0])
            rescores.extend(got[1])
            steps.append(time.perf_counter() - t0)
            setup_runs = runs_per_repeat(statistics.median(setup))
            rescore_runs = runs_per_repeat(
                statistics.median(r.wall_s for r in rescores))
        values = {"setup_s": setup,
                  "train_s": [t.wall_s for t in trains],
                  "train_cpu_s": [t.cpu_s for t in trains],
                  "peak_rss_mb": [t.maxrss_mb for t in trains],
                  "rescore_s": [r.wall_s for r in rescores]}
        for name, unit in END_TO_END.items():
            if values[name]:
                metrics[name] = {"value": statistics.median(values[name]),
                                 "unit": unit}
                print(f"{name} {metrics[name]['value']:.4f} {unit} "
                      f"({quartiles(values[name])})")
    else:
        plain, traced_runs, steps = [], [], []
        while more(len(traced_runs), MIN_TRACE_PAIRS, steps):
            t0 = time.perf_counter()
            base = run.repeat(tracing=False)
            got = base and run.repeat(tracing=True)
            if got is None:
                break
            plain.append(base[0].wall_s + base[1][0].wall_s)
            traced_runs.append((got[0].wall_s + got[1][0].wall_s,
                                layer_metrics(got[2])))
            steps.append(time.perf_counter() - t0)
        if traced_runs:
            first = traced_runs[0][1]
            for _, other in traced_runs[1:]:
                moved = [k for k in first if is_count(k) and first[k] != other[k]]
                if moved:
                    run.fail(f"counts differ between traced runs: {moved}",
                             run.cells_per_command)
            traced_wall = statistics.median(w for w, _ in traced_runs)
            for name, unit in per_layer_units().items():
                if name == "trace.wall_s":
                    value = traced_wall
                elif name == "trace.overhead":
                    value = traced_wall / statistics.median(plain) - 1.0
                elif is_count(name):
                    value = first[name]
                else:
                    value = statistics.median(m[name] for _, m in traced_runs)
                metrics[name] = {"value": value, "unit": unit}
                print(f"{name} {value:.6g} {unit}")
            print(f"traced wall {traced_wall:.3f} s "
                  f"vs untraced {statistics.median(plain):.3f} s, same --jobs "
                  f"{workload.jobs} ({len(traced_runs)} pairs)")
    if run.sha:
        print(f"rows_sha256 {run.sha}")
    print(machine_line())
    for problem in run.problems:
        print(f"check failed: {problem}")
    attempted = max(run.attempted, 1)
    print(f"failed_share {run.failed / attempted:.4f} ratio "
          f"({run.failed} of {attempted} cells)")
    doc = {"correct": not run.problems, "attempted": attempted,
           "failed": run.failed, "metrics": metrics}
    if not run.problems:
        shutil.rmtree(where, ignore_errors=True)
    return doc, run.problems


def write_reference(workload: Workload) -> None:
    """Store the toy canary's rows.csv as the workload's reference rows."""
    where = os.path.join(WORK, workload.name, "reference")
    shutil.rmtree(where, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    run = Run(workload.toy(), 0, where)
    if run.repeat(tracing=False) is None:
        raise SystemExit("; ".join(run.problems))
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    shutil.copyfile(os.path.join(where, "plain1", "rows.csv"),
                    os.path.join(REFERENCE_DIR, f"{workload.name}.csv"))
    shutil.rmtree(where, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the workload's canary reference rows")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mobicast", "cli.py")):
        print(f"error: no mobicast sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.write_reference:
        write_reference(workload)
        return 0
    doc, problems = benchmark(workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(doc, sort_keys=True))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
