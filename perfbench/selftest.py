#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy size (6 regions x 24 days, 1 epoch).

Usage, from the repository root:

    python3 perfbench/selftest.py

For every workload it runs the toy version of the workload through the same
code as perfbench/run.py and checks that:
- the --trace 0 result names every end-to-end metric of BENCHMARK.json with
  its unit, and the --trace 1 result every per-layer metric;
- BENCHMARK.json lists exactly the metrics and workloads the harness emits;
- every layer the workload lists records calls in its traced run;
- tracing overhead is measured against an untraced run with the same --jobs;
- counts repeat exactly between two traced runs, and the outputs pass the
  run's checks.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_units(doc: dict, wanted: dict, label: str) -> list:
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    if got != wanted:
        extra = sorted(set(got) - set(wanted))
        missing = sorted(set(wanted) - set(got))
        units = sorted(k for k in set(got) & set(wanted) if got[k] != wanted[k])
        return [f"{label}: missing {missing}, unexpected {extra}, "
                f"wrong units {units}"]
    return []


def check_workload(workload: run.Workload, bench: dict) -> list:
    toy = workload.toy()
    problems = []
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    doc, failed = run.benchmark(toy, 3, 0.0, trace=False)
    problems += [f"trace 0: {p}" for p in failed]
    problems += check_units(doc, e2e, "trace 0 metrics")
    doc, failed = run.benchmark(toy, 3, 0.0, trace=True)
    problems += [f"trace 1: {p}" for p in failed]
    problems += check_units(doc, layers, "trace 1 metrics")
    if "trace.overhead" not in doc["metrics"]:
        problems.append("no tracing overhead reported")

    where = os.path.join(run.WORK, "selftest", workload.name)
    shutil.rmtree(where, ignore_errors=True)
    bench_run = run.Run(toy, 4, where)
    results = [bench_run.repeat(tracing=t) for t in (False, True, True)]
    if None in results:
        return problems + bench_run.problems
    jobs = set()
    for tag in ("plain1", "traced2", "traced3"):
        with open(os.path.join(where, tag, "run.json"), encoding="utf-8") as fh:
            jobs.add(json.load(fh)["config"]["jobs"])
    if jobs != {workload.jobs}:
        problems.append(f"traced and untraced runs used --jobs {sorted(jobs)}, "
                        f"workload sets {workload.jobs}")
    trace, again = results[1][2], results[2][2]
    for layer in workload.layers:
        if trace["stats"].get(layer, [0])[0] == 0:
            problems.append(f"layer {layer} recorded no calls")
    first, second = run.layer_metrics(trace), run.layer_metrics(again)
    moved = [k for k in first if run.is_count(k) and first[k] != second[k]]
    if moved:
        problems.append(f"counts differ between traced runs: {moved}")
    shutil.rmtree(where, ignore_errors=True)
    return problems


def main() -> int:
    bench = spec()
    problems = []
    if ([(w["name"], w["why"]) for w in bench["workloads"]]
            != [(w.name, w.why) for w in run.WORKLOADS.values()]):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if ({m["name"]: m["unit"] for m in bench["end_to_end"]} != run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if ({m["name"]: m["unit"] for m in bench["per_layer"]}
            != run.per_layer_units()):
        problems.append("BENCHMARK.json per_layer differs from the harness")
    for workload in run.WORKLOADS.values():
        found = check_workload(workload, bench)
        problems += [f"{workload.name}: {p}" for p in found]
        print(f"selftest {workload.name}: {'ok' if not found else 'FAILED'}")
    for problem in problems:
        print(f"selftest failed: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
