"""Per-layer tracing of one mobicast CLI command, from outside the package.

Usage (from the repository root, with src/ on PYTHONPATH):

    python3 perfbench/tracer.py TRACE.json train --bundle ... --out ...

It wraps each layer's public functions where their callers look them up
(`evaluation.train_model`, `models.batchnorm`, `train.adam_step`,
`tape.matmul`, ...), runs `mobicast.cli.main` with the remaining arguments,
and writes the aggregated spans to TRACE.json.  Nothing under src/ changes.

A span records its duration and the part of it covered by child spans, so
each name gets a call count, a total time and a self time (total minus child
spans).  Spans are aggregated in memory as they close and written once, when
the command ends.  The backward closure handed to `Tape.node` is wrapped too,
so every tape op gets forward and backward time apart; cProfile cannot tell
them apart because every closure is called `backward`.

Grid cells that run in `--jobs N` worker processes are traced in the worker
(the pool forks, so the patches are inherited); each worker rewrites its
totals to TRACE.json.worker-<pid> after every cell, and the parent merges
those files when the command ends.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import importlib
import json
import os
import sys
import time

import numpy as np

# Ops the per-layer report names one by one; every other tape op is
# reported as "tape.other".
TAPE_OPS = ("matmul", "block_diag_matmul", "add", "mul", "add_row", "relu",
            "sigmoid", "tanh", "hconcat")
OTHER_TAPE_OPS = ("sub", "smul", "square", "mean_all")
# Tape node names created by composite layers rather than by tape ops.
LAYER_NODES = {"batchnorm": "layers.batchnorm", "dropout": "layers.dropout"}

# Span name -> the (module, attribute) places where callers look the
# function up.  A dotted attribute names a method on a class.
SPANS = {
    "dataio.load_bundle": [("cli", "load_bundle")],
    "graphs.assemble_samples": [("train", "assemble_samples"),
                                ("evaluation", "assemble_samples"),
                                ("meta", "assemble_samples")],
    "graphs.normalize_incoming": [("graphs", "normalize_incoming")],
    "layers.batchnorm.fwd": [("models", "batchnorm")],
    "layers.dropout.fwd": [("models", "dropout")],
    "models.lstm_cell": [("models", "lstm_cell")],
    "models.forward": [("models", "MPNNModel.forward"),
                       ("models", "MPNNLSTMModel.forward"),
                       ("models", "BaselineLSTMModel.forward")],
    "rng.random": [("rng", "Rng.random")],
    "rng.permutation": [("rng", "Rng.permutation")],
    "optim.adam_step": [("train", "adam_step")],
    "optim.sgd_step": [("meta", "sgd_step")],
    "train.make_splits": [("evaluation", "make_splits"),
                          ("meta", "make_splits")],
    "train.train_model": [("evaluation", "train_model"),
                          ("meta", "train_model")],
    "meta.maml_meta_train": [("evaluation", "maml_meta_train")],
    "meta.enumerate_tasks": [("meta", "enumerate_tasks")],
    "meta.tl_base_train": [("evaluation", "tl_base_train")],
    "baselines.ar_fit": [("evaluation", "ar_fit")],
    "baselines.ar_predict": [("evaluation", "ar_predict")],
    "params.save_params": [("train", "save_params"), ("meta", "save_params")],
    "params.load_params": [("train", "load_params"), ("meta", "load_params")],
    "evaluation.emit_report": [("cli", "emit_report")],
    "evaluation.evaluate_cell": [("evaluation", "evaluate_cell")],
    "tape.backward": [("tape", "Tape.backward")],
}
for _op in TAPE_OPS:
    SPANS[f"tape.{_op}.fwd"] = [("tape", _op)]
SPANS["tape.other.fwd"] = [("tape", op) for op in OTHER_TAPE_OPS]


COUNTERS = ("tape.nodes", "train.epochs", "meta.tasks",
            "params.save_params.bytes")


def backward_span(node_name: str) -> str:
    if node_name in LAYER_NODES:
        return LAYER_NODES[node_name] + ".bwd"
    if node_name in TAPE_OPS:
        return f"tape.{node_name}.bwd"
    return "tape.other.bwd"


class Tracer:
    """Aggregated spans of one process: per name [calls, total_s, self_s]."""

    def __init__(self):
        self.pid = os.getpid()
        self.stats = {}
        self.stack = []          # one [child_seconds] cell per open span
        self.cells = {}          # model name -> [seconds per cell]
        self.counters = {}
        self.digests = set()     # distinct normalize_incoming inputs
        self.reset()

    def reset(self):
        """Forget everything recorded; containers are cleared in place
        because the installed wrappers hold references to them."""
        self.stats.clear()
        self.stack.clear()
        self.cells.clear()
        self.digests.clear()
        self.counters.clear()
        self.counters.update(dict.fromkeys(COUNTERS, 0))
        self.covered = 0.0       # time inside top-level spans

    def wrap(self, name: str, fn, after=None):
        """Time every call of fn as span `name`; `after(args, result, dur)`
        runs outside the span and its time is charged to no span."""
        stats = self.stats
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.covered += dur
            if after is not None:
                t1 = clock()
                after(args, result, dur)
                if stack:
                    stack[-1][0] += clock() - t1
            return result

        return wrapper

    # ---- hooks that record counts where the work happens

    def _after_normalize(self, args, result, dur):
        m = np.ascontiguousarray(args[0], dtype=np.float64)
        self.digests.add(hashlib.blake2b(m, digest_size=16).hexdigest())

    def _after_train_model(self, args, result, dur):
        self.counters["train.epochs"] += int(result.stopped_epoch)

    def _after_enumerate_tasks(self, args, result, dur):
        self.counters["meta.tasks"] += len(result)

    def _after_save_params(self, args, result, dur):
        self.counters["params.save_params.bytes"] += os.path.getsize(args[0])

    def _after_cell(self, args, result, dur):
        self.cells.setdefault(args[2], []).append(dur)

    # ---- installation

    def install(self, out_path: str):
        """Patch every lookup site listed in SPANS; return the names of
        sites that no longer exist (their layer then reports zero calls)."""
        from mobicast import evaluation, tape

        hooks = {
            "graphs.normalize_incoming": self._after_normalize,
            "train.train_model": self._after_train_model,
            "meta.enumerate_tasks": self._after_enumerate_tasks,
            "params.save_params": self._after_save_params,
            "evaluation.evaluate_cell": self._after_cell,
        }
        missing = []
        for name, sites in SPANS.items():
            for module_name, attr in sites:
                owner = importlib.import_module(f"mobicast.{module_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                # vars() so a class patch never picks up an inherited method
                if owner is None or leaf not in vars(owner):
                    missing.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, leaf,
                        self.wrap(name, vars(owner)[leaf], hooks.get(name)))

        node = tape.Tape.node
        push = tape.Tape._push
        tracer = self

        @functools.wraps(node)
        def traced_node(self, value, parents, backward, name="node"):
            return node(self, value, parents,
                        tracer.wrap(backward_span(name), backward), name)

        @functools.wraps(push)
        def counted_push(self, *args):
            tracer.counters["tape.nodes"] += 1
            return push(self, *args)

        tape.Tape.node = traced_node
        tape.Tape._push = counted_push

        run_cell = evaluation._run_cell

        @functools.wraps(run_cell)
        def traced_run_cell(task):
            if os.getpid() != tracer.pid:   # first cell in a forked worker
                tracer.pid = os.getpid()
                tracer.reset()
            try:
                return run_cell(task)
            finally:
                tracer.write(f"{out_path}.worker-{tracer.pid}")

        evaluation._run_cell = traced_run_cell
        return missing

    # ---- output

    def snapshot(self) -> dict:
        return {"stats": self.stats, "cells": self.cells,
                "counters": self.counters, "digests": sorted(self.digests)}

    def write(self, path: str):
        write_json(path, self.snapshot())


def write_json(path: str, doc: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def merge(into: dict, part: dict) -> None:
    """Add one trace document's spans, cells, counters and digests to another."""
    for name, (calls, total, self_s) in part["stats"].items():
        rec = into["stats"].setdefault(name, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += total
        rec[2] += self_s
    for model, durations in part["cells"].items():
        into["cells"].setdefault(model, []).extend(durations)
    for key, value in part["counters"].items():
        into["counters"][key] = into["counters"].get(key, 0) + value
    into["digests"] = sorted(set(into["digests"]) | set(part["digests"]))


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE.json CLI-ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    for stale in glob.glob(f"{out_path}.worker-*"):
        os.remove(stale)
    tracer = Tracer()
    missing = tracer.install(out_path)
    from mobicast import cli

    t0 = time.perf_counter()
    code = cli.main(cli_args)
    wall = time.perf_counter() - t0
    doc = tracer.snapshot()
    for path in sorted(glob.glob(f"{out_path}.worker-*")):
        with open(path, encoding="utf-8") as fh:
            merge(doc, json.load(fh))
        os.remove(path)
    # Pool workers are not inside any parent span, so their time is not
    # subtracted: uncovered time includes the parent's wait for the pool.
    doc.update({"uncovered_s": wall - tracer.covered,
                "missing_sites": missing})
    write_json(out_path, doc)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
