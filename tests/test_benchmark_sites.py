"""The benchmark tracer's lookup sites still exist in the package.

perfbench/tracer.py times each layer by patching the names its callers look
up (`evaluation.train_model`, `train.adam_step`, ...).  A span none of whose
sites exists records no calls, and its layer silently reads zero; this test
catches that without running the benchmark.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)   # defines SPANS; patches nothing
    return tracer


def site_exists(module_name: str, attr: str) -> bool:
    """Resolve a site the way the tracer's install() does."""
    owner = importlib.import_module(f"mobicast.{module_name}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner is not None and leaf in vars(owner)


TRACER = load_tracer()


@pytest.mark.parametrize("span", sorted(TRACER.SPANS))
def test_every_span_resolves_to_a_package_attribute(span):
    sites = TRACER.SPANS[span]
    assert any(site_exists(module_name, attr) for module_name, attr in sites), \
        f"span {span!r}: none of {sites} exists"


def parameter_names(func) -> list:
    return list(inspect.signature(func).parameters)


def test_hooks_outside_spans_still_fit():
    """install() patches _run_cell, Tape.node and Tape._push outside SPANS,
    and its hooks read arguments by position and results by name; a rename
    breaks the trace, not the package."""
    from mobicast import evaluation, params, tape, train

    assert callable(getattr(evaluation, "_run_cell", None))
    assert parameter_names(tape.Tape.node)[:5] == ["self", "value", "parents",
                                                   "backward", "name"]
    assert callable(getattr(tape.Tape, "_push", None))
    # _after_cell reads the model name as args[2]
    assert parameter_names(evaluation.evaluate_cell)[2] == "model_name"
    # _after_train_model reads result.stopped_epoch
    assert "stopped_epoch" in {f.name for f in dataclasses.fields(train.Checkpoint)}
    # _after_save_params reads the file size of args[0]
    assert parameter_names(params.save_params)[0] == "path"
