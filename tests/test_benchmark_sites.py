"""The benchmark tracer's lookup sites still exist in the package.

perfbench/tracer.py times each layer by patching the names its callers look
up (`evaluation.train_model`, `train.adam_step`, ...).  A span none of whose
sites exists records no calls, and its layer silently reads zero; this test
catches that without running the benchmark.
"""

import ast
import dataclasses
import glob
import importlib
import importlib.util
import inspect
import os
import pickle

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
    # traced_run_cell passes exactly one argument, the task
    assert len(parameter_names(evaluation._run_cell)) == 1
    assert parameter_names(tape.Tape.node)[:5] == ["self", "value", "parents",
                                                   "backward", "name"]
    assert callable(getattr(tape.Tape, "_push", None))
    # _after_cell reads the model name as args[2]
    assert parameter_names(evaluation.evaluate_cell)[2] == "model_name"
    # _after_train_model reads result.stopped_epoch
    assert "stopped_epoch" in {f.name for f in dataclasses.fields(train.Checkpoint)}
    # _after_save_params reads the file size of args[0]
    assert parameter_names(params.save_params)[0] == "path"


def test_pool_tasks_pickle_to_the_same_functions(monkeypatch):
    """A pooled task is (function, args), pickled by the function's name.
    It must resolve to the same function, also once the tracer has wrapped
    evaluation.evaluate_cell, or traced pooled runs stop counting cells."""
    from mobicast import evaluation

    task = ("AA", "MPNN", 14, 1)
    unit = ("AA", "AR", 14, (1, 3, 7))   # a baseline unit: every horizon of T=14

    def round_trip(obj):
        return pickle.loads(pickle.dumps(obj))

    assert round_trip((evaluation._meta_task, "AA")) == (evaluation._meta_task, "AA")
    assert round_trip((evaluation.evaluate_cell, task)) == (evaluation.evaluate_cell, task)
    assert round_trip((evaluation.evaluate_cell, unit)) == (evaluation.evaluate_cell, unit)
    tracer = TRACER.Tracer()
    wrapped = tracer.wrap("evaluation.evaluate_cell", evaluation.evaluate_cell,
                          tracer._after_cell)
    monkeypatch.setattr(evaluation, "evaluate_cell", wrapped)
    fn, args = round_trip((evaluation.evaluate_cell, task))
    assert fn is wrapped and args == task
    fn, args = round_trip((evaluation.evaluate_cell, unit))
    assert fn is wrapped and args == unit


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mobicast")


def names_country(node) -> bool:
    """Whether node is a name called country or target, or a .country
    attribute (a sample's .target is its case counts, not a country)."""
    return ((isinstance(node, ast.Name) and node.id in ("country", "target"))
            or (isinstance(node, ast.Attribute) and node.attr == "country"))


def country_comparison(node) -> str | None:
    """The source of `node` if it is an ==, !=, is or is not comparison
    with an operand that names a country (see names_country), else None."""
    if not (isinstance(node, ast.Compare) and all(
            isinstance(op, (ast.Eq, ast.NotEq, ast.Is, ast.IsNot)) for op in node.ops)):
        return None
    if not any(names_country(operand) for operand in (node.left, *node.comparators)):
        return None
    return ast.unparse(node)


def country_comparisons(source: str) -> list:
    """The qualified name of the def or class around each country comparison
    in `source`, "<module>" outside any."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if country_comparison(child) is not None:
                found.append(scope or "<module>")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return found


class TestOneForeignList:
    """_CellContext.foreign alone decides what a country transfers from."""

    def test_comparisons_are_recognised(self):
        assert country_comparison(ast.parse("a != country").body[0].value) == \
            "a != country"
        assert country_comparisons(
            "def f(d, target):\n    return [ds for c, ds in d if c != target]\n"
            "class C:\n    def g(self, ds):\n        return ds.country == 'AA'\n"
            "sum(ds.country is target for ds in x)\n") == ["f", "C.g", "<module>"]
        assert country_comparisons(
            "model == 'MPNN_TL'; country in seen; len(datasets) == 1; "
            "task[0] in metas; smp.target is None") == []

    def test_only_foreign_selects_other_countries(self):
        found = {}
        for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
            with open(path, encoding="utf-8") as fh:
                scopes = country_comparisons(fh.read())
            if scopes:
                found[os.path.basename(path)[:-3]] = scopes
        assert found == {"evaluation": ["_CellContext.foreign"]}
