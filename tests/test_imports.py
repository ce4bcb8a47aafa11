"""Each command loads only what it runs.

hashlib loads OpenSSL's libcrypto (about 3.5 MB resident) where CPython's
built-in SHA-256 serves; concurrent.futures (which loads logging and
multiprocessing) serves only a pooled grid; logging serves only ingest's
reports; the training stack (the grid driver and the modules it imports)
serves only train and evaluate.  Two tests run commands in a fresh
interpreter and list what they loaded; the others parse src/mobicast/*.py
for the imports that would load these modules into every command.
"""

import ast
import glob
import json
import os
import subprocess
import sys

import numpy as np

from conftest import make_ramp_dataset
from mobicast.dataio import save_bundle
from mobicast.report import CellResult, emit_report

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
ON_DEMAND = ["_hashlib", "concurrent.futures", "multiprocessing", "logging"]
TRAINING_STACK = [f"mobicast.{name}" for name in (
    "evaluation", "meta", "models", "train", "tape", "layers", "optim", "params",
    "graphs", "baselines")]

# argv[1]: the module names to look for; argv[2]: the argvs to run in turn.
# Prints, after the import and after each command, its exit status and the
# names found in sys.modules.
PROBE = """
import json, sys
from mobicast import cli
names, argvs = json.loads(sys.argv[1]), json.loads(sys.argv[2])
loaded = lambda: [name for name in names if name in sys.modules]
steps = [["import", 0, loaded()]]
for argv in argvs:
    steps.append([argv[0], cli.main(argv), loaded()])
print(json.dumps(steps))
"""


def loaded_after(argvs, names=ON_DEMAND) -> list:
    """[step, exit status, which of `names` are loaded] after `import
    mobicast.cli`, then after each command of `argvs`, in one fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(names), json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_in_process_commands_load_no_pool_logging_or_openssl(tmp_path):
    bundle = str(tmp_path / "bundles" / "AA")
    save_bundle(make_ramp_dataset(n=2, days=18, country="AA"), bundle)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train": {"max_epochs": 1, "hidden": 2, "k_layers": 1,
                                            "d": 3, "dropout": 0.0}}))
    run, ckpt = str(tmp_path / "run"), str(tmp_path / "ckpt")
    grid = ["--bundle", bundle, "--model", "mpnn", "--model", "avg", "--t", "14",
            "--horizon", "1", "--jobs", "1", "--config", str(config)]
    steps = loaded_after([
        ["synth", "--regions", "3", "--days", "16", "--countries", "1",
         "--out", str(tmp_path / "synth")],
        ["train", *grid, "--checkpoints", ckpt, "--out", run],
        ["evaluate", *grid, "--checkpoints", ckpt, "--out", str(tmp_path / "eval")],
        ["report", run, "--out", str(tmp_path / "report")],
    ])
    assert steps == [[step, 0, []] for step in
                     ("import", "synth", "train", "evaluate", "report")]


def test_only_a_grid_run_loads_the_training_stack(tmp_path):
    synth, run = str(tmp_path / "synth"), str(tmp_path / "run")
    cell = CellResult("AA", "AVG", 14, 1, ("r0", "r1"), np.array([1.0, 2.0]),
                      np.array([1.5, 2.0]))
    os.makedirs(run)
    emit_report([cell], run)
    steps = loaded_after([
        ["synth", "--regions", "3", "--days", "16", "--countries", "1", "--out", synth],
        ["correlate", "--bundle", os.path.join(synth, "C0"), "--max-shift", "3",
         "--out", str(tmp_path / "corr")],
        ["report", run, "--out", str(tmp_path / "report")],
        ["train", "--bundle", os.path.join(synth, "C0"), "--model", "avg", "--t", "14",
         "--horizon", "1", "--out", str(tmp_path / "train")],
    ], TRAINING_STACK)
    assert steps == [[step, 0, []] for step in ("import", "synth", "correlate", "report")] + [
        ["train", 0, TRAINING_STACK]]


def import_sites(source: str) -> list:
    """(top-level package, inside a def, inside an `except ImportError`)
    for each module an import statement in `source` names; a relative
    import names "." and the module it imports from, if any (".tape")."""
    sites = []

    def visit(node, in_def, in_fallback):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                sites.extend((alias.name.split(".")[0], in_def, in_fallback)
                             for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                sites.append((child.module.split(".")[0] if child.level == 0
                              else "." + (child.module or ""),
                              in_def, in_fallback))
            visit(child,
                  in_def or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)),
                  in_fallback or (isinstance(child, ast.ExceptHandler)
                                  and child.type is not None
                                  and ast.unparse(child.type) == "ImportError"))

    visit(ast.parse(source), False, False)
    return sites


def package_import_sites() -> dict:
    sites = {}
    paths = sorted(glob.glob(os.path.join(SRC, "mobicast", "*.py")))
    assert len(paths) > 10
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sites[os.path.basename(path)[:-3]] = import_sites(fh.read())
    return sites


def test_import_sites_are_recognised():
    source = ("import os, concurrent.futures\n"
              "from . import tape\n"
              "from .report import emit_report\n"
              "try:\n    from _sha2 import sha256\n"
              "except ImportError:\n    from hashlib import sha256\n"
              "def f():\n    import logging\n"
              "    class C:\n        import json\n")
    assert import_sites(source) == [
        ("os", False, False), ("concurrent", False, False), (".", False, False),
        (".report", False, False),
        ("_sha2", False, False), ("hashlib", False, True),
        ("logging", True, False), ("json", True, False)]


def test_hashlib_is_only_a_fallback():
    # where CPython has no built-in _sha2 or _sha256, rng falls back to hashlib
    found = {module: [site for site in sites if site[0] == "hashlib" and not site[2]]
             for module, sites in package_import_sites().items()}
    assert {module: site for module, site in found.items() if site} == {}


def test_pool_and_logging_are_imported_where_used():
    found = {module: [name for name, in_def, _ in sites
                      if name in ("concurrent", "logging") and not in_def]
             for module, sites in package_import_sites().items()}
    assert {module: names for module, names in found.items() if names} == {}


def test_cli_imports_the_grid_driver_only_inside_functions():
    sites = [in_def for name, in_def, _ in package_import_sites()["cli"]
             if name == ".evaluation"]
    assert sites and all(sites)
