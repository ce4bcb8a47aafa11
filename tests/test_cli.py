"""Command-line surface: config resolution, subcommands, manifests, exits."""

import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tomllib
from types import SimpleNamespace

import numpy as np
import pytest

from mobicast import __version__, cli, evaluation
from mobicast.baselines import last_day_predict
from mobicast.cli import config_digest, main, run_config_from_dict
from mobicast.dataio import CountryDataset, load_bundle, save_bundle
from mobicast.errors import ContractError
from mobicast.params import load_params, save_params
from mobicast.evaluation import EvalConfig, ProtocolGrid
from mobicast.report import load_report_rows, range_summary

from conftest import (diverge_at, make_ramp_dataset, report_rows,
                      save_regionless_bundle, scored, skips)

TINY_CONFIG = {
    "train": {"max_epochs": 1, "hidden": 2, "k_layers": 1, "d": 3,
              "dropout": 0.0, "seq_len": 4},
    "meta": {"dt": 1},
}


def write_config(tmp_path, extra=None, name="cfg.json"):
    doc = dict(TINY_CONFIG)
    if extra:
        doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def make_bundle(tmp_path, country="AA", n=2, days=18, seed=0):
    ds = make_ramp_dataset(n=n, days=days, country=country, seed=seed)
    path = str(tmp_path / "bundles" / country)
    save_bundle(ds, path)
    return path, ds


def read_tree(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def cell_kind(path):
    """The `kind` a checkpoint file's header records."""
    return load_params(str(path))[2]["kind"]


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "run.json"), encoding="utf-8") as fh:
        return json.load(fh)


class TestRunConfig:
    def test_empty_document_gives_defaults(self):
        assert run_config_from_dict({}) == EvalConfig()

    def test_round_trips_through_dict(self):
        cfg = run_config_from_dict({
            "seed": 7, "jobs": 2, "models": ["avg", "MPNN"],
            "grid": {"t_start": 15, "t_end": 20, "dt": 3},
            "train": {"hidden": 8}, "meta": {"inner_lr": 0.01},
        })
        assert cfg.models == ("AVG", "MPNN")
        assert cfg.grid == ProtocolGrid(t_start=15, t_end=20, dt=3)
        assert cfg.train.hidden == 8 and cfg.meta.inner_lr == 0.01
        doc = json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert run_config_from_dict(doc) == cfg

    @pytest.mark.parametrize("section,key", [("train", "seed"), ("meta", "seed"),
                                             ("meta", "d")])
    def test_keys_the_grid_sets_rejected(self, section, key):
        # the cell seed, meta seed and meta feature window derive from the
        # top-level seed and train.d; a config setting them is an error
        with pytest.raises(ContractError,
                           match=f"unknown {section} config keys: {key}"):
            run_config_from_dict({section: {key: 3}})
        assert key not in dataclasses.asdict(EvalConfig())[section]

    def test_unknown_keys_rejected_at_every_level(self):
        with pytest.raises(ContractError, match="unknown config keys: frobnicate"):
            run_config_from_dict({"frobnicate": 1})
        with pytest.raises(ContractError, match="unknown train config keys"):
            run_config_from_dict({"train": {"hiden": 8}})
        with pytest.raises(ContractError, match="unknown meta config keys"):
            run_config_from_dict({"meta": {"alpha": 0.1}})
        with pytest.raises(ContractError, match="unknown grid config keys"):
            run_config_from_dict({"grid": {"start": 14}})

    def test_malformed_documents_rejected(self):
        with pytest.raises(ContractError, match="^run config must be a JSON object$"):
            run_config_from_dict([])
        for section in ("train", "meta", "grid"):
            with pytest.raises(ContractError, match=f"^config section '{section}' "
                                                    f"must be an object$"):
                run_config_from_dict({section: [1]})
        with pytest.raises(ContractError,
                           match="^config key 'models' must be a list of names$"):
            run_config_from_dict({"models": "MPNN"})

    WRONG_TYPES = [
        ({"jobs": "2"}, "config key 'jobs' must be int, got '2'"),
        ({"seed": "a"}, "config key 'seed' must be int, got 'a'"),
        ({"jobs": True}, "config key 'jobs' must be int, got True"),
        ({"train": {"max_epochs": "3"}},
         "train config key 'max_epochs' must be int, got '3'"),
        ({"train": {"dropout": None}},
         "train config key 'dropout' must be float, got None"),
        ({"train": {"feature_mode": 1}},
         "train config key 'feature_mode' must be str, got 1"),
        ({"grid": {"t_end": "20"}},
         "grid config key 't_end' must be int or null, got '20'"),
        ({"grid": {"horizons": 5}}, "horizons must be a list of integers"),
        ({"grid": {"horizons": ["a"]}}, "horizons must be a list of integers"),
    ]

    def test_values_checked_against_field_types(self):
        for doc, message in self.WRONG_TYPES:
            with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
                run_config_from_dict(doc)
        # an int fits a float key, and null an Optional one
        cfg = run_config_from_dict({"meta": {"inner_lr": 0},
                                    "grid": {"t_end": None}})
        assert cfg.meta.inner_lr == 0 and cfg.grid.t_end is None

    def test_bad_model_name_rejected(self):
        with pytest.raises(ContractError, match="unknown model 'PROPHET'"):
            run_config_from_dict({"models": ["prophet"]})

    def test_repeated_model_name_rejected(self):
        with pytest.raises(ContractError, match="^models must be distinct$"):
            run_config_from_dict({"models": ["avg", "AVG"]})

    def test_bad_feature_mode_rejected(self):
        # checked at load time, not at the first MPNN_LSTM cell of a grid
        with pytest.raises(ContractError,
                           match="^feature_mode must be 'last' or 'all', got 'x'$"):
            run_config_from_dict({"train": {"feature_mode": "x"}})

    def test_horizon_list_becomes_sorted_tuple(self):
        cfg = run_config_from_dict({"grid": {"horizons": [5, 1]}})
        assert cfg.grid.horizons == (1, 5)

    def test_digest_is_order_insensitive_and_seed_sensitive(self):
        a = dataclasses.asdict(EvalConfig(seed=1))
        b = json.loads(json.dumps(a))
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(dataclasses.asdict(EvalConfig(seed=2)))

    @pytest.mark.parametrize("doc,digest", [
        ({}, "4c0c16d918b34fe52b46baf24052a19e5e948c05df358219ff142e911954aa58"),
        ({"train": {"max_epochs": 4, "patience_start_epoch": 4},
          "grid": {"t_start": 40, "t_end": 40, "horizons": [7, 1]},
          "models": ["MPNN_TL", "TL_BASE", "MPNN"], "meta": {"dt": 2},
          "seed": 7, "jobs": 2},
         "2b908fbc7108684dcbaa1810dfb9c797386ac081df47707162c04e72cafce0c1"),
    ], ids=["defaults", "transfer"])
    def test_digest_pinned(self, doc, digest):
        # run.json's config_hash of these documents, as written before the
        # config schema was derived from the dataclasses
        assert config_digest(dataclasses.asdict(run_config_from_dict(doc))) == digest

    def test_digest_is_sha256_of_the_canonical_json(self):
        doc = {"seed": 7, "models": ["MPNN", "AVG"], "train": {"hidden": 8, "lr": 0.01},
               "grid": {"horizons": [7, 1]}, "note": "r\u00e9gion"}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert config_digest(doc) == hashlib.sha256(blob).hexdigest()

    @pytest.mark.parametrize("flags,grid", [
        (["--t-start", "30", "--t-end", "40"],
         ProtocolGrid(t_start=30, t_end=40, horizons=(2,))),
        (["--t", "16", "--t-end", "18", "--dt", "3"], ProtocolGrid(16, 18, dt=3)),
        (["--t-start", "15", "--dt", "3", "--horizon", "5"],
         ProtocolGrid(15, 20, dt=3, horizons=(5,))),
    ], ids=["past-file-t-end", "dt-clears-horizons", "horizon-after-dt"])
    def test_grid_flags_override_the_file_together(self, tmp_path, flags, grid):
        # --t-start 30 against the file's t_end 20 alone is no valid grid;
        # the flags' grid (30, 40) is
        cfg = write_config(tmp_path, {"grid": {"t_end": 20, "horizons": [2]}})
        args = cli.build_parser().parse_args(
            ["train", "--bundle", "b", "--out", "o", "--config", cfg, *flags])
        assert cli.resolve_run_config(args).grid == grid

    def test_settable_values_counted(self):
        def leaves(cls):
            return sum(leaves(type(f.default)) if dataclasses.is_dataclass(f.default)
                       else 1 for f in dataclasses.fields(cls))
        assert leaves(EvalConfig) == 26


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["train", "--out", "x"])
        assert err.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--out", "x", "--frobnicate"])
        assert err.value.code == 2


class TestSynth:
    def test_writes_loadable_bundles_and_manifest(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["synth", "--regions", "4", "--days", "20", "--countries",
                   "2", "--seed", "1", "--out", out])
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest["status"] == "complete"
        assert manifest["seed"] == 1
        assert len(manifest["config_hash"]) == 64
        assert manifest["countries"] == ["C0", "C1"]
        assert "package_version" in manifest
        for country in ("C0", "C1"):
            ds = load_bundle(os.path.join(out, country))
            assert ds.n == 4 and ds.t_total == 20

    def test_same_seed_gives_byte_identical_bundles(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["synth", "--regions", "3", "--days", "16",
                         "--countries", "2", "--seed", "5", "--out", out]) == 0
            outs.append(out)
        for country in ("C0", "C1"):
            assert read_tree(os.path.join(outs[0], country)) == \
                read_tree(os.path.join(outs[1], country))

    def test_seed_changes_the_data(self, tmp_path):
        trees = []
        for seed in ("1", "2"):
            out = str(tmp_path / seed)
            assert main(["synth", "--regions", "3", "--days", "16",
                         "--countries", "1", "--seed", seed, "--out", out]) == 0
            trees.append(read_tree(os.path.join(out, "C0")))
        assert trees[0] != trees[1]


class TestIngest:
    def write_raw(self, tmp_path, mobility_names=("a", "b", "c")):
        dates = ["2020-03-01", "2020-03-02", "2020-03-03"]
        (tmp_path / "regions.txt").write_text("a\nb\nc\n")
        case_rows = ["date,region,new_cases"]
        for k, date in enumerate(dates):
            case_rows += [f"{date},a,{5 if k != 1 else -2}",
                          f"{date},b,4", f"{date},c,{1 if k == 0 else 0}"]
        (tmp_path / "cases.csv").write_text("\n".join(case_rows) + "\n")
        mob_rows = ["date,origin,destination,count"]
        for date in dates:
            for origin in mobility_names:
                for dest in mobility_names:
                    mob_rows.append(f"{date},{origin},{dest},2.0")
        (tmp_path / "mobility.csv").write_text("\n".join(mob_rows) + "\n")

    def test_builds_filtered_bundle(self, tmp_path):
        self.write_raw(tmp_path)
        out = str(tmp_path / "bundle")
        rc = main(["ingest", "--country", "XX",
                   "--cases", str(tmp_path / "cases.csv"),
                   "--mobility", str(tmp_path / "mobility.csv"),
                   "--regions-file", str(tmp_path / "regions.txt"),
                   "--min-total-cases", "10", "--out", out])
        assert rc == 0
        ds = load_bundle(out)
        assert ds.regions == ("a", "b")  # c stays under the case threshold
        assert ds.t_total == 3
        assert ds.cases_on(2).tolist() == [0.0, 4.0]  # negative clamped
        manifest = read_manifest(out)
        assert manifest["status"] == "complete"
        assert manifest["regions_kept"] == 2
        assert manifest["values_clamped"] == 1

    def test_region_map_reconciles_names(self, tmp_path):
        self.write_raw(tmp_path, mobility_names=("Alpha", "b", "c"))
        (tmp_path / "map.csv").write_text("source_name,region_id\nAlpha,a\n")
        out = str(tmp_path / "bundle")
        rc = main(["ingest", "--country", "XX",
                   "--cases", str(tmp_path / "cases.csv"),
                   "--mobility", str(tmp_path / "mobility.csv"),
                   "--regions-file", str(tmp_path / "regions.txt"),
                   "--region-map", str(tmp_path / "map.csv"),
                   "--min-total-cases", "0", "--out", out])
        assert rc == 0
        assert load_bundle(out).regions == ("a", "b", "c")

    def test_region_id_with_comma_rejected(self, tmp_path, capsys):
        regions = ["Bolzano, South Tyrol", "b"]
        dates = ["2020-03-01", "2020-03-02"]
        (tmp_path / "regions.txt").write_text("\n".join(regions) + "\n")
        with open(tmp_path / "cases.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([["date", "region", "new_cases"]]
                                     + [[d, r, 5] for d in dates for r in regions])
        with open(tmp_path / "mobility.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(
                [["date", "origin", "destination", "count"]]
                + [[d, o, t, 2.0] for d in dates for o in regions for t in regions])
        out = str(tmp_path / "bundle")
        rc = main(["ingest", "--country", "XX",
                   "--cases", str(tmp_path / "cases.csv"),
                   "--mobility", str(tmp_path / "mobility.csv"),
                   "--regions-file", str(tmp_path / "regions.txt"),
                   "--min-total-cases", "0", "--out", out])
        assert rc == 1
        assert "'Bolzano, South Tyrol' contains a comma" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag", ["--cases", "--mobility", "--region-map"])
    def test_missing_input_file_exits_with_message(self, tmp_path, capsys, flag):
        self.write_raw(tmp_path)
        inputs = {"--cases": tmp_path / "cases.csv",
                  "--mobility": tmp_path / "mobility.csv",
                  "--regions-file": tmp_path / "regions.txt"}
        missing = str(tmp_path / "nope.csv")
        inputs[flag] = missing
        argv = ["ingest", "--country", "XX", "--out", str(tmp_path / "bundle")]
        for name, path in inputs.items():
            argv += [name, str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {missing}: ")
        assert "Traceback" not in err

    def test_regions_file_not_utf8_exits_with_message(self, tmp_path, capsys):
        self.write_raw(tmp_path)
        (tmp_path / "regions.txt").write_bytes(b"a\n\xffb\n")
        rc = main(["ingest", "--country", "XX",
                   "--cases", str(tmp_path / "cases.csv"),
                   "--mobility", str(tmp_path / "mobility.csv"),
                   "--regions-file", str(tmp_path / "regions.txt"),
                   "--out", str(tmp_path / "bundle")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {tmp_path / 'regions.txt'}: ")

    def test_case_pair_repeated_through_region_map_rejected(self, tmp_path, capsys):
        # x1 and x2 both map to region a: the second would overwrite the first
        self.write_raw(tmp_path)
        with open(tmp_path / "cases.csv", "a") as fh:
            fh.write("2020-03-01,x1,5\n2020-03-01,x2,7\n")
        (tmp_path / "map.csv").write_text("source_name,region_id\nx1,d\nx2,d\n")
        (tmp_path / "regions.txt").write_text("a\nb\nc\nd\n")
        out = str(tmp_path / "bundle")
        rc = main(["ingest", "--country", "XX",
                   "--cases", str(tmp_path / "cases.csv"),
                   "--mobility", str(tmp_path / "mobility.csv"),
                   "--regions-file", str(tmp_path / "regions.txt"),
                   "--region-map", str(tmp_path / "map.csv"),
                   "--min-total-cases", "0", "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'cases.csv'}:12: repeats region 'd' on "
            f"2020-03-01\n")
        assert not os.path.exists(out)

    def test_unmapped_region_fails_with_location(self, tmp_path, capsys):
        self.write_raw(tmp_path, mobility_names=("nowhere", "b", "c"))
        out = str(tmp_path / "bundle")
        rc = main(["ingest", "--country", "XX",
                   "--cases", str(tmp_path / "cases.csv"),
                   "--mobility", str(tmp_path / "mobility.csv"),
                   "--regions-file", str(tmp_path / "regions.txt"),
                   "--out", out])
        assert rc == 1
        assert "nowhere" in capsys.readouterr().err

    def test_repeated_region_id_names_file_and_line(self, tmp_path, capsys):
        self.write_raw(tmp_path)
        (tmp_path / "regions.txt").write_text("a\nb\na\nc\n")
        out = str(tmp_path / "bundle")
        rc = main(["ingest", "--country", "XX",
                   "--cases", str(tmp_path / "cases.csv"),
                   "--mobility", str(tmp_path / "mobility.csv"),
                   "--regions-file", str(tmp_path / "regions.txt"),
                   "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'regions.txt'}:3: duplicate region id 'a'\n")
        assert not os.path.exists(out)

    def test_indented_comment_line_is_a_comment(self, tmp_path):
        self.write_raw(tmp_path)
        (tmp_path / "regions.txt").write_text("a\n  # note\nb\nc\n")
        out = str(tmp_path / "bundle")
        rc = main(["ingest", "--country", "XX",
                   "--cases", str(tmp_path / "cases.csv"),
                   "--mobility", str(tmp_path / "mobility.csv"),
                   "--regions-file", str(tmp_path / "regions.txt"),
                   "--min-total-cases", "0", "--out", out])
        assert rc == 0
        assert load_bundle(out).regions == ("a", "b", "c")
        assert read_manifest(out)["values_missing"] == 0


class TestTrainCommand:
    def test_last_day_summary_matches_baseline_module(self, tmp_path):
        bundle, ds = make_bundle(tmp_path, days=20)
        out = str(tmp_path / "out")
        rc = main(["train", "--bundle", bundle, "--model", "last_day",
                   "--t-start", "14", "--t-end", "16", "--dt", "2",
                   "--out", out])
        assert rc == 0
        cells = scored(load_report_rows(os.path.join(out, "rows.csv")))
        assert len(report_rows(cells)) == 6 * ds.n
        for cell in cells:
            history = ds.case_window(cell.t, cell.t)
            for region, prediction in zip(cell.regions, cell.prediction):
                v = ds.regions.index(region)
                assert prediction == last_day_predict(history)[v]
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            assert json.load(fh) == range_summary(cells)
        assert read_manifest(out)["status"] == "complete"
        assert sorted(os.listdir(out)) == ["rows.csv", "run.json", "summary.json"]

    def test_neural_cell_writes_checkpoints(self, tmp_path):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        rc = main(["train", "--bundle", bundle, "--model", "mpnn",
                   "--t", "14", "--horizon", "1", "--config", cfg,
                   "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "checkpoints",
                                           "AA__MPNN__T14_j1.ckpt"))
        cells = scored(load_report_rows(os.path.join(out, "rows.csv")))
        assert len(report_rows(cells)) == 2
        manifest = read_manifest(out)
        assert manifest["status"] == "complete"
        assert manifest["config"]["train"]["hidden"] == 2

    def test_run_json_says_running_while_cells_train(self, tmp_path, monkeypatch):
        # the rerun's run.json is first, before the old report goes, so a
        # kill at any point leaves no manifest claiming the earlier run
        bundle, _ = make_bundle(tmp_path)
        out = str(tmp_path / "out")
        argv = ["train", "--bundle", bundle, "--model", "mpnn", "--t", "14",
                "--horizon", "1", "--config", write_config(tmp_path), "--out", out]
        assert main(argv) == 0
        with open(os.path.join(out, "run.json"), "rb") as fh:
            final = fh.read()
        seen = []
        real = evaluation.train_model

        def train_model(*args, **kwargs):
            seen.append((read_manifest(out), sorted(os.listdir(out))))
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "train_model", train_model)
        assert main([*argv, "--seed", "3"]) == 0
        (manifest, listing), = seen
        assert (manifest["status"], manifest["seed"]) == ("running", 3)
        assert manifest["config_hash"] == config_digest(manifest["config"])
        assert manifest["config"]["seed"] == 3 and "error" not in manifest
        assert listing == ["checkpoints", "run.json"]
        assert read_manifest(out)["status"] == "complete"
        assert main(argv) == 0
        with open(os.path.join(out, "run.json"), "rb") as fh:
            assert fh.read() == final

    def test_country_id_holding_a_path_is_rejected(self, tmp_path, capsys):
        # the country id names checkpoint files: "../../evil" would put them
        # beside --out, not under it
        bundle, _ = make_bundle(tmp_path)
        manifest_path = os.path.join(bundle, "manifest.json")
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["country"] = "../../evil"
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        cfg = write_config(tmp_path)
        before = read_tree(tmp_path)
        rc = main(["train", "--bundle", bundle, "--model", "mpnn", "--t", "14",
                   "--horizon", "1", "--config", cfg,
                   "--out", str(tmp_path / "work" / "run")])
        assert rc == 1
        assert "country id '../../evil' contains a path separator" in capsys.readouterr().err
        written = set(read_tree(tmp_path)) - set(before)
        assert not [p for p in written if not p.startswith(os.path.join("work", "run", ""))]

    def test_skipped_cells_exit_nonzero_and_mark_partial(self, tmp_path, capsys):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        rc = main(["train", "--bundle", bundle, "--model", "mpnn_tl",
                   "--t", "14", "--horizon", "1", "--config", cfg,
                   "--out", out])
        assert rc == 1
        assert "skipped country=AA model=MPNN_TL" in capsys.readouterr().err
        assert read_manifest(out)["status"] == "partial"
        report = load_report_rows(os.path.join(out, "rows.csv"))
        cells, skipped = scored(report), skips(report)
        assert not cells and len(skipped) == 1

    def test_diverged_cell_exits_nonzero_and_keeps_other_rows(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(evaluation, "train_model", diverge_at(
            14, "non-finite loss at epoch 1, batch 0; "
                "largest parameters: agg1.w: |max|=inf"))
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        rc = main(["train", "--bundle", bundle, "--model", "mpnn",
                   "--t-start", "14", "--t-end", "15", "--horizon", "1",
                   "--config", cfg, "--out", out])
        assert rc == 1
        assert "T=14 j=1: training diverged" in capsys.readouterr().err
        assert read_manifest(out)["status"] == "partial"
        report = load_report_rows(os.path.join(out, "rows.csv"))
        cells, skipped = scored(report), skips(report)
        assert {(c.t, c.horizon) for c in cells} == {(15, 1)}
        assert len(skipped) == 1 and "largest parameters" in skipped[0][4]

    def test_meta_training_without_tasks_in_worker_exits_nonzero(
            self, tmp_path, capsys):
        bundle_a, _ = make_bundle(tmp_path, country="AA")
        # 14 days leave no meta task, so AA's meta-training has nothing to learn
        bundle_b, _ = make_bundle(tmp_path, country="BB", days=14)
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        rc = main(["train", "--bundle", bundle_a, "--bundle", bundle_b,
                   "--model", "mpnn_tl", "--model", "mpnn", "--t-start", "14",
                   "--t-end", "15", "--horizon", "1", "--jobs", "2",
                   "--config", cfg, "--out", out])
        assert rc == 1
        assert "model=MPNN_TL T=14 j=1: meta-training failed: BB: no tasks" in \
            capsys.readouterr().err
        report = load_report_rows(os.path.join(out, "rows.csv"))
        cells, skipped = scored(report), skips(report)
        assert len(skipped) == 2
        assert {(c.country, c.model, c.t) for c in cells} == {
            ("AA", "MPNN", 14), ("AA", "MPNN", 15)}
        ckpts = os.listdir(os.path.join(out, "checkpoints"))
        assert "BB__MPNN_TL__meta.ckpt" in ckpts
        assert "AA__MPNN_TL__meta.ckpt" not in ckpts

    def test_transfer_with_window_wider_than_first_meta_anchor(self, tmp_path):
        # train.d=16 above meta.t_start=14: meta-training starts at day 16
        bundle_a, _ = make_bundle(tmp_path, country="AA", days=22)
        bundle_b, _ = make_bundle(tmp_path, country="BB", days=22)
        cfg = write_config(tmp_path, {"train": {**TINY_CONFIG["train"], "d": 16}})
        out = str(tmp_path / "out")
        rc = main(["train", "--bundle", bundle_a, "--bundle", bundle_b,
                   "--model", "mpnn_tl", "--t", "20", "--horizon", "1",
                   "--config", cfg, "--out", out])
        assert rc == 0
        assert read_manifest(out)["status"] == "complete"
        cells = scored(load_report_rows(os.path.join(out, "rows.csv")))
        assert {(c.country, c.model, c.t) for c in cells} == {
            ("AA", "MPNN_TL", 20), ("BB", "MPNN_TL", 20)}
        ckpts = os.listdir(os.path.join(out, "checkpoints"))
        assert {"AA__MPNN_TL__meta.ckpt", "BB__MPNN_TL__meta.ckpt"} <= set(ckpts)

    def test_same_seed_reruns_are_byte_identical(self, tmp_path):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path)
        trees = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            rc = main(["train", "--bundle", bundle, "--model", "mpnn",
                       "--model", "avg", "--t-start", "14", "--t-end", "15",
                       "--dt", "1", "--seed", "3", "--config", cfg,
                       "--out", out])
            assert rc == 0
            tree = read_tree(out)
            del tree["run.json"]  # embeds the differing --out argument
            trees.append(tree)
        assert trees[0] == trees[1]

    def test_config_file_supplies_models_and_grid(self, tmp_path):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path, extra={
            "models": ["last_day"],
            "grid": {"t_start": 14, "t_end": 14, "horizons": [1]}})
        out = str(tmp_path / "out")
        assert main(["train", "--bundle", bundle, "--config", cfg,
                     "--out", out]) == 0
        cells = scored(load_report_rows(os.path.join(out, "rows.csv")))
        assert {c.model for c in cells} == {"LAST_DAY"}
        assert {(c.t, c.horizon) for c in cells} == {(14, 1)}

    def test_flags_override_config_file(self, tmp_path):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path, extra={
            "models": ["last_day"],
            "grid": {"t_start": 14, "t_end": 14, "horizons": [1]}})
        out = str(tmp_path / "out")
        assert main(["train", "--bundle", bundle, "--config", cfg,
                     "--model", "avg", "--out", out]) == 0
        cells = scored(load_report_rows(os.path.join(out, "rows.csv")))
        assert {c.model for c in cells} == {"AVG"}

    def test_bad_config_file_reports_offending_key(self, tmp_path, capsys):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path, extra={"frobnicate": True})
        rc = main(["train", "--bundle", bundle, "--config", cfg,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "unknown config keys: frobnicate" in capsys.readouterr().err

    def test_repeated_model_flag_exits_before_any_cell(self, tmp_path, capsys):
        bundle, _ = make_bundle(tmp_path)
        out = tmp_path / "out"
        rc = main(["train", "--bundle", bundle, "--model", "avg", "--model", "AVG",
                   "--out", str(out)])
        assert rc == 1
        assert "error: models must be distinct" in capsys.readouterr().err
        assert not (out / "rows.csv").exists()

    @pytest.mark.parametrize("raw", [b'{"seed": "\xff"}', None],
                             ids=["not-utf8", "missing"])
    def test_unreadable_config_file_exits_with_one_line(self, tmp_path, capsys, raw):
        bundle, _ = make_bundle(tmp_path)
        cfg = tmp_path / "cfg.json"
        if raw is not None:
            cfg.write_bytes(raw)
        rc = main(["train", "--bundle", bundle, "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {cfg}: ")
        assert err.count("\n") == 1

    def test_config_value_of_wrong_type_exits_with_message(self, tmp_path, capsys):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path, extra={"jobs": "2"})
        rc = main(["train", "--bundle", bundle, "--config", cfg,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "config key 'jobs' must be int" in capsys.readouterr().err


class TestPinnedGrid:
    """A seeded toy grid over every MPNN-step model, pinned byte for byte.

    Dropout is on and two countries of different sizes give MPNN_TL its
    meta-training and TL_BASE its mixed-n batches, so a change to any
    elementwise layer, the dropout masks or the meta update that moves
    a single bit changes one of these digests.
    """

    ROWS_SHA256 = "c88f2aa912b011752c2e7052438d24001b8285dd9fa0686abffbe78d41d99343"
    META_SHA256 = {
        "AA": "c79546a9371b9fdafa1d773787690d9e0d5ac2999af25f7bf72be2bbee53f50e",
        "BB": "ee7d2457329a3a3bcc6dd63174cf2952d919fd5585737ef9e9b054ed28368cdb"}
    CELLS_SHA256 = "fc98081a4856021ff05f1cf4c21bbd78eccc6da657080751335d03eefe201daf"

    def test_outputs_match_pinned_digests(self, tmp_path):
        bundle_a, _ = make_bundle(tmp_path, country="AA", n=3, days=20)
        bundle_b, _ = make_bundle(tmp_path, country="BB", n=4, days=20, seed=1)
        cfg = write_config(tmp_path, {
            "train": dict(TINY_CONFIG["train"], hidden=4, k_layers=2,
                          dropout=0.5),
            "meta": {"dt": 2}})
        out = str(tmp_path / "out")
        assert main(["train", "--bundle", bundle_a, "--bundle", bundle_b,
                     "--model", "mpnn", "--model", "mpnn_tl", "--model",
                     "tl_base", "--model", "mpnn_lstm", "--t-start", "14",
                     "--t-end", "15", "--horizon", "1", "--horizon", "3",
                     "--seed", "5", "--config", cfg, "--out", out]) == 0
        tree = read_tree(out)
        assert sha256(tree["rows.csv"]) == self.ROWS_SHA256
        for country, digest in self.META_SHA256.items():
            name = os.path.join("checkpoints", f"{country}__MPNN_TL__meta.ckpt")
            assert sha256(tree.pop(name)) == digest
        cells = sorted(name for name in tree if name.startswith("checkpoints"))
        assert len(cells) == 32
        assert sha256(b"".join(name.encode() + tree[name] for name in cells)) \
            == self.CELLS_SHA256


class TestPinnedRecurrentGrid:
    """The LSTM baseline and MPNN_LSTM on a seeded toy grid, pinned byte for
    byte: a change to the recurrent step that moves a single bit of a
    forecast or a trained parameter changes one of these digests."""

    ROWS_SHA256 = "ff18eb921fd5f68fc570a7d06fcab6a68b8b5e99abdcf62e69e0a779c7d87cfa"
    CELLS_SHA256 = "bc5480fff63fc2ef77b902ccd59c15edb5d3fe1642634860aad2a911a44b8594"

    def test_outputs_match_pinned_digests(self, tmp_path):
        bundle, _ = make_bundle(tmp_path, country="AA", n=3, days=20)
        cfg = write_config(tmp_path, {
            "train": dict(TINY_CONFIG["train"], max_epochs=2, hidden=4,
                          k_layers=2, dropout=0.5)})
        out = str(tmp_path / "out")
        assert main(["train", "--bundle", bundle, "--model", "lstm",
                     "--model", "mpnn_lstm", "--t-start", "14", "--t-end",
                     "15", "--horizon", "1", "--horizon", "3", "--seed", "5",
                     "--config", cfg, "--out", out]) == 0
        tree = read_tree(out)
        assert sha256(tree["rows.csv"]) == self.ROWS_SHA256
        cells = sorted(name for name in tree if name.startswith("checkpoints"))
        assert len(cells) == 8
        assert sha256(b"".join(name.encode() + tree[name] for name in cells)) \
            == self.CELLS_SHA256


class TestPinnedBaselineGrid:
    """The four baselines on one country, pinned byte for byte.

    The regions hold random counts, a linear ramp and a constant series
    (both singular once differenced, so AR takes its ridge path), an
    all-zero series and a decay whose forecasts go negative and clamp;
    horizons up to 14 sum more than eight forecast differences.  The
    undifferenced AR(13) run also records a too-short-history skip at T=14.
    """

    ROWS_SHA256 = {
        1: "8526118e7747816f7bc301085eca5fc5c22507c4879720ddfa3c9604e1187060",
        0: "0a735ae0494e7d9481e9ea42cf154e75130c707f698dd0648997e4055933b04d",
    }

    @staticmethod
    def bundle(tmp_path):
        ds = make_ramp_dataset(n=6, days=40, country="CC", seed=2)
        rng = np.random.default_rng(3)
        day = np.arange(1.0, 41.0)
        cases = np.vstack([
            rng.integers(0, 200, 40).astype(float),
            3.0 * day + 5.0,
            np.full(40, 8.0),
            np.zeros(40),
            np.maximum(0.0, 400.0 - 12.0 * day + rng.uniform(0.0, 30.0, 40)),
            10.0 * 1.1 ** day + rng.uniform(0.0, 1.0, 40),
        ])
        ds = CountryDataset(ds.country, ds.regions, ds.dates, cases, ds.mobility)
        path = str(tmp_path / "bundles" / "CC")
        save_bundle(ds, path)
        return path

    @pytest.mark.parametrize("differencing", [1, 0])
    def test_rows_match_pinned_digest(self, tmp_path, differencing):
        config = {"ar_differencing": differencing}
        if not differencing:
            config["ar_order"] = 13
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = str(tmp_path / "out")
        rc = main(["train", "--bundle", self.bundle(tmp_path), "--model", "avg",
                   "--model", "avg_window", "--model", "last_day", "--model",
                   "ar", "--t-start", "14", "--t-end", "26", "--dt", "14",
                   "--config", str(cfg), "--out", out])
        assert rc == (0 if differencing else 1)   # AR(13) skips T=14
        with open(os.path.join(out, "rows.csv"), "rb") as fh:
            assert sha256(fh.read()) == self.ROWS_SHA256[differencing]


class TestPinnedSkipGrid:
    """Skips and rows of two countries, pinned byte for byte through train
    (one and two workers), a rescore, and a report of two runs.

    AR(12) lacks history at T=14 (a data skip), training diverges at T=15,
    and AA's MPNN_TL cells are skipped because BB's 16 days leave its
    meta-training no task.  Each of the report's two inputs holds skip lines
    and rows, so its digests pin how a merge orders them.
    """

    TRAIN_SHA256 = {
        "rows.csv": "3d233192fa8e351cf83a5da3ed49ed413366c9798376b8f1f0b2c1c456061a65",
        "summary.json": "9a94a8d8e19e5bb5060e7eae2dbe56f25485fcff7bfe861cba41fea166258feb",
        "checkpoints": "6c685e93d7afb00eb85b767bfe6ed209d5886397d199824da1b4e1011317db3e",
    }
    REPORT_SHA256 = {
        "rows.csv": "4096fa53f6f427f859be3e2f601222ffd12a75bd333dd814efc7738b7bde7941",
        "summary.json": "9a94a8d8e19e5bb5060e7eae2dbe56f25485fcff7bfe861cba41fea166258feb",
    }

    def train(self, tmp_path, name, *grid):
        cfg = write_config(tmp_path, {"ar_order": 12, "meta": {"dt": 1, "t_start": 16}})
        argv = ["--bundle", make_bundle(tmp_path, country="AA", n=3, days=20)[0],
                "--bundle", make_bundle(tmp_path, country="BB", n=2, days=16, seed=1)[0],
                "--model", "avg", "--model", "ar", "--model", "mpnn", "--model",
                "mpnn_tl", *grid, "--seed", "2", "--config", cfg]
        out = str(tmp_path / name)
        assert main(["train", *argv, "--out", out]) == 1
        return argv, out

    def test_outputs_match_pinned_digests(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluation, "train_model", diverge_at(15, "boom"))
        grid = ["--t-start", "14", "--t-end", "15", "--horizon", "1", "--horizon", "2"]
        for jobs in ("1", "2"):
            argv, out = self.train(tmp_path, f"jobs{jobs}", *grid, "--jobs", jobs)
            tree = read_tree(out)
            cells = sorted(name for name in tree if name.startswith("checkpoints"))
            assert len(cells) == 15
            digests = {"rows.csv": sha256(tree["rows.csv"]),
                       "summary.json": sha256(tree["summary.json"]),
                       "checkpoints": sha256(b"".join(name.encode() + tree[name]
                                                      for name in cells))}
            assert digests == self.TRAIN_SHA256
        rescore = str(tmp_path / "rescore")
        assert main(["evaluate", *argv, "--checkpoints",
                     os.path.join(out, "checkpoints"), "--out", rescore]) == 1
        assert sha256(read_tree(rescore)["rows.csv"]) == self.TRAIN_SHA256["rows.csv"]
        inputs = [self.train(tmp_path, f"T{t}", "--t", t, "--horizon", "1",
                             "--horizon", "2")[1] for t in ("14", "15")]
        merged = str(tmp_path / "merged")
        assert main(["report", *inputs, "--out", merged]) == 0
        tree = read_tree(merged)
        assert {name: sha256(tree[name]) for name in self.REPORT_SHA256} == \
            self.REPORT_SHA256


class TestEvaluateCommand:
    def trained(self, tmp_path):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path)
        out = str(tmp_path / "trained")
        argv = ["--bundle", bundle, "--model", "mpnn", "--t-start", "14",
                "--t-end", "15", "--dt", "1", "--config", cfg]
        assert main(["train", *argv, "--out", out]) == 0
        return bundle, cfg, argv, out

    def test_checkpoint_reuse_reproduces_report(self, tmp_path):
        _, _, argv, trained_out = self.trained(tmp_path)
        out = str(tmp_path / "eval")
        rc = main(["evaluate", *argv, "--checkpoints",
                   os.path.join(trained_out, "checkpoints"), "--out", out])
        assert rc == 0
        with open(os.path.join(trained_out, "rows.csv"), "rb") as fh:
            expected = fh.read()
        with open(os.path.join(out, "rows.csv"), "rb") as fh:
            assert fh.read() == expected

    def test_missing_checkpoint_names_cell(self, tmp_path, capsys):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path)
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        out = str(tmp_path / "eval")
        rc = main(["evaluate", "--bundle", bundle, "--model", "mpnn",
                   "--t", "14", "--horizon", "1", "--config", cfg,
                   "--checkpoints", empty, "--out", out])
        assert rc == 1
        assert "country=AA model=MPNN T=14 j=1" in capsys.readouterr().err
        manifest = read_manifest(out)
        assert manifest["status"] == "failed"
        assert "missing checkpoint" in manifest["error"]

    def assert_rescore_reproduces_skip(self, tmp_path, capsys, argv, reason,
                                       train_model=None):
        """Train (with evaluation.train_model replaced by train_model, if
        given), then rescore unpatched: same rows.csv, skip line and exit."""
        trained = str(tmp_path / "trained")
        with pytest.MonkeyPatch.context() as mp:
            if train_model is not None:
                mp.setattr(evaluation, "train_model", train_model)
            assert main(["train", *argv, "--out", trained]) == 1
        capsys.readouterr()
        out = str(tmp_path / "eval")
        rc = main(["evaluate", *argv, "--checkpoints",
                   os.path.join(trained, "checkpoints"), "--out", out])
        assert rc == 1
        assert reason in capsys.readouterr().err
        assert read_manifest(out)["status"] == "partial"
        with open(os.path.join(trained, "rows.csv"), "rb") as fh:
            expected = fh.read()
        with open(os.path.join(out, "rows.csv"), "rb") as fh:
            assert fh.read() == expected
        report = load_report_rows(os.path.join(out, "rows.csv"))
        cells, skipped = scored(report), skips(report)
        assert cells and len(skipped) == 1
        assert reason in "country={} model={} T={} j={}: {}".format(*skipped[0])

    def test_rescore_keeps_cells_skipped_for_data(self, tmp_path, capsys):
        # an 11-day sequence leaves MPNN_LSTM no validation sample at T=14
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path, {
            "train": dict(TINY_CONFIG["train"], seq_len=11)})
        argv = ["--bundle", bundle, "--model", "mpnn_lstm", "--model", "mpnn",
                "--t-start", "14", "--t-end", "15", "--horizon", "1",
                "--config", cfg]
        self.assert_rescore_reproduces_skip(
            tmp_path, capsys, argv,
            "model=MPNN_LSTM T=14 j=1: AA: no validation samples")

    def test_rescore_keeps_ar_skip_for_short_history(self, tmp_path, capsys):
        # AR(13) on the undifferenced history needs 15 days; T=14 has 14
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path, {"ar_order": 13, "ar_differencing": 0})
        argv = ["--bundle", bundle, "--model", "ar", "--model", "mpnn",
                "--t-start", "14", "--t-end", "15", "--horizon", "1",
                "--config", cfg]
        self.assert_rescore_reproduces_skip(
            tmp_path, capsys, argv,
            "model=AR T=14 j=1: need at least 15 points after differencing, "
            "have 14")

    def test_rescore_keeps_transfer_skip_of_lone_country(self, tmp_path, capsys):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path)
        argv = ["--bundle", bundle, "--model", "mpnn_tl", "--model", "mpnn",
                "--t", "14", "--horizon", "1", "--config", cfg]
        self.assert_rescore_reproduces_skip(
            tmp_path, capsys, argv,
            "model=MPNN_TL T=14 j=1: transfer initialization needs at least "
            "one other country")

    def test_rescore_keeps_diverged_cell(self, tmp_path, capsys):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path)
        argv = ["--bundle", bundle, "--model", "mpnn", "--model", "avg",
                "--t-start", "14", "--t-end", "15", "--horizon", "1",
                "--config", cfg]
        message = "non-finite loss at epoch 1, batch 0"
        self.assert_rescore_reproduces_skip(
            tmp_path, capsys, argv,
            f"model=MPNN T=14 j=1: training diverged: {message}",
            train_model=diverge_at(14, message))
        ckpts = sorted(os.listdir(tmp_path / "trained" / "checkpoints"))
        assert ckpts == ["AA__MPNN__T14_j1.ckpt", "AA__MPNN__T15_j1.ckpt"]

    def test_rescore_keeps_failed_meta_training(self, tmp_path, capsys):
        bundle_a, _ = make_bundle(tmp_path, country="AA")
        # 14 days leave no meta task, so AA's meta-training has nothing to learn
        bundle_b, _ = make_bundle(tmp_path, country="BB", days=14)
        cfg = write_config(tmp_path)
        argv = ["--bundle", bundle_a, "--bundle", bundle_b, "--model", "mpnn_tl",
                "--model", "mpnn", "--t", "14", "--horizon", "1", "--jobs", "2",
                "--config", cfg]
        self.assert_rescore_reproduces_skip(
            tmp_path, capsys, argv,
            "model=MPNN_TL T=14 j=1: meta-training failed: BB: no tasks")

    def test_rescore_keeps_failed_meta_training_of_cell_without_data(
            self, tmp_path, capsys):
        # d=13 leaves AA no validation sample at T=14, but training recorded
        # the meta-training failure first, so the rescore must report it too
        bundle_a, _ = make_bundle(tmp_path, country="AA")
        bundle_b, _ = make_bundle(tmp_path, country="BB", days=14)
        cfg = write_config(tmp_path, {"train": dict(TINY_CONFIG["train"], d=13)})
        argv = ["--bundle", bundle_a, "--bundle", bundle_b, "--model", "mpnn_tl",
                "--t", "14", "--horizon", "1", "--config", cfg]
        trained, out = str(tmp_path / "trained"), str(tmp_path / "eval")
        assert main(["train", *argv, "--out", trained]) == 1
        assert main(["evaluate", *argv, "--checkpoints",
                     os.path.join(trained, "checkpoints"), "--out", out]) == 1
        assert "meta-training failed" in capsys.readouterr().err
        assert read_tree(trained)["rows.csv"] == read_tree(out)["rows.csv"]

    def test_rescore_keeps_overflowing_baseline_skip(self, tmp_path, capsys):
        # AVG's mean of region r0's 1.7e308 cases a day overflows to inf
        _, ramp = make_bundle(tmp_path)
        cases = np.array(ramp.cases)
        cases[0] = 1.7e308
        bundle = str(tmp_path / "bundles" / "HUGE")
        save_bundle(CountryDataset("AA", ramp.regions, ramp.dates, cases,
                                   ramp.mobility), bundle)
        argv = ["--bundle", bundle, "--model", "avg", "--model", "last_day",
                "--t", "14", "--horizon", "1"]
        self.assert_rescore_reproduces_skip(
            tmp_path, capsys, argv,
            "model=AVG T=14 j=1: non-finite forecast: inf for region 'r0'")
        for run in ("trained", "eval"):
            with open(tmp_path / run / "summary.json", encoding="utf-8") as fh:
                summary = json.loads(fh.read(), parse_constant=pytest.fail)
            assert list(summary) == ["LAST_DAY"]

    @pytest.mark.parametrize("model,key,value", [
        ("mpnn", "hidden", 3), ("mpnn", "d", 4), ("mpnn_lstm", "seq_len", 5)])
    def test_rescore_with_another_architecture_names_checkpoint(
            self, tmp_path, capsys, model, key, value):
        bundle, _ = make_bundle(tmp_path)
        argv = ["--bundle", bundle, "--model", model, "--t", "14", "--horizon", "1"]
        trained = str(tmp_path / "trained")
        assert main(["train", *argv, "--config", write_config(tmp_path),
                     "--out", trained]) == 0
        other = write_config(tmp_path, {"train": {**TINY_CONFIG["train"], key: value}},
                             name="other.json")
        capsys.readouterr()
        out = str(tmp_path / "eval")
        rc = main(["evaluate", *argv, "--config", other, "--checkpoints",
                   os.path.join(trained, "checkpoints"), "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        ckpt = os.path.join(trained, "checkpoints", f"AA__{model.upper()}__T14_j1.ckpt")
        assert err.count("error:") == 1
        assert err.startswith(f"error: {ckpt!r} holds model ")
        assert f"'{key}': {value}" in err.split("but the run config builds")[1]
        manifest = read_manifest(out)
        assert manifest["status"] == "failed"
        assert manifest["error"] == err[len("error: "):].rstrip("\n")
        assert not os.path.exists(os.path.join(out, "rows.csv"))

    def test_retraining_a_skipped_cell_drops_its_marker(self, tmp_path, monkeypatch):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path)
        argv = ["train", "--bundle", bundle, "--model", "mpnn", "--t", "14",
                "--horizon", "1", "--config", cfg, "--out", str(tmp_path / "out")]
        ckpt_dir = tmp_path / "out" / "checkpoints"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "train_model", diverge_at(14, "boom"))
            assert main(argv) == 1
        assert sorted(os.listdir(ckpt_dir)) == ["AA__MPNN__T14_j1.ckpt"]
        assert cell_kind(ckpt_dir / "AA__MPNN__T14_j1.ckpt") == "mobicast-skip"
        assert main(argv) == 0
        assert sorted(os.listdir(ckpt_dir)) == ["AA__MPNN__T14_j1.ckpt"]
        assert cell_kind(ckpt_dir / "AA__MPNN__T14_j1.ckpt") == "mobicast-checkpoint"
        monkeypatch.setattr(evaluation, "train_model", diverge_at(14, "boom"))
        assert main(argv) == 1
        assert sorted(os.listdir(ckpt_dir)) == ["AA__MPNN__T14_j1.ckpt"]
        assert cell_kind(ckpt_dir / "AA__MPNN__T14_j1.ckpt") == "mobicast-skip"

    def test_killed_retrain_leaves_no_stale_skip(self, tmp_path, capsys):
        """A run killed right after a cell's new checkpoint is written still
        leaves that checkpoint as the cell's only outcome."""
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path)
        argv = ["--bundle", bundle, "--model", "mpnn", "--t", "14",
                "--horizon", "1", "--config", cfg]
        trained = str(tmp_path / "trained")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "train_model", diverge_at(14, "boom"))
            assert main(["train", *argv, "--out", trained]) == 1

        class Killed(BaseException):
            pass

        real_save = evaluation.save_checkpoint

        def save_then_die(*args, **kwargs):
            real_save(*args, **kwargs)
            raise Killed

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "save_checkpoint", save_then_die)
            with pytest.raises(Killed):
                main(["train", *argv, "--out", trained])
        capsys.readouterr()
        rc = main(["evaluate", *argv, "--checkpoints",
                   os.path.join(trained, "checkpoints"),
                   "--out", str(tmp_path / "eval")])
        assert rc == 0, capsys.readouterr().err
        report = load_report_rows(str(tmp_path / "eval" / "rows.csv"))
        cells, skipped = scored(report), skips(report)
        assert len(report_rows(cells)) == 2 and not skipped

    def test_checkpoint_directory_holds_one_file_per_cell(self, tmp_path):
        bundle_a, _ = make_bundle(tmp_path, country="AA")
        # 14 days leave no meta task, so AA's meta-training has nothing to learn
        bundle_b, _ = make_bundle(tmp_path, country="BB", days=14)
        cfg = write_config(tmp_path)
        trees = []
        for jobs in ("2", "1"):
            out = tmp_path / f"jobs{jobs}"
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluation, "train_model", diverge_at(14, "boom"))
                assert main(["train", "--bundle", bundle_a, "--bundle", bundle_b,
                             "--model", "mpnn_tl", "--model", "mpnn",
                             "--t-start", "14", "--t-end", "15", "--horizon", "1",
                             "--jobs", jobs, "--config", cfg,
                             "--out", str(out)]) == 1
            trees.append(read_tree(out / "checkpoints"))
        kinds = {name: cell_kind(tmp_path / "jobs2" / "checkpoints" / name)
                 for name in trees[0]}
        assert kinds == {
            "AA__MPNN__T14_j1.ckpt": "mobicast-skip",       # diverged
            "AA__MPNN__T15_j1.ckpt": "mobicast-checkpoint",
            "AA__MPNN_TL__T14_j1.ckpt": "mobicast-skip",    # meta-training failed
            "AA__MPNN_TL__T15_j1.ckpt": "mobicast-skip",
            "BB__MPNN_TL__meta.ckpt": "mobicast-meta",
        }
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("kind", ["trained", "skip"])
    def test_checkpoint_of_another_cell_rejected(self, tmp_path, capsys, kind):
        # a copied file would score T=15 with T=14's parameters, or skip it
        # with T=14's reason
        _, _, argv, trained = self.trained(tmp_path)
        if kind == "skip":
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluation, "train_model", diverge_at(14, "boom"))
                assert main(["train", *argv, "--out", trained]) == 1
        ckpts = os.path.join(trained, "checkpoints")
        assert cell_kind(os.path.join(ckpts, "AA__MPNN__T14_j1.ckpt")) == \
            f"mobicast-{'skip' if kind == 'skip' else 'checkpoint'}"
        copied = os.path.join(ckpts, "AA__MPNN__T15_j1.ckpt")
        with open(os.path.join(ckpts, "AA__MPNN__T14_j1.ckpt"), "rb") as fh:
            blob = fh.read()
        with open(copied, "wb") as fh:
            fh.write(blob)
        capsys.readouterr()
        out = str(tmp_path / "eval")
        rc = main(["evaluate", *argv, "--checkpoints", ckpts, "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {copied!r} records cell ")
        assert "'t': 14" in err and "'t': 15" in err and err.count("\n") == 1
        assert read_manifest(out)["status"] == "failed"
        assert not os.path.exists(os.path.join(out, "rows.csv"))

    def test_rescore_under_another_seed_names_checkpoint(self, tmp_path, capsys):
        # each cell trained under its seed-0 cell seed; seed 9 would claim
        # those parameters as its own
        _, _, argv, trained = self.trained(tmp_path)
        capsys.readouterr()
        out = str(tmp_path / "eval")
        rc = main(["evaluate", *argv, "--seed", "9", "--checkpoints",
                   os.path.join(trained, "checkpoints"), "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        ckpt = os.path.join(trained, "checkpoints", "AA__MPNN__T14_j1.ckpt")
        assert err.startswith(f"error: {ckpt!r} records cell ")
        assert err.count("'cell_seed': ") == 2 and err.count("\n") == 1
        manifest = read_manifest(out)
        assert (manifest["status"], manifest["seed"]) == ("failed", 9)
        assert not os.path.exists(os.path.join(out, "rows.csv"))

    @pytest.mark.parametrize("reason", ["boom\nAA,MPNN,15,1,r0,1.0,1.0,0.0", 5],
                             ids=["line-break", "number"])
    def test_skip_reason_that_is_not_one_line_rejected(self, tmp_path, capsys, reason):
        # rows.csv writes the reason on the skip line: a line break would
        # forge a row above the header
        _, _, argv, trained = self.trained(tmp_path)
        ckpt = os.path.join(trained, "checkpoints", "AA__MPNN__T14_j1.ckpt")
        extra = load_params(ckpt)[2]["extra"]
        save_params(ckpt, {}, {}, {"kind": "mobicast-skip", "reason": reason,
                                   "extra": extra})
        capsys.readouterr()
        out = str(tmp_path / "eval")
        rc = main(["evaluate", *argv, "--checkpoints", os.path.dirname(ckpt),
                   "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt!r}: malformed mobicast-skip header: ")
        assert err.count("\n") == 1
        assert read_manifest(out)["status"] == "failed"
        assert not os.path.exists(os.path.join(out, "rows.csv"))

    def test_checkpoints_required(self, tmp_path, capsys):
        # without checkpoints, evaluate would only be a train that keeps none
        bundle, _ = make_bundle(tmp_path)
        out = str(tmp_path / "eval")
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--bundle", bundle, "--model", "avg",
                  "--t", "14", "--horizon", "1", "--out", out])
        assert err.value.code == 2
        assert "--checkpoints" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestCorrelateCommand:
    def test_writes_tables_for_every_bundle(self, tmp_path):
        bundle_a, ds_a = make_bundle(tmp_path, country="AA", n=3, days=25)
        bundle_b, ds_b = make_bundle(tmp_path, country="BB", n=2, days=25)
        out = str(tmp_path / "out")
        rc = main(["correlate", "--bundle", bundle_a, "--bundle", bundle_b,
                   "--max-shift", "2", "--out", out])
        assert rc == 0
        with open(os.path.join(out, "correlations.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "region,shift,pearson"
        assert len(lines) == 1 + (3 + 2) * 2
        assert lines[1].startswith("AA/r0,1,")
        with open(os.path.join(out, "case_stats.csv"), encoding="utf-8") as fh:
            assert len(fh.read().splitlines()) == 1 + 25 * 2

    @pytest.mark.parametrize("shift", [0, -3])
    def test_shift_below_one_rejected_before_writing(self, tmp_path, capsys, shift):
        bundle, _ = make_bundle(tmp_path, days=15)
        out = str(tmp_path / "out")
        rc = main(["correlate", "--bundle", bundle, "--max-shift", str(shift),
                   "--out", out])
        assert rc == 1
        assert (f"error: --max-shift must be >= 1, got {shift}"
                in capsys.readouterr().err)
        assert not os.path.exists(out)

    def test_bundle_without_regions_is_one_error_line(self, tmp_path, capsys):
        bundle = str(tmp_path / "AA")
        save_regionless_bundle(make_ramp_dataset(n=2, days=15, country="AA"), bundle)
        out = str(tmp_path / "out")
        rc = main(["correlate", "--bundle", bundle, "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == "error: AA: no regions\n"
        assert not os.path.exists(os.path.join(out, "correlations.csv"))

    def test_shift_too_large_for_data_fails(self, tmp_path, capsys):
        bundle, _ = make_bundle(tmp_path, days=15)
        rc = main(["correlate", "--bundle", bundle, "--max-shift", "14",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "need more than" in capsys.readouterr().err

    def test_shift_too_large_for_any_bundle_rejected_before_writing(self, tmp_path, capsys):
        bundle_a, _ = make_bundle(tmp_path, country="AA", n=2, days=60)
        bundle_b, _ = make_bundle(tmp_path, country="BB", n=2, days=40)
        out = str(tmp_path / "out")
        rc = main(["correlate", "--bundle", bundle_a, "--bundle", bundle_b,
                   "--max-shift", "50", "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == ("error: need more than 51 days for "
                                           "--max-shift 50; country BB has 40\n")
        assert not os.path.exists(out)
        assert main(["correlate", "--bundle", bundle_a, "--max-shift", "58",
                     "--out", out]) == 0

    # a seeded two-country synth, correlated over 14 shifts, pinned byte for
    # byte: a change to the movement totals, the shifted correlations or the
    # per-day case statistics that moves a single bit changes one digest
    CORRELATIONS_SHA256 = "e9756ceac1baf1c7318e37201855f58245bd0e20c11a60c4c6857004d3201d51"
    CASE_STATS_SHA256 = "ced500c5bfa527229dff02cd11f7bf6274163c80e42d1a816ae8f48df3a25884"

    def test_outputs_match_pinned_digests(self, tmp_path):
        data = str(tmp_path / "data")
        assert main(["synth", "--regions", "5", "--days", "40", "--countries",
                     "2", "--seed", "3", "--out", data]) == 0
        out = str(tmp_path / "out")
        assert main(["correlate", "--bundle", os.path.join(data, "C0"),
                     "--bundle", os.path.join(data, "C1"), "--out", out]) == 0
        tree = read_tree(out)
        assert sha256(tree["correlations.csv"]) == self.CORRELATIONS_SHA256
        assert sha256(tree["case_stats.csv"]) == self.CASE_STATS_SHA256


class TestReportCommand:
    def test_merges_rows_and_skip_lines(self, tmp_path):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path)
        out1 = str(tmp_path / "r1")
        out2 = str(tmp_path / "r2")
        assert main(["train", "--bundle", bundle, "--model", "last_day",
                     "--t", "14", "--horizon", "1", "--out", out1]) == 0
        main(["train", "--bundle", bundle, "--model", "mpnn_tl",
              "--t", "14", "--horizon", "1", "--config", cfg, "--out", out2])
        merged = str(tmp_path / "merged")
        rc = main(["report", out1, out2, "--out", merged])
        assert rc == 0
        report = load_report_rows(os.path.join(merged, "rows.csv"))
        cells, skipped = scored(report), skips(report)
        assert {c.model for c in cells} == {"LAST_DAY"}
        assert len(report_rows(cells)) == 2
        assert len(skipped) == 1 and skipped[0][1] == "MPNN_TL"
        with open(os.path.join(merged, "summary.json"), encoding="utf-8") as fh:
            assert json.load(fh) == range_summary(cells)

    def test_cell_in_two_inputs_rejected(self, tmp_path, capsys):
        # a run merged with its own rescore would count every cell twice
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path)
        argv = ["--bundle", bundle, "--t", "14", "--horizon", "1", "--config", cfg]
        ck = str(tmp_path / "ck")
        outs = [str(tmp_path / name) for name in ("trained", "rescored", "s1", "s2")]
        assert main(["train", *argv, "--model", "mpnn", "--checkpoints", ck,
                     "--out", outs[0]]) == 0
        assert main(["evaluate", *argv, "--model", "mpnn", "--checkpoints", ck,
                     "--out", outs[1]]) == 0
        for out in outs[2:]:   # a lone MPNN_TL cell is a skip line
            assert main(["train", *argv, "--model", "mpnn_tl", "--out", out]) == 1
        capsys.readouterr()
        merged = str(tmp_path / "merged")
        for first, second, model in ((outs[0], outs[1], "MPNN"),
                                     (outs[2], outs[3], "MPNN_TL")):
            assert main(["report", first, second, "--out", merged]) == 1
            err = capsys.readouterr().err
            assert f"cell country=AA model={model} T=14 j=1 is in both " \
                   f"{first} and {second}" in err
            assert not os.path.exists(merged)

    def test_input_whose_last_command_failed_rejected(self, tmp_path, capsys):
        # a failed rescore into a train run's directory deletes train's rows.csv
        # before it runs, and report still refuses its failed run.json
        bundle, _ = make_bundle(tmp_path)
        argv = ["--bundle", bundle, "--model", "mpnn", "--t", "14", "--horizon", "1",
                "--config", write_config(tmp_path)]
        run = str(tmp_path / "run0")
        assert main(["train", *argv, "--out", run]) == 0
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["evaluate", *argv, "--checkpoints", str(empty), "--out", run]) == 1
        assert read_manifest(run)["status"] == "failed"
        assert not os.path.exists(os.path.join(run, "rows.csv"))
        assert not os.path.exists(os.path.join(run, "summary.json"))
        capsys.readouterr()
        merged = tmp_path / "merged"
        assert main(["report", run, "--out", str(merged)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run}: its last command failed ")
        assert err.count("\n") == 1
        assert not merged.exists()

    def test_interrupted_run_leaves_no_earlier_report(self, tmp_path, monkeypatch):
        run = tmp_path / "run0"
        argv = ["train", "--bundle", make_bundle(tmp_path)[0], "--model", "last_day",
                "--t", "14", "--horizon", "1", "--out", str(run)]
        assert main(argv) == 0

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(evaluation, "rolling_evaluate", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert sorted(os.listdir(run)) == ["run.json"]
        manifest = read_manifest(run)
        assert (manifest["status"], manifest["error"]) == ("failed", "KeyboardInterrupt")

    def test_exit_with_a_message_records_it(self, tmp_path, monkeypatch):
        run = tmp_path / "run0"

        def exiting(*args, **kwargs):
            raise SystemExit("stopped by a signal handler")

        monkeypatch.setattr(evaluation, "rolling_evaluate", exiting)
        with pytest.raises(SystemExit):
            main(["train", "--bundle", make_bundle(tmp_path)[0], "--model", "avg",
                  "--t", "14", "--horizon", "1", "--out", str(run)])
        manifest = read_manifest(run)
        assert (manifest["status"], manifest["error"]) == \
            ("failed", "stopped by a signal handler")

    def test_input_still_running_rejected(self, tmp_path, capsys):
        # a run.json that still says running belongs to a command that was
        # killed or has not ended: its rows.csv may be an earlier run's
        run = str(tmp_path / "run0")
        assert main(["train", "--bundle", make_bundle(tmp_path)[0], "--model",
                     "last_day", "--t", "14", "--horizon", "1", "--out", run]) == 0
        path = os.path.join(run, "run.json")
        manifest = read_manifest(run)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**manifest, "status": "running"}, fh)
        capsys.readouterr()
        merged = tmp_path / "merged"
        assert main(["report", run, "--out", str(merged)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {run}: its last command has not finished ({path}); " \
                      f"not merged\n"
        assert not merged.exists()

    @pytest.mark.parametrize("manifest,message", [
        (b"[]", "not a JSON object"), (b"{", "invalid JSON"),
        (b"\xff", "cannot read")], ids=["list", "truncated", "not-utf8"])
    def test_manifest_that_is_not_an_object_rejected(self, tmp_path, capsys,
                                                     manifest, message):
        trained = str(tmp_path / "trained")
        assert main(["train", "--bundle", make_bundle(tmp_path)[0], "--model",
                     "last_day", "--t", "14", "--horizon", "1", "--out", trained]) == 0
        path = os.path.join(trained, "run.json")
        with open(path, "wb") as fh:
            fh.write(manifest)
        capsys.readouterr()
        merged = tmp_path / "merged"
        assert main(["report", trained, "--out", str(merged)]) == 1
        err = capsys.readouterr().err
        assert message in err and path in err and err.count("\n") == 1
        assert not merged.exists()

    @pytest.mark.parametrize("spelling", ["{run}", "{run}/.", "{run}/../trained"],
                             ids=["same", "dot", "dotdot"])
    def test_out_that_is_an_input_rejected(self, tmp_path, capsys, spelling):
        # merging a train run into itself would replace the run.json that
        # its checkpoints are read back with
        run = tmp_path / "trained"
        other = str(tmp_path / "other")
        argv = ["--bundle", make_bundle(tmp_path)[0], "--model", "avg", "--t", "14",
                "--horizon", "1"]
        assert main(["train", *argv, "--out", str(run)]) == 0
        assert main(["train", *argv, "--t", "15", "--out", other]) == 0
        before = read_tree(str(run))
        out = spelling.format(run=run)
        capsys.readouterr()
        assert main(["report", other, str(run), "--out", out]) == 1
        assert capsys.readouterr().err == (f"error: --out {out} is the input "
                                           f"directory {run}; merge into another "
                                           f"directory\n")
        assert read_tree(str(run)) == before

    def test_missing_input_fails(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "merged")])
        assert rc == 1
        assert "rows.csv" in capsys.readouterr().err

    def test_rows_file_not_utf8_exits_with_one_line(self, tmp_path, capsys):
        src = tmp_path / "run"
        src.mkdir()
        rows = src / "rows.csv"
        rows.write_bytes(b"country,model,T,horizon,region,prediction,actual,abs_error\n"
                         b"AA,AVG,14,1,r\xff,1.0,2.0,1.0\n")
        rc = main(["report", str(src), "--out", str(tmp_path / "merged")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {rows}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "merged").exists()


    def test_report_of_one_run_reproduces_its_files(self, tmp_path):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path)
        trained = str(tmp_path / "trained")
        # a lone MPNN_TL cell is a skip line
        assert main(["train", "--bundle", bundle, "--model", "last_day",
                     "--model", "mpnn_tl", "--model", "ar", "--t-start", "14",
                     "--t-end", "15", "--horizon", "1", "--horizon", "3",
                     "--config", cfg, "--out", trained]) == 1
        merged = str(tmp_path / "merged")
        assert main(["report", trained, "--out", merged]) == 0
        for name in ("rows.csv", "summary.json"):
            with open(os.path.join(trained, name), "rb") as fa, \
                    open(os.path.join(merged, name), "rb") as fb:
                assert fb.read() == fa.read()
        assert "# skipped country=AA model=MPNN_TL" in (tmp_path / "merged" /
                                                         "rows.csv").read_text()

    def test_country_id_starting_with_hash_reads_back(self, tmp_path):
        # only the lines above the header are skip lines
        bundle, _ = make_bundle(tmp_path, country="#X")
        trained = str(tmp_path / "trained")
        assert main(["train", "--bundle", bundle, "--model", "avg", "--t", "14",
                     "--horizon", "1", "--out", trained]) == 0
        merged = str(tmp_path / "merged")
        assert main(["report", trained, "--out", merged]) == 0
        for name in ("rows.csv", "summary.json"):
            with open(os.path.join(trained, name), "rb") as fa, \
                    open(os.path.join(merged, name), "rb") as fb:
                assert fb.read() == fa.read()
        assert [row[:2] for row in report_rows(load_report_rows(
            os.path.join(merged, "rows.csv")))] == [("#X", "AVG")] * 2

    def write_rows(self, tmp_path, lines):
        src = tmp_path / "run"
        src.mkdir()
        (src / "rows.csv").write_text("\n".join(lines) + "\n")
        return src

    @pytest.mark.parametrize("pair", ["nan,2.0", "1.0,inf", "-inf,-inf",
                                      "1e308,-1e308"],
                             ids=["nan", "inf", "inf-inf", "overflow"])
    def test_non_finite_row_rejected_with_its_line(self, tmp_path, capsys, pair):
        src = self.write_rows(tmp_path, [
            "country,model,T,horizon,region,prediction,actual,abs_error",
            "AA,AVG,14,1,r0,1.0,2.0,1.0",
            f"AA,AVG,14,1,r1,{pair},0.0"])
        merged = tmp_path / "merged"
        assert main(["report", str(src), "--out", str(merged)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src / 'rows.csv'} line 3: ")
        assert err.count("\n") == 1
        assert not merged.exists()

    @pytest.mark.parametrize("lines, message", [
        (["AA,AVG,14,1,r0,1.0,2.0,1.0", "AA,AVG,14,1,r0,1.0,2.0,1.0"],
         "cell country=AA model=AVG T=14 j=1 repeats a region"),
        (["# skipped country=AA model=AVG T=14 j=1: no data",
          "AA,AVG,14,1,r0,1.0,2.0,1.0"],
         "cell country=AA model=AVG T=14 j=1 has a skip line and rows"),
        (["# skipped country=AA model=AVG T=14 j=1: no data",
          "# skipped country=AA model=AVG T=14 j=1: no data"],
         "cell country=AA model=AVG T=14 j=1 has a skip line and another skip line"),
        (["AA,AVG,14,1,r0,1.0,2.0,1.0", "AA,AVG,15,1,r0,1.0,2.0,1.0",
          "AA,AVG,14,1,r1,1.0,2.0,1.0"],
         "line 4: cell country=AA model=AVG T=14 j=1 continues after other cells"),
    ], ids=["repeated-row", "skip-and-rows", "skipped-twice", "split-cell"])
    def test_cell_twice_in_one_input_rejected(self, tmp_path, capsys, lines, message):
        header = "country,model,T,horizon,region,prediction,actual,abs_error"
        skips = [ln for ln in lines if ln.startswith("#")]
        src = self.write_rows(tmp_path, skips + [header] + [
            ln for ln in lines if not ln.startswith("#")])
        merged = tmp_path / "merged"
        assert main(["report", str(src), "--out", str(merged)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src / 'rows.csv'}")
        assert message in err and err.count("\n") == 1
        assert not merged.exists()


class TestUnwritableOutputs:
    """A path that cannot be created or written ends the command with one
    error line and exit 1, never a traceback; a grid run that has its run
    directory records the failure in run.json."""

    def argv(self, tmp_path, command, out):
        if command == "ingest":
            TestIngest().write_raw(tmp_path)
            return ["ingest", "--country", "XX",
                    "--cases", str(tmp_path / "cases.csv"),
                    "--mobility", str(tmp_path / "mobility.csv"),
                    "--regions-file", str(tmp_path / "regions.txt"),
                    "--out", out]
        if command == "synth":
            return ["synth", "--regions", "3", "--days", "16", "--countries",
                    "1", "--out", out]
        bundle, _ = make_bundle(tmp_path)
        if command == "correlate":
            return ["correlate", "--bundle", bundle, "--max-shift", "2",
                    "--out", out]
        argv = [command, "--bundle", bundle, "--model", "last_day", "--t", "14",
                "--horizon", "1", "--out", out]
        return argv + (["--checkpoints", str(tmp_path)] if command == "evaluate"
                       else [])

    def assert_clean_failure(self, capsys, rc, message):
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "evaluate", "synth",
                                         "correlate", "ingest"])
    def test_out_naming_a_file(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        rc = main(self.argv(tmp_path, command, str(out)))
        self.assert_clean_failure(capsys, rc, f"cannot create directory {out}")
        assert out.read_text() == "a file, not a directory"

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_earlier_report_that_cannot_be_removed(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        (out / "rows.csv").mkdir(parents=True)   # a directory os.remove refuses
        rc = main(self.argv(tmp_path, command, str(out)))
        self.assert_clean_failure(capsys, rc, f"cannot remove {out / 'rows.csv'}: ")
        assert read_manifest(str(out))["status"] == "failed"

    def test_checkpoints_naming_a_file(self, tmp_path, capsys):
        bundle, _ = make_bundle(tmp_path)
        ck = tmp_path / "ck"
        ck.write_text("a file, not a directory")
        out = str(tmp_path / "out")
        rc = main(["train", "--bundle", bundle, "--model", "mpnn", "--t", "14",
                   "--horizon", "1", "--config", write_config(tmp_path),
                   "--checkpoints", str(ck), "--out", out])
        self.assert_clean_failure(capsys, rc, f"cannot create directory {ck}: ")
        manifest = read_manifest(out)
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith(f"cannot create directory {ck}: ")
        assert not os.path.exists(os.path.join(out, "rows.csv"))

    def test_checkpoint_write_failing_in_a_worker(self, tmp_path, capsys):
        bundle, _ = make_bundle(tmp_path)
        out = str(tmp_path / "out")
        ckpt = os.path.join(out, "checkpoints", "AA__MPNN__T14_j1.ckpt")
        os.makedirs(ckpt + ".tmp")   # root may write anywhere; a directory blocks it
        rc = main(["train", "--bundle", bundle, "--model", "mpnn",
                   "--t-start", "14", "--t-end", "15", "--horizon", "1",
                   "--jobs", "2", "--config", write_config(tmp_path),
                   "--out", out])
        self.assert_clean_failure(capsys, rc, f"cannot write {ckpt}: ")
        assert read_manifest(out)["status"] == "failed"
        # a failed write is no skipped cell: no report claims the cell
        assert not os.path.exists(os.path.join(out, "rows.csv"))


class TestDataDirResolution:
    def test_relative_bundles_resolve_against_env_var(self, tmp_path,
                                                      monkeypatch):
        make_bundle(tmp_path, country="AA")
        monkeypatch.setenv("MOBICAST_DATA", str(tmp_path / "bundles"))
        out = str(tmp_path / "out")
        rc = main(["train", "--bundle", "AA", "--model", "avg",
                   "--t", "14", "--horizon", "1", "--out", out])
        assert rc == 0

    def test_absolute_paths_ignore_env_var(self, tmp_path, monkeypatch):
        bundle, _ = make_bundle(tmp_path, country="AA")
        monkeypatch.setenv("MOBICAST_DATA", str(tmp_path / "elsewhere"))
        out = str(tmp_path / "out")
        rc = main(["train", "--bundle", bundle, "--model", "avg",
                   "--t", "14", "--horizon", "1", "--out", out])
        assert rc == 0

    def test_run_outputs_resolve_where_train_wrote_them(self, tmp_path,
                                                        monkeypatch):
        make_bundle(tmp_path, country="AA")
        cfg = write_config(tmp_path)
        monkeypatch.setenv("MOBICAST_DATA", str(tmp_path / "bundles"))
        monkeypatch.chdir(tmp_path)
        argv = ["--bundle", "AA", "--model", "mpnn", "--t", "14",
                "--horizon", "1", "--config", cfg]
        assert main(["train", *argv, "--checkpoints", "ck",
                     "--out", "trained"]) == 0
        assert main(["evaluate", *argv, "--checkpoints", "ck",
                     "--out", "rescored"]) == 0
        assert main(["report", "rescored", "--out", "merged"]) == 0
        cells = scored(load_report_rows(os.path.join("merged", "rows.csv")))
        trained = scored(load_report_rows(os.path.join("trained", "rows.csv")))
        rows = report_rows(cells)
        assert len(rows) == 2 and rows == report_rows(trained)
        assert not os.path.exists(tmp_path / "bundles" / "ck")


class TestHeapSettings:
    def test_sets_both_glibc_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli.ctypes, "CDLL",
                            lambda name: SimpleNamespace(mallopt=mallopt))
        cli.keep_heap_resident()
        assert calls == [(-3, 4 << 20), (-1, 16 << 20)]

    def test_noop_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert cli.keep_heap_resident() is None

    def test_main_sets_them_before_any_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "keep_heap_resident", lambda: calls.append(1))
        with pytest.raises(SystemExit):
            main([])
        assert calls == [1]


class TestConsoleScript:
    ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

    def test_entry_point_prints_the_version(self):
        # what `pip install .` wires up: the [project.scripts] target, found
        # under the package directory setuptools searches
        with open(os.path.join(self.ROOT, "pyproject.toml"), "rb") as fh:
            project = tomllib.load(fh)
        target = project["project"]["scripts"]["mobicast"]
        module, func = target.split(":")
        (where,) = project["tool"]["setuptools"]["packages"]["find"]["where"]
        script = (f"import sys; from {module} import {func}; "
                  f"sys.argv = ['mobicast', '--version']; sys.exit({func}())")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(self.ROOT, where)))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, f"mobicast {__version__}\n", "")
