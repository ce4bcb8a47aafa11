"""Command-line surface: config resolution, subcommands, manifests, exits."""

import json
import os
from types import SimpleNamespace

import pytest

from mobicast import cli, evaluation
from mobicast.baselines import last_day_predict
from mobicast.cli import (
    RunConfig,
    config_digest,
    config_to_dict,
    main,
    run_config_from_dict,
)
from mobicast.dataio import load_bundle, save_bundle
from mobicast.errors import ContractError
from mobicast.evaluation import ProtocolGrid, load_report_rows, range_summary

from conftest import diverge_at, make_ramp_dataset

TINY_CONFIG = {
    "train": {"max_epochs": 1, "hidden": 2, "k_layers": 1, "d": 3,
              "dropout": 0.0, "seq_len": 4},
    "meta": {"dt": 1, "d": 3},
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


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "run.json"), encoding="utf-8") as fh:
        return json.load(fh)


class TestRunConfig:
    def test_empty_document_gives_defaults(self):
        assert run_config_from_dict({}) == RunConfig()

    def test_round_trips_through_dict(self):
        cfg = run_config_from_dict({
            "seed": 7, "jobs": 2, "models": ["avg", "MPNN"],
            "grid": {"t_start": 15, "t_end": 20, "dt": 3},
            "train": {"hidden": 8}, "meta": {"inner_lr": 0.01},
        })
        assert cfg.models == ("AVG", "MPNN")
        assert cfg.grid == ProtocolGrid(t_start=15, t_end=20, dt=3)
        assert cfg.train.hidden == 8 and cfg.meta.inner_lr == 0.01
        assert run_config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_keys_rejected_at_every_level(self):
        with pytest.raises(ContractError, match="unknown config keys: frobnicate"):
            run_config_from_dict({"frobnicate": 1})
        with pytest.raises(ContractError, match="unknown train config keys"):
            run_config_from_dict({"train": {"hiden": 8}})
        with pytest.raises(ContractError, match="unknown meta config keys"):
            run_config_from_dict({"meta": {"alpha": 0.1}})
        with pytest.raises(ContractError, match="unknown grid config keys"):
            run_config_from_dict({"grid": {"start": 14}})

    def test_bad_model_name_rejected(self):
        with pytest.raises(ContractError, match="unknown model 'PROPHET'"):
            run_config_from_dict({"models": ["prophet"]})

    def test_horizon_list_becomes_sorted_tuple(self):
        cfg = run_config_from_dict({"grid": {"horizons": [5, 1]}})
        assert cfg.grid.horizons == (1, 5)

    def test_digest_is_order_insensitive_and_seed_sensitive(self):
        a = config_to_dict(RunConfig(seed=1))
        b = json.loads(json.dumps(a))
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(config_to_dict(RunConfig(seed=2)))


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


class TestTrainCommand:
    def test_last_day_summary_matches_baseline_module(self, tmp_path):
        bundle, ds = make_bundle(tmp_path, days=20)
        out = str(tmp_path / "out")
        rc = main(["train", "--bundle", bundle, "--model", "last_day",
                   "--t-start", "14", "--t-end", "16", "--dt", "2",
                   "--out", out])
        assert rc == 0
        rows, _ = load_report_rows(os.path.join(out, "rows.csv"))
        assert len(rows) == 6 * ds.n
        for row in rows:
            v = ds.regions.index(row.region)
            series = ds.case_window(row.t, row.t)[v]
            assert row.prediction == last_day_predict(series, row.horizon)
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            assert json.load(fh) == range_summary(rows)
        assert read_manifest(out)["status"] == "complete"

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
        rows, _ = load_report_rows(os.path.join(out, "rows.csv"))
        assert len(rows) == 2
        manifest = read_manifest(out)
        assert manifest["status"] == "complete"
        assert manifest["config"]["train"]["hidden"] == 2

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
        rows, skip_lines = load_report_rows(os.path.join(out, "rows.csv"))
        assert not rows and len(skip_lines) == 1

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
        rows, skip_lines = load_report_rows(os.path.join(out, "rows.csv"))
        assert {(r.t, r.horizon) for r in rows} == {(15, 1)}
        assert len(skip_lines) == 1 and "largest parameters" in skip_lines[0]

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
        rows, skip_lines = load_report_rows(os.path.join(out, "rows.csv"))
        assert len(skip_lines) == 2
        assert {(r.country, r.model, r.t) for r in rows} == {
            ("AA", "MPNN", 14), ("AA", "MPNN", 15)}
        ckpts = os.listdir(os.path.join(out, "checkpoints"))
        assert "BB__MPNN_TL__meta.ckpt" in ckpts
        assert "AA__MPNN_TL__meta.ckpt" not in ckpts

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
        rows, _ = load_report_rows(os.path.join(out, "rows.csv"))
        assert {r.model for r in rows} == {"LAST_DAY"}
        assert {(r.t, r.horizon) for r in rows} == {(14, 1)}

    def test_flags_override_config_file(self, tmp_path):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path, extra={
            "models": ["last_day"],
            "grid": {"t_start": 14, "t_end": 14, "horizons": [1]}})
        out = str(tmp_path / "out")
        assert main(["train", "--bundle", bundle, "--config", cfg,
                     "--model", "avg", "--out", out]) == 0
        rows, _ = load_report_rows(os.path.join(out, "rows.csv"))
        assert {r.model for r in rows} == {"AVG"}

    def test_bad_config_file_reports_offending_key(self, tmp_path, capsys):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path, extra={"frobnicate": True})
        rc = main(["train", "--bundle", bundle, "--config", cfg,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "unknown config keys: frobnicate" in capsys.readouterr().err


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

    def assert_rescore_reproduces_skip(self, tmp_path, capsys, argv, reason):
        trained = str(tmp_path / "trained")
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
        rows, skip_lines = load_report_rows(os.path.join(out, "rows.csv"))
        assert rows and len(skip_lines) == 1 and reason in skip_lines[0]

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

    def test_rescore_keeps_transfer_skip_of_lone_country(self, tmp_path, capsys):
        bundle, _ = make_bundle(tmp_path)
        cfg = write_config(tmp_path)
        argv = ["--bundle", bundle, "--model", "mpnn_tl", "--model", "mpnn",
                "--t", "14", "--horizon", "1", "--config", cfg]
        self.assert_rescore_reproduces_skip(
            tmp_path, capsys, argv,
            "model=MPNN_TL T=14 j=1: transfer initialization needs at least "
            "one other country")

    def test_without_checkpoints_trains_in_place(self, tmp_path):
        bundle, _ = make_bundle(tmp_path)
        out = str(tmp_path / "eval")
        rc = main(["evaluate", "--bundle", bundle, "--model", "avg",
                   "--t", "14", "--horizon", "1", "--out", out])
        assert rc == 0
        rows, _ = load_report_rows(os.path.join(out, "rows.csv"))
        assert len(rows) == 2


class TestMetaTrainCommand:
    def test_matches_pipeline_meta_checkpoint(self, tmp_path):
        bundle_a, _ = make_bundle(tmp_path, country="AA")
        bundle_b, _ = make_bundle(tmp_path, country="BB")
        cfg = write_config(tmp_path)
        train_out = str(tmp_path / "train")
        rc = main(["train", "--bundle", bundle_a, "--bundle", bundle_b,
                   "--model", "mpnn_tl", "--t", "14", "--horizon", "1",
                   "--config", cfg, "--out", train_out])
        assert rc == 0
        meta_out = str(tmp_path / "meta")
        rc = main(["meta-train", "--bundle", bundle_a, "--bundle", bundle_b,
                   "--target", "AA", "--config", cfg, "--out", meta_out])
        assert rc == 0
        with open(os.path.join(train_out, "checkpoints",
                               "AA__MPNN_TL__meta.ckpt"), "rb") as fh:
            expected = fh.read()
        with open(os.path.join(meta_out, "AA__MPNN_TL__meta.ckpt"), "rb") as fh:
            assert fh.read() == expected

    def test_target_without_own_bundle(self, tmp_path):
        bundle_b, _ = make_bundle(tmp_path, country="BB")
        cfg = write_config(tmp_path)
        out = str(tmp_path / "meta")
        rc = main(["meta-train", "--bundle", bundle_b, "--target", "ZZ",
                   "--config", cfg, "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "ZZ__MPNN_TL__meta.ckpt"))

    def test_pool_of_only_the_target_rejected(self, tmp_path, capsys):
        bundle_a, _ = make_bundle(tmp_path, country="AA")
        cfg = write_config(tmp_path)
        rc = main(["meta-train", "--bundle", bundle_a, "--target", "AA",
                   "--config", cfg, "--out", str(tmp_path / "meta")])
        assert rc == 1
        assert "other than the target" in capsys.readouterr().err


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

    def test_shift_too_large_for_data_fails(self, tmp_path, capsys):
        bundle, _ = make_bundle(tmp_path, days=15)
        rc = main(["correlate", "--bundle", bundle, "--max-shift", "14",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "need more than" in capsys.readouterr().err


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
        rows, skip_lines = load_report_rows(os.path.join(merged, "rows.csv"))
        assert {r.model for r in rows} == {"LAST_DAY"}
        assert len(rows) == 2
        assert len(skip_lines) == 1 and "MPNN_TL" in skip_lines[0]
        with open(os.path.join(merged, "summary.json"), encoding="utf-8") as fh:
            assert json.load(fh) == range_summary(rows)

    def test_missing_input_fails(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "merged")])
        assert rc == 1
        assert "rows.csv" in capsys.readouterr().err


class TestDataDirResolution:
    def test_relative_bundles_resolve_against_env_var(self, tmp_path,
                                                      monkeypatch):
        make_bundle(tmp_path, country="AA")
        monkeypatch.setenv("MOBICAST_DATA", str(tmp_path / "bundles"))
        out = str(tmp_path / "out")
        rc = main(["evaluate", "--bundle", "AA", "--model", "avg",
                   "--t", "14", "--horizon", "1", "--out", out])
        assert rc == 0

    def test_absolute_paths_ignore_env_var(self, tmp_path, monkeypatch):
        bundle, _ = make_bundle(tmp_path, country="AA")
        monkeypatch.setenv("MOBICAST_DATA", str(tmp_path / "elsewhere"))
        out = str(tmp_path / "out")
        rc = main(["evaluate", "--bundle", bundle, "--model", "avg",
                   "--t", "14", "--horizon", "1", "--out", out])
        assert rc == 0


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
