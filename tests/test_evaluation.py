"""Protocol grid, metrics, correlations, the rolling driver, and reports."""

import concurrent.futures
import json
import os
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mobicast import evaluation
from mobicast import meta as meta_mod
from mobicast.baselines import ar_fit, ar_predict, avg_window_predict, last_day_predict
from mobicast.dataio import CountryDataset
from mobicast.errors import (CheckpointError, ContractError, DataError,
                             TrainingDivergedError, WriteError)
from mobicast.evaluation import EvalConfig, ProtocolGrid, rolling_evaluate
from mobicast.meta import MetaConfig
from mobicast.params import load_params
from mobicast.report import (
    ROWS_HEADER,
    CellResult,
    case_stats_table,
    cell_label,
    correlation_lines,
    correlation_table,
    emit_report,
    error_metric,
    load_report_rows,
    mobility_totals,
    pearson_shift_correlation,
    range_summary,
)
from mobicast.rng import Rng
from mobicast.train import TrainConfig

from conftest import (abs_errors, diverge_at, make_ramp_dataset, report_rows, scored,
                      skips)


def fast_config(**overrides):
    train = TrainConfig(max_epochs=1, hidden=2, k_layers=1, d=3, dropout=0.0,
                        seq_len=4, patience=50)
    meta = MetaConfig(dt=1)
    defaults = {"train": train, "meta": meta, "seed": 0}
    defaults.update(overrides)
    return EvalConfig(**defaults)


def constant_dataset(n=2, days=20, country="KK", level=5.0):
    dates = [f"2020-04-{d:02d}" for d in range(1, 29)][:days]
    if days > 28:
        raise ValueError("helper supports up to 28 days")
    cases = np.full((n, days), level)
    mobility = [np.ones((n, n)) for _ in range(days)]
    return CountryDataset(country, [f"R{i:02d}" for i in range(n)], dates,
                          cases, mobility)


def make_row(model="M", t=14, j=1, pred=1.0, actual=2.0, region="R00",
             country="AA"):
    return CellResult(country, model, t, j, (region,), np.array([float(pred)]),
                      np.array([float(actual)]))


class TestProtocolGrid:
    def test_cell_count_for_30_days(self):
        cells = [(t, j) for t, hs in ProtocolGrid(dt=14).anchors(30) for j in hs]
        assert len(cells) == 133
        assert all(t + j <= 30 for t, j in cells)
        assert len(set(cells)) == len(cells)
        assert {t for t, _ in cells} == set(range(14, 30))

    def test_t_end_capped_by_data(self):
        anchors = ProtocolGrid(t_end=25, dt=1).anchors(18)
        assert [t for t, _ in anchors] == list(range(14, 18))

    def test_explicit_horizons_sorted(self):
        grid = ProtocolGrid(horizons=(5, 1, 3))
        assert grid.horizons == (1, 3, 5)
        assert grid.anchors(20) == [(t, tuple(j for j in (1, 3, 5) if t + j <= 20))
                                    for t in range(14, 20)]

    def test_empty_when_data_too_short(self):
        assert ProtocolGrid(dt=14).anchors(14) == []
        assert ProtocolGrid(horizons=(5,)).anchors(18) == []

    def test_invalid_settings(self):
        for kwargs in ({"t_start": 13}, {"dt": 0}, {"horizons": ()},
                       {"horizons": (0,)}, {"horizons": (1, 1)},
                       {"t_start": 15, "t_end": 14}):
            with pytest.raises(ContractError):
                ProtocolGrid(**kwargs)


class TestEvalConfig:
    def test_invalid(self):
        with pytest.raises(ContractError, match="jobs"):
            EvalConfig(jobs=0)
        with pytest.raises(ContractError, match="ar_order"):
            EvalConfig(ar_differencing=2)

    def test_repeated_model_names_rejected(self):
        # each name is one set of cells, and each cell one checkpoint path
        with pytest.raises(ContractError, match="^models must be distinct$"):
            EvalConfig(models=("avg", "LAST_DAY", "AVG"))


class TestErrorMetric:
    def test_hand_example(self):
        rows = [make_row(pred=1, actual=2), make_row(pred=2, actual=2),
                make_row(pred=3, actual=5), make_row(pred=4, actual=1)]
        assert error_metric(abs_errors(rows)) == pytest.approx(1.5)

    def test_zero_when_exact(self):
        rows = [make_row(pred=7, actual=7)] * 3
        assert error_metric(abs_errors(rows)) == 0.0

    def test_symmetric_in_swap(self):
        rows = [make_row(pred=1, actual=4), make_row(pred=9, actual=2)]
        swapped = [make_row(pred=4, actual=1), make_row(pred=2, actual=9)]
        assert error_metric(abs_errors(rows)) == error_metric(abs_errors(swapped))

    def test_matches_brute_force(self):
        rng = Rng(30)
        for _ in range(1000):
            k = 1 + int(rng.random(1)[0] * 12)
            preds = rng.uniform(0.0, 100.0, (1, k))[0]
            actuals = rng.uniform(0.0, 100.0, (1, k))[0]
            rows = [make_row(pred=p, actual=a) for p, a in zip(preds, actuals)]
            total = 0.0
            for p, a in zip(preds, actuals):
                total += abs(p - a)
            assert abs(error_metric(abs_errors(rows)) - total / k) < 1e-10

    def test_empty_rejected(self):
        with pytest.raises(ContractError, match="empty"):
            error_metric([])


class TestAggregates:
    def test_per_horizon_means(self):
        rows = [make_row(model="A", j=1, pred=0, actual=1),
                make_row(model="A", j=1, pred=0, actual=3),
                make_row(model="A", j=2, pred=0, actual=10)]
        summary = range_summary(rows)["A"]
        assert (summary["1-1"], summary["2-2"]) == (2.0, 10.0)
        assert set(summary) == {"1-1", "2-2", "1-3", "1-7", "1-14"}

    def test_single_horizon_entries_are_mean_error_per_horizon(self):
        rng = Rng(33)
        rows = [make_row(model=m, t=t, j=j, pred=float(rng.random(1)[0]),
                         actual=float(rng.random(1)[0]), region=f"R{v}")
                for m in ("A", "B") for t in (14, 15) for j in (1, 3, 7, 14)
                for v in range(3) if (m, j) != ("B", 7)]
        summary = range_summary(rows)
        for model in ("A", "B"):
            for j in (1, 3, 7, 14):
                errors = [abs(r.prediction[0] - r.actual[0]) for r in rows
                          if r.model == model and r.horizon == j]
                if not errors:
                    assert f"{j}-{j}" not in summary[model]
                    continue
                assert summary[model][f"{j}-{j}"] == pytest.approx(
                    sum(errors) / len(errors), abs=1e-12)

    def test_range_summary_weights_by_rows(self):
        rows = ([make_row(model="A", j=1, pred=0, actual=1)] * 3
                + [make_row(model="A", j=4, pred=0, actual=9)]
                + [make_row(model="B", j=2, pred=0, actual=5)])
        summary = range_summary(rows)
        assert summary["A"]["1-3"] == pytest.approx(1.0)
        assert summary["A"]["1-7"] == pytest.approx((3 * 1 + 9) / 4)
        assert summary["A"]["1-14"] == pytest.approx(3.0)
        assert summary["B"] == {"1-3": 5.0, "1-7": 5.0, "1-14": 5.0, "2-2": 5.0}

    def test_range_summary_recomputable_from_per_horizon(self):
        rng = Rng(31)
        rows = []
        for t in (14, 15, 16):
            for j in range(1, 15):
                for v in range(3):
                    rows.append(make_row(model="A", t=t, j=j,
                                         pred=float(rng.random(1)[0]),
                                         actual=float(rng.random(1)[0]),
                                         region=f"R{v}"))
        summary = range_summary(rows)["A"]
        counts = {j: sum(1 for r in rows if r.horizon == j) for j in range(1, 15)}
        for lo, hi in ((1, 3), (1, 7), (1, 14)):
            weighted = sum(summary[f"{j}-{j}"] * counts[j] for j in range(lo, hi + 1))
            weighted /= sum(counts[j] for j in range(lo, hi + 1))
            assert summary[f"{lo}-{hi}"] == pytest.approx(
                weighted, abs=1e-12)


class TestPearsonShiftCorrelation:
    def test_perfect_positive(self):
        assert pearson_shift_correlation([1, 2, 3, 4], [0, 1, 2, 3, 4], 1) \
            == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_shift_correlation([1, 2, 3, 4], [9, 8, 7, 6], 1) \
            == pytest.approx(-1.0)

    def test_constant_series_missing(self):
        assert pearson_shift_correlation([5, 5, 5, 5], [1, 2, 3, 4], 1) is None
        assert pearson_shift_correlation([1, 2, 3, 4], [7, 7, 7, 7], 0) is None

    def test_affine_invariance(self):
        rng = Rng(33)
        m = rng.uniform(0.0, 10.0, (1, 20))[0]
        c = rng.uniform(0.0, 10.0, (1, 20))[0]
        base = pearson_shift_correlation(m, c, 3)
        assert pearson_shift_correlation(3.5 * m + 11.0, c, 3) \
            == pytest.approx(base, abs=1e-12)
        assert pearson_shift_correlation(m, 0.25 * c - 2.0, 3) \
            == pytest.approx(base, abs=1e-12)

    def test_matches_numpy(self):
        rng = Rng(34)
        for _ in range(50):
            m = rng.uniform(0.0, 10.0, (1, 15))[0]
            c = rng.uniform(0.0, 10.0, (1, 15))[0]
            s = int(rng.random(1)[0] * 5)
            expected = np.corrcoef(m[:15 - s], c[s:])[0, 1]
            assert pearson_shift_correlation(m, c, s) == pytest.approx(
                expected, abs=1e-10)

    def test_too_short_rejected(self):
        with pytest.raises(ContractError, match="need more than"):
            pearson_shift_correlation([1, 2, 3], [1, 2, 3], 2)


class TestMobilityAndStats:
    def test_mobility_totals_hand_value(self):
        ds = constant_dataset(n=2, days=2)
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        mobility = [m, np.ones((2, 2))]
        ds = CountryDataset("KK", ["R00", "R01"], ds.dates[:2],
                            np.full((2, 2), 5.0), mobility)
        totals = mobility_totals(ds)
        # in + out - self: [3+4-1, 7+6-4] on day one
        assert np.allclose(totals[:, 0], [6.0, 9.0])
        assert np.allclose(totals[:, 1], [3.0, 3.0])

    def test_correlation_table_matches_direct_calls(self):
        ds = make_ramp_dataset(n=3, days=25)
        rows = correlation_table(ds, shifts=(1, 2))
        assert len(rows) == 6
        totals = mobility_totals(ds)
        cases = ds.case_window(ds.t_total, ds.t_total)
        for country, region, shift, value in rows:
            v = ds.regions.index(region)
            expected = pearson_shift_correlation(totals[v], cases[v], shift)
            assert country == ds.country
            if expected is None:
                assert value is None
            else:
                assert value == pytest.approx(expected, abs=1e-12)

    def test_case_stats_hand_values(self):
        ds = make_ramp_dataset(n=3, days=5)  # day t: cases (t, 2t, 3t)
        rows = case_stats_table(ds)
        assert len(rows) == 5
        country, day, date, mean, std, diff = rows[3]
        assert (country, day, date) == (ds.country, 4, ds.dates[3])
        assert mean == pytest.approx(8.0)
        assert std == pytest.approx(float(np.std([4.0, 8.0, 12.0])))
        assert diff == pytest.approx(8.0)


class TestRollingEvaluate:
    def test_last_day_wiring_matches_baselines_module(self, tmp_path):
        ds = make_ramp_dataset(n=2, days=20)
        grid = ProtocolGrid(t_end=16, dt=2)
        report = rolling_evaluate([ds], fast_config(models=["LAST_DAY"], grid=grid), str(tmp_path))
        assert not skips(report)
        assert len(report_rows(report)) == sum(len(hs) for _, hs in grid.anchors(20)) * 2
        for cell in scored(report):
            assert cell.regions == ds.regions
            history = ds.case_window(cell.t, cell.t)
            assert np.array_equal(cell.prediction, last_day_predict(history))
            assert np.array_equal(cell.actual, ds.cases_on(cell.t + cell.horizon))

    def test_avg_window_and_ar_wiring(self, tmp_path):
        ds = make_ramp_dataset(n=2, days=20)
        grid = ProtocolGrid(t_end=14, dt=1)
        cfg = fast_config(models=["AVG_WINDOW", "AR"], grid=grid)
        report = rolling_evaluate([ds], cfg, str(tmp_path))
        for cell in scored(report):
            history = ds.case_window(cell.t, cell.t)
            if cell.model == "AVG_WINDOW":
                expected = avg_window_predict(history, d=cfg.train.d)
            else:
                fit = ar_fit(history, p=cfg.ar_order,
                             differencing=cfg.ar_differencing)
                expected = ar_predict(fit, history, j=cell.horizon)
            assert np.array_equal(cell.prediction, expected)

    def test_ar_fits_once_per_anchor(self, monkeypatch, tmp_path):
        fits = []

        def counting_fit(history, **kwargs):
            fits.append(history.shape)
            return ar_fit(history, **kwargs)

        monkeypatch.setattr(evaluation, "ar_fit", counting_fit)
        ds = make_ramp_dataset(n=2, days=20)
        cfg = fast_config(models=["AR"], grid=ProtocolGrid(t_end=15, horizons=(1, 2, 3)))
        report = rolling_evaluate([ds], cfg, str(tmp_path))
        assert [(c.t, c.horizon) for c in scored(report)] == [
            (t, j) for t in (14, 15) for j in (1, 2, 3)]
        assert fits == [(2, 14), (2, 15)]
        for cell in scored(report):   # each horizon forecasts from its anchor's fit
            history = ds.case_window(cell.t, cell.t)
            fit = ar_fit(history, p=cfg.ar_order, differencing=cfg.ar_differencing)
            assert np.array_equal(cell.prediction,
                                  ar_predict(fit, history, j=cell.horizon))
        rolling_evaluate([ds], cfg, str(tmp_path))   # no fit outlives its run
        assert len(fits) == 4

    def test_persistence_is_exact_on_constant_series(self, tmp_path):
        ds = constant_dataset(n=2, days=20, level=6.0)
        grid = ProtocolGrid(t_end=17, dt=2)
        report = rolling_evaluate([ds], fast_config(models=["LAST_DAY"], grid=grid), str(tmp_path))
        assert scored(report) and all((c.abs_error == 0.0).all() for c in scored(report))

    def test_neural_cells_and_row_order(self, tmp_path):
        ds = make_ramp_dataset(n=2, days=20)
        grid = ProtocolGrid(t_end=15, dt=1)
        report = rolling_evaluate([ds], fast_config(models=["MPNN", "AVG"], grid=grid),
                                  str(tmp_path))
        assert not skips(report)
        keys = [row[:5] for row in report_rows(scored(report))]
        assert keys == sorted(keys, key=lambda k: (k[0], ["MPNN", "AVG"].index(k[1]),
                                                   k[2], k[3], k[4]))
        assert all(np.isfinite(c.prediction).all() and (c.prediction >= 0.0).all()
                   for c in scored(report))

    def test_insufficient_cells_skipped_with_reason(self, tmp_path):
        ds = make_ramp_dataset(n=2, days=16)
        cfg = fast_config(train=TrainConfig(max_epochs=1, hidden=2, k_layers=1,
                                            d=13, dropout=0.0),
                          models=["MPNN"], grid=ProtocolGrid(t_end=15, dt=1))
        report = rolling_evaluate([ds], cfg, str(tmp_path))
        assert [(c, m, t, j) for c, m, t, j, _ in skips(report)] == \
               [(ds.country, "MPNN", 14, 1)]
        assert "validation" in skips(report)[0][4]
        assert {(c.t, c.horizon) for c in scored(report)} == {(15, 1)}

    def test_transfer_needs_second_country(self, tmp_path):
        ds = make_ramp_dataset(n=2, days=16)
        report = rolling_evaluate([ds], fast_config(
            models=["MPNN_TL"], grid=ProtocolGrid(t_end=14, dt=1)), str(tmp_path))
        assert not scored(report)
        assert all("other country" in reason for *_, reason in skips(report))

    def test_transfer_runs_with_two_countries(self, tmp_path):
        datasets = [make_ramp_dataset(n=2, days=18, country="AA"),
                    make_ramp_dataset(n=2, days=18, country="BB")]
        grid = ProtocolGrid(t_end=14, dt=1)
        report = rolling_evaluate(datasets, fast_config(models=["MPNN_TL"], grid=grid),
                                  str(tmp_path))
        assert not skips(report)
        assert {c.country for c in scored(report)} == {"AA", "BB"}

    def test_cells_reproducible_regardless_of_grid(self, tmp_path):
        ds = make_ramp_dataset(n=2, days=20)
        cfg = fast_config(models=["MPNN"], grid=ProtocolGrid(t_end=16, dt=1))
        wide = rolling_evaluate([ds], cfg, str(tmp_path))
        narrow = rolling_evaluate([ds], replace(
            cfg, grid=ProtocolGrid(t_start=16, t_end=16, dt=1)), str(tmp_path))
        wide_cell = [c for c in scored(wide) if c.t == 16]
        assert report_rows(wide_cell) == report_rows(scored(narrow))

    def test_repeat_run_identical(self, tmp_path):
        datasets = [make_ramp_dataset(n=2, days=18, country="AA"),
                    make_ramp_dataset(n=2, days=18, country="BB")]
        grid = ProtocolGrid(t_end=15, dt=1)
        cfg = fast_config(models=["MPNN", "LAST_DAY", "TL_BASE"], grid=grid)
        a = rolling_evaluate(datasets, cfg, str(tmp_path))
        b = rolling_evaluate(datasets, cfg, str(tmp_path))
        assert report_rows(scored(a)) == report_rows(scored(b)) and skips(a) == skips(b)

    def test_parallel_matches_serial(self, tmp_path):
        ds = make_ramp_dataset(n=2, days=18)
        grid = ProtocolGrid(t_end=15, dt=1)
        cfg = fast_config(models=["MPNN", "AVG"], grid=grid)
        serial = rolling_evaluate([ds], cfg, str(tmp_path))
        parallel = rolling_evaluate([ds], replace(cfg, jobs=2), str(tmp_path))
        assert report_rows(scored(serial)) == report_rows(scored(parallel))
        assert skips(serial) == skips(parallel)

    def test_bad_requests_rejected(self, tmp_path):
        ds = make_ramp_dataset(n=2, days=20)
        grid = ProtocolGrid(dt=1)
        # a bad model list is rejected when the config is built
        with pytest.raises(ContractError, match="unknown model"):
            fast_config(models=["PROPHET"], grid=grid)
        with pytest.raises(ContractError, match="at least one model"):
            fast_config(models=[], grid=grid)
        with pytest.raises(ContractError, match="duplicate countries"):
            rolling_evaluate([ds, ds], fast_config(models=["AVG"], grid=grid), str(tmp_path))
        with pytest.raises(ContractError, match="at least one country"):
            rolling_evaluate([], fast_config(models=["AVG"], grid=grid), str(tmp_path))
        short = make_ramp_dataset(n=2, days=14)
        with pytest.raises(ContractError, match="grid is empty"):
            rolling_evaluate([short], fast_config(models=["AVG"], grid=grid), str(tmp_path))


class TestDivergedCells:
    MESSAGE = ("non-finite loss at epoch 1, batch 0; largest parameters: "
               "agg1.w: |max|=3.000e+200")

    def test_diverged_cell_skipped_and_other_rows_kept(self, monkeypatch, tmp_path):
        ds = make_ramp_dataset(n=2, days=18)
        grid = ProtocolGrid(t_end=15, dt=1)
        cfg = fast_config(models=["MPNN", "AVG"], grid=grid)
        clean = rolling_evaluate([ds], cfg, str(tmp_path))
        monkeypatch.setattr(evaluation, "train_model", diverge_at(14, self.MESSAGE))
        report = rolling_evaluate([ds], cfg, str(tmp_path))
        assert skips(report) == [(ds.country, "MPNN", 14, 1,
                                   f"training diverged: {self.MESSAGE}")]
        assert report_rows(scored(report)) == report_rows(
            [c for c in scored(clean) if (c.model, c.t) != ("MPNN", 14)])

    def test_diverged_meta_training_skips_only_transfer_cells(self, monkeypatch, tmp_path):
        datasets = [make_ramp_dataset(n=2, days=18, country="AA"),
                    make_ramp_dataset(n=2, days=18, country="BB")]

        def maml_meta_train(foreign, model, config, seed):
            raise TrainingDivergedError("non-finite loss during adaptation")

        monkeypatch.setattr(evaluation, "maml_meta_train", maml_meta_train)
        report = rolling_evaluate(datasets, fast_config(
            models=["MPNN_TL", "LAST_DAY"], grid=ProtocolGrid(t_end=14, dt=1)), str(tmp_path))
        assert [(c, m) for c, m, *_ in skips(report)] == [("AA", "MPNN_TL"),
                                                         ("BB", "MPNN_TL")]
        assert all("meta-training failed: non-finite loss" in reason
                   for *_, reason in skips(report))
        assert {(c.country, c.model) for c in scored(report)} == {
            ("AA", "LAST_DAY"), ("BB", "LAST_DAY")}


def with_huge_cases(ds, country, days=None):
    """A copy of ds named `country` whose region 0 reports 1.7e308 cases on
    the given 1-based days, or on every day when days is None."""
    cases = ds.cases.copy()
    cases[0, slice(None) if days is None else [day - 1 for day in days]] = 1.7e308
    return CountryDataset(country, ds.regions, ds.dates, cases, ds.mobility)


def read_files(directory):
    return {path.name: path.read_bytes() for path in sorted(Path(directory).iterdir())}


def checkpoint_kinds(directory):
    return {name: load_params(os.path.join(directory, name))[2]["kind"]
            for name in sorted(os.listdir(directory))}


class TestNonFiniteForecasts:
    """A forward pass that overflows skips its cell as diverged; it never
    fails the grid.  numpy's overflow warnings are expected here."""

    MODELS = ["LSTM", "MPNN", "MPNN_LSTM"]
    GRID = ProtocolGrid(t_end=15, dt=1)

    def test_overflowing_country_skips_only_its_cells(self, tmp_path):
        clean = make_ramp_dataset(n=2, days=18, country="AA")
        huge = with_huge_cases(clean, "BB")
        cfg = fast_config(models=self.MODELS, grid=self.GRID)
        ck = str(tmp_path / "ck")
        with np.errstate(over="ignore", invalid="ignore"):
            report = rolling_evaluate([clean, huge], cfg, checkpoint_dir=ck)
            rescored = rolling_evaluate([clean, huge], cfg, checkpoint_dir=ck,
                                        load_only=True)
        assert report_rows(scored(report)) == report_rows(
            scored(rolling_evaluate([clean], cfg, str(tmp_path))))
        assert [cell[:4] for cell in skips(report)] == [
            ("BB", model, t, 1) for model in self.MODELS for t in (14, 15)]
        assert all(reason.startswith("training diverged: non-finite ")
                   for *_, reason in skips(report))
        assert [reason for _, model, _, _, reason in skips(report)
                if model == "MPNN"] == [
            "training diverged: non-finite forecast with the parameters of epoch 0: "
            "matmul: produced non-finite values"] * 2
        assert {name for name, kind in checkpoint_kinds(ck).items()
                if kind == "mobicast-skip"} == {
            f"BB__{model}__T{t}_j1.ckpt" for model in self.MODELS for t in (14, 15)}
        assert report_rows(scored(rescored)) == report_rows(scored(report))
        assert skips(rescored) == skips(report)

    def test_overflowing_test_forecast_skips_and_rescore_writes_nothing(self, tmp_path):
        clean = make_ramp_dataset(n=2, days=18, country="AA")
        # days 13-14 feed no validation sample, only the T=14 test sample and
        # a training sample that zero epochs never fit
        huge = with_huge_cases(clean, "AA", days=(13, 14))
        cfg = fast_config(models=["MPNN"], grid=ProtocolGrid(t_end=14, dt=1),
                          train=replace(fast_config().train, max_epochs=0))
        reason = ("training diverged: non-finite forecast with the parameters "
                  "of epoch 0: matmul: produced non-finite values")
        trained, rescored = str(tmp_path / "trained"), str(tmp_path / "rescored")
        with np.errstate(over="ignore", invalid="ignore"):
            report = rolling_evaluate([huge], cfg, checkpoint_dir=trained)
            assert skips(report) == [("AA", "MPNN", 14, 1, reason)]
            assert checkpoint_kinds(trained) == {"AA__MPNN__T14_j1.ckpt": "mobicast-skip"}
            rolling_evaluate([clean], cfg, checkpoint_dir=rescored)
            before = read_files(rescored)
            report = rolling_evaluate([huge], cfg, checkpoint_dir=rescored,
                                      load_only=True)
        assert skips(report) == [("AA", "MPNN", 14, 1, reason)]
        assert read_files(rescored) == before

    def test_non_finite_shared_state_fails_meta_training(self, tmp_path, monkeypatch):
        def meta_task_step(model, state, task, *args):
            state.params = {name: np.full_like(arr, np.inf)
                            for name, arr in state.params.items()}

        monkeypatch.setattr(meta_mod, "meta_task_step", meta_task_step)
        datasets = [make_ramp_dataset(n=2, days=18, country="AA"),
                    make_ramp_dataset(n=2, days=18, country="BB")]
        ck = str(tmp_path / "ck")
        report = rolling_evaluate(datasets, fast_config(
            models=["MPNN_TL"], grid=ProtocolGrid(t_end=14, dt=1)), checkpoint_dir=ck)
        assert [cell[:2] for cell in skips(report)] == [("AA", "MPNN_TL"),
                                                        ("BB", "MPNN_TL")]
        assert all(reason.startswith("meta-training failed: non-finite shared state: ")
                   for *_, reason in skips(report))
        assert checkpoint_kinds(ck) == {"AA__MPNN_TL__T14_j1.ckpt": "mobicast-skip",
                                        "BB__MPNN_TL__T14_j1.ckpt": "mobicast-skip"}

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "one overflowing country disables transfer for every other country: "
        "_CellContext.foreign hands it to AA's meta-training and TL_BASE cells"))
    def test_overflowing_country_leaves_others_transfer(self, tmp_path):
        clean = make_ramp_dataset(n=2, days=18, country="AA")
        huge = with_huge_cases(clean, "BB")
        cfg = fast_config(models=["MPNN_TL", "TL_BASE"], grid=self.GRID)
        with np.errstate(over="ignore", invalid="ignore"):
            report = rolling_evaluate([clean, huge], cfg, str(tmp_path))
        assert [cell[:4] for cell in skips(report) if cell[0] == "AA"] == []
        assert {(c.country, c.model) for c in scored(report)} >= {
            ("AA", "MPNN_TL"), ("AA", "TL_BASE")}


class TestPoolMetaTraining:
    MODELS = ["MPNN_TL", "TL_BASE", "MPNN"]
    GRID = ProtocolGrid(t_end=15, dt=1)

    @staticmethod
    def two_countries():
        return [make_ramp_dataset(n=2, days=18, country="AA"),
                make_ramp_dataset(n=3, days=18, country="BB", seed=1)]

    def config(self, jobs):
        return fast_config(jobs=jobs, models=self.MODELS, grid=self.GRID)

    def run(self, tmp_path, name, jobs):
        ckpt_dir = tmp_path / name
        report = rolling_evaluate(self.two_countries(), self.config(jobs),
                                  checkpoint_dir=str(ckpt_dir))
        files = {p.name: p.read_bytes() for p in ckpt_dir.iterdir()}
        return report, files

    def test_pool_matches_serial_byte_for_byte(self, tmp_path):
        serial, serial_files = self.run(tmp_path, "serial", jobs=1)
        pooled, pooled_files = self.run(tmp_path, "pooled", jobs=2)
        assert not skips(serial)
        assert report_rows(scored(pooled)) == report_rows(scored(serial))
        assert skips(pooled) == skips(serial)
        assert {"AA__MPNN_TL__meta.ckpt", "BB__MPNN_TL__meta.ckpt",
                "AA__MPNN_TL__T14_j1.ckpt", "BB__TL_BASE__T15_j1.ckpt"} <= \
            set(serial_files)
        assert len(serial_files) == 2 + 2 * len(self.MODELS) * 2
        assert pooled_files == serial_files

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_meta_training_in_worker_skips_only_its_target(
            self, monkeypatch, jobs, tmp_path):
        clean = rolling_evaluate(self.two_countries(), self.config(jobs=jobs), str(tmp_path))
        real = evaluation.maml_meta_train

        def maml_meta_train(foreign, model, config, seed):
            if [ds.country for ds in foreign] == ["BB"]:   # target AA
                raise TrainingDivergedError("non-finite loss during adaptation")
            return real(foreign, model, config, seed)

        monkeypatch.setattr(evaluation, "maml_meta_train", maml_meta_train)
        report = rolling_evaluate(self.two_countries(), self.config(jobs=jobs), str(tmp_path))
        assert skips(report) == [
            ("AA", "MPNN_TL", t, 1,
             "meta-training failed: non-finite loss during adaptation")
            for t in (14, 15)]
        assert report_rows(scored(report)) == report_rows(
            [c for c in scored(clean) if (c.country, c.model) != ("AA", "MPNN_TL")])


class TestPoolFailure:
    def test_error_in_one_cell_cancels_queued_cells(self, tmp_path, monkeypatch):
        real = evaluation.train_model

        def train_model(splits, model, config, seed, init_state=None):
            if splits.t == 14:
                raise ContractError("cell T=14 fails")
            time.sleep(0.3)
            return real(splits, model, config, seed, init_state=init_state)

        monkeypatch.setattr(evaluation, "train_model", train_model)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        ds = make_ramp_dataset(n=2, days=35)
        cfg = fast_config(models=["MPNN"], jobs=2, grid=ProtocolGrid(t_end=33, dt=1))
        ckpt_dir = tmp_path / "ckpts"
        with pytest.raises(ContractError, match="cell T=14 fails"):
            rolling_evaluate([ds], cfg, checkpoint_dir=str(ckpt_dir))
        # only cells already handed to the 2 workers finish; the other 19 would
        # take about 3 s at 0.3 s each
        assert len(list(ckpt_dir.glob("*.ckpt"))) < 10


class TestInProcessSchedule:
    def test_error_in_one_cell_stops_the_grid(self, tmp_path, monkeypatch):
        real = evaluation.train_model
        trained = []

        def train_model(splits, model, config, seed, init_state=None):
            trained.append(splits.t)
            if splits.t == 14:
                raise ContractError("cell T=14 fails")
            return real(splits, model, config, seed, init_state=init_state)

        monkeypatch.setattr(evaluation, "train_model", train_model)
        ds = make_ramp_dataset(n=2, days=35)
        cfg = fast_config(models=["AVG", "MPNN"], grid=ProtocolGrid(t_end=33, dt=1))
        ckpt_dir = tmp_path / "ckpts"
        with pytest.raises(ContractError, match="cell T=14 fails"):
            rolling_evaluate([ds], cfg, checkpoint_dir=str(ckpt_dir))
        assert trained == [14]
        assert list(ckpt_dir.iterdir()) == []

    def test_cells_bypass_the_pool_entry_point(self, tmp_path, monkeypatch):
        """The benchmark tracer counts every _run_cell call as a forked
        worker's cell, so an in-process grid must never make one."""
        def pool_only(task):
            raise AssertionError("an in-process cell went through _run_cell")

        monkeypatch.setattr(evaluation, "_run_cell", pool_only)
        datasets = TestPoolMetaTraining.two_countries()
        cfg = fast_config(models=["MPNN_TL", "MPNN", "LAST_DAY"],
                          grid=ProtocolGrid(t_end=15, dt=1))
        ckpt_dir = str(tmp_path / "ckpts")
        report = rolling_evaluate(datasets, cfg, checkpoint_dir=ckpt_dir)
        again = rolling_evaluate(datasets, replace(cfg, jobs=2),
                                 checkpoint_dir=ckpt_dir, load_only=True)
        assert not skips(report)
        assert report_rows(scored(again)) == report_rows(scored(report))
        assert skips(again) == skips(report)

    def test_meta_tasks_then_cells_in_grid_order(self, monkeypatch, tmp_path):
        calls = []
        real_meta, real_cell = evaluation.maml_meta_train, evaluation.evaluate_cell

        def maml_meta_train(datasets, model, config, seed):
            calls.append(("meta", *(ds.country for ds in datasets)))
            return real_meta(datasets, model, config, seed)

        def evaluate_cell(ctx, *task):
            calls.append(task[:4])
            return real_cell(ctx, *task)

        monkeypatch.setattr(evaluation, "maml_meta_train", maml_meta_train)
        monkeypatch.setattr(evaluation, "evaluate_cell", evaluate_cell)
        datasets = TestPoolMetaTraining.two_countries()
        cfg = fast_config(models=["MPNN_TL", "MPNN", "AR"],
                          grid=ProtocolGrid(t_end=15, dt=2))
        report = rolling_evaluate(datasets, cfg, str(tmp_path))
        assert not skips(report)
        # each target's meta-training learns from the other country
        assert calls[:2] == [("meta", "BB"), ("meta", "AA")]
        # a trainable unit is one cell; an AR unit holds both of its anchor's horizons
        assert calls[2:] == [
            (country, model, t, horizons) for country in ("AA", "BB")
            for model in ("MPNN_TL", "MPNN", "AR") for t in (14, 15)
            for horizons in ([(1, 2)] if model == "AR" else [(1,), (2,)])]
        assert [cell.key for cell in report] == [
            (country, model, t, j) for country in ("AA", "BB")
            for model in ("MPNN_TL", "MPNN", "AR") for t in (14, 15) for j in (1, 2)]


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and runs each
    submitted task in-process, so no worker is ever started."""
    max_workers = []

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


class TestWorkerCount:
    @pytest.fixture(autouse=True)
    def recording_pool(self, monkeypatch):
        RecordingExecutor.max_workers = []
        monkeypatch.setattr(evaluation, "_CELL_CTX", None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingExecutor)

    def test_never_more_workers_than_tasks(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        ds = make_ramp_dataset(n=2, days=18)
        cfg = fast_config(models=["LAST_DAY"], grid=ProtocolGrid(t_end=15, dt=1))
        report = rolling_evaluate([ds], replace(cfg, jobs=1000), str(tmp_path))
        assert RecordingExecutor.max_workers == [2]
        serial = rolling_evaluate([ds], cfg, str(tmp_path))
        assert report_rows(scored(report)) == report_rows(scored(serial))
        assert skips(report) == skips(serial)

    def test_meta_tasks_count_as_work(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        datasets = [make_ramp_dataset(n=2, days=18, country="AA"),
                    make_ramp_dataset(n=2, days=18, country="BB")]
        cfg = fast_config(models=["MPNN_TL"], grid=ProtocolGrid(t_end=14, dt=1),
                          jobs=1000)
        report = rolling_evaluate(datasets, cfg, str(tmp_path))
        assert RecordingExecutor.max_workers == [4]   # 2 meta tasks, 2 cells
        assert not skips(report)

    @pytest.mark.parametrize("cpus,workers", [(3, 3), (None, 1)])
    def test_never_more_workers_than_cpus(self, monkeypatch, cpus, workers, tmp_path):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        ds = make_ramp_dataset(n=2, days=20)
        cfg = fast_config(models=["LAST_DAY", "AVG"], jobs=1000,
                          grid=ProtocolGrid(t_end=19, dt=1))
        rolling_evaluate([ds], cfg, str(tmp_path))
        assert RecordingExecutor.max_workers == [workers]


class TestForeignList:
    """_CellContext.foreign is what each country transfers from: every other
    country, in request order, for meta-training and TL_BASE alike."""

    GRID = ProtocolGrid(t_end=15, dt=1)

    @staticmethod
    def three_countries():
        return [make_ramp_dataset(n=2 + k, days=18, country=name, seed=k)
                for k, name in enumerate(("AA", "BB", "CC"))]

    @staticmethod
    def record_foreign(monkeypatch):
        """What maml_meta_train and tl_base_train receive, as country lists."""
        seen = []
        real_meta, real_base = evaluation.maml_meta_train, evaluation.tl_base_train

        def maml_meta_train(foreign, model, config, seed):
            seen.append(("meta", [ds.country for ds in foreign]))
            return real_meta(foreign, model, config, seed)

        def tl_base_train(foreign, splits, model, config, seed):
            seen.append((splits.country, splits.t, [ds.country for ds in foreign]))
            return real_base(foreign, splits, model, config, seed)

        monkeypatch.setattr(evaluation, "maml_meta_train", maml_meta_train)
        monkeypatch.setattr(evaluation, "tl_base_train", tl_base_train)
        return seen

    def test_each_target_gets_the_others_in_request_order(self, monkeypatch, tmp_path):
        seen = self.record_foreign(monkeypatch)
        cfg = fast_config(models=["MPNN_TL", "TL_BASE"], grid=self.GRID)
        report = rolling_evaluate(self.three_countries(), cfg, str(tmp_path))
        assert not skips(report)
        assert seen == [("meta", ["BB", "CC"]), ("meta", ["AA", "CC"]),
                        ("meta", ["AA", "BB"])] + [
            (target, t, others) for target, others in (
                ("AA", ["BB", "CC"]), ("BB", ["AA", "CC"]), ("CC", ["AA", "BB"]))
            for t in (14, 15)]
        serial = list(seen)
        seen.clear()
        # the pool stand-in runs each task as submitted: meta tasks, then
        # the TL_BASE cells in grid order, as in-process
        RecordingExecutor.max_workers = []
        monkeypatch.setattr(evaluation, "_CELL_CTX", None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        pooled = rolling_evaluate(self.three_countries(), replace(cfg, jobs=2), str(tmp_path))
        assert len(RecordingExecutor.max_workers) == 1
        assert seen == serial
        assert report_rows(scored(pooled)) == report_rows(scored(report))
        assert skips(pooled) == skips(report)

    def test_one_country_submits_no_meta_task(self, monkeypatch, tmp_path):
        seen = self.record_foreign(monkeypatch)
        submitted = []
        real = evaluation._meta_task

        def meta_task(ctx, target):
            submitted.append(target)
            return real(ctx, target)

        monkeypatch.setattr(evaluation, "_meta_task", meta_task)
        report = rolling_evaluate(self.three_countries()[:1], fast_config(
            models=["MPNN_TL"], grid=self.GRID), str(tmp_path))
        assert skips(report) == [
            ("AA", "MPNN_TL", t, 1, "transfer initialization needs at least one "
                                    "other country") for t in (14, 15)]
        assert submitted == [] and seen == []


class TestBaselineUnits:
    """A baseline unit scores every horizon of its anchor, so AR fits once
    per (country, T) whichever process runs the unit."""

    def test_one_pool_task_and_one_fit_per_anchor(self, monkeypatch, tmp_path):
        fits, tasks = [], []

        def counting_fit(history, **kwargs):
            fits.append(history.shape)
            return ar_fit(history, **kwargs)

        real_run_cell = evaluation._run_cell

        def recording_run_cell(task):
            tasks.append(task[1])
            return real_run_cell(task)

        monkeypatch.setattr(evaluation, "ar_fit", counting_fit)
        monkeypatch.setattr(evaluation, "_run_cell", recording_run_cell)
        monkeypatch.setattr(evaluation, "_CELL_CTX", None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        RecordingExecutor.max_workers = []
        ds = make_ramp_dataset(n=2, days=20)
        cfg = fast_config(models=["AR", "AVG"], jobs=2,
                          grid=ProtocolGrid(t_end=15, horizons=(1, 2, 3)))
        report = rolling_evaluate([ds], cfg, str(tmp_path))
        assert tasks == [(ds.country, model, t, (1, 2, 3))
                         for model in ("AR", "AVG") for t in (14, 15)]
        assert fits == [(2, 14), (2, 15)]
        assert RecordingExecutor.max_workers == [2]
        assert [cell.key for cell in report] == [
            (ds.country, model, t, j) for model in ("AR", "AVG") for t in (14, 15)
            for j in (1, 2, 3)]
        assert not skips(report)

    def test_forked_workers_fit_once_per_anchor(self, tmp_path, monkeypatch):
        log = tmp_path / "fits.txt"

        def logging_fit(history, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:   # one append per fit
                fh.write(f"{history.shape[1]}\n")
            return ar_fit(history, **kwargs)

        ds = make_ramp_dataset(n=2, days=30)
        cfg = fast_config(models=["AR"], grid=ProtocolGrid(t_end=21, horizons=(1, 3, 7)))
        serial = rolling_evaluate([ds], cfg, str(tmp_path))
        monkeypatch.setattr(evaluation, "ar_fit", logging_fit)   # workers inherit it
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pooled = rolling_evaluate([ds], replace(cfg, jobs=2), str(tmp_path))
        assert sorted(int(t) for t in log.read_text().split()) == list(range(14, 22))
        assert report_rows(scored(pooled)) == report_rows(scored(serial))
        assert skips(pooled) == skips(serial) == []


class TestCheckpointReuse:
    def run_with_checkpoints(self, tmp_path, models=("MPNN",)):
        datasets = [make_ramp_dataset(n=2, days=18, country="AA"),
                    make_ramp_dataset(n=2, days=18, country="BB")]
        cfg = fast_config(models=models, grid=ProtocolGrid(t_end=15, dt=1))
        ckpt_dir = str(tmp_path / "ckpts")
        report = rolling_evaluate(datasets, cfg, checkpoint_dir=ckpt_dir)
        return datasets, cfg, ckpt_dir, report

    def test_checkpoint_files_written(self, tmp_path):
        _, _, ckpt_dir, _ = self.run_with_checkpoints(
            tmp_path, models=("MPNN", "MPNN_TL"))
        names = sorted(os.listdir(ckpt_dir))
        assert "AA__MPNN__T14_j1.ckpt" in names
        assert "AA__MPNN_TL__meta.ckpt" in names
        assert "BB__MPNN_TL__T15_j1.ckpt" in names

    def test_reload_reproduces_rows(self, tmp_path):
        datasets, cfg, ckpt_dir, report = self.run_with_checkpoints(
            tmp_path, models=("MPNN", "LAST_DAY"))
        again = rolling_evaluate(datasets, cfg, checkpoint_dir=ckpt_dir,
                                 load_only=True)
        assert report_rows(scored(again)) == report_rows(scored(report))

    def test_reload_trains_nothing_and_stays_in_process(self, tmp_path,
                                                        monkeypatch):
        models = ("MPNN_TL", "TL_BASE", "MPNN_LSTM", "AR")
        datasets, cfg, ckpt_dir, report = self.run_with_checkpoints(
            tmp_path, models=models)

        def forbidden(*args, **kwargs):
            raise AssertionError("a load-only grid must not train or fork")

        for name in ("maml_meta_train", "train_model", "tl_base_train",
                     "save_checkpoint"):
            monkeypatch.setattr(evaluation, name, forbidden)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
        again = rolling_evaluate(datasets, replace(cfg, jobs=2),
                                 checkpoint_dir=ckpt_dir, load_only=True)
        assert report_rows(scored(again)) == report_rows(scored(report))
        assert skips(again) == skips(report) == []

    def test_missing_checkpoint_names_cell(self, tmp_path):
        datasets, cfg, ckpt_dir, _ = self.run_with_checkpoints(tmp_path)
        os.remove(os.path.join(ckpt_dir, "BB__MPNN__T15_j1.ckpt"))
        with pytest.raises(CheckpointError,
                           match="country=BB model=MPNN T=15 j=1"):
            rolling_evaluate(datasets, cfg, checkpoint_dir=ckpt_dir,
                             load_only=True)


class TestSkipRecords:
    """Every trainable cell's outcome is its checkpoint record, a data skip
    and a lone country's MPNN_TL skip included, so a rescore reads each skip
    back and looks at neither the cell's data nor its foreign countries."""

    # an 11-day sequence leaves MPNN_LSTM no validation sample at T=14, and a
    # lone country leaves MPNN_TL nothing to transfer from
    CONFIG = fast_config(train=TrainConfig(max_epochs=1, hidden=2, k_layers=1, d=3,
                                           dropout=0.0, seq_len=11),
                         models=["MPNN_LSTM", "MPNN_TL", "AVG"],
                         grid=ProtocolGrid(t_end=14, dt=1))

    def train(self, tmp_path, jobs=1):
        """The grid's dataset, checkpoint directory and rows.csv path."""
        ds = make_ramp_dataset(n=2, days=18, country="AA")
        ckpt_dir = tmp_path / f"ckpts{jobs}"
        cells = rolling_evaluate([ds], replace(self.CONFIG, jobs=jobs),
                                 checkpoint_dir=str(ckpt_dir))
        return ds, ckpt_dir, emit_report(cells, str(tmp_path / f"trained{jobs}"))["rows"]

    def test_each_skip_is_recorded_with_its_skip_line(self, tmp_path):
        _, ckpt_dir, rows = self.train(tmp_path)
        keys = [("AA", "MPNN_LSTM", 14, 1), ("AA", "MPNN_TL", 14, 1)]
        records = {name: load_params(str(ckpt_dir / name))[2]
                   for name in os.listdir(ckpt_dir)}
        assert sorted(records) == [evaluation.checkpoint_name(*key) for key in keys]
        lines = Path(rows).read_text().splitlines()
        assert lines[len(keys)] == ROWS_HEADER
        for key, line in zip(keys, lines):
            meta = records[evaluation.checkpoint_name(*key)]
            assert meta["kind"] == "mobicast-skip"
            assert line == f"# skipped {cell_label(key)}: {meta['reason']}"
        assert "no validation samples" in lines[0]
        assert "needs at least one other country" in lines[1]

    def test_records_match_whatever_the_jobs(self, tmp_path):
        trees = [read_files(self.train(tmp_path, jobs)[1]) for jobs in (1, 2)]
        assert len(trees[0]) == 2 and trees[0] == trees[1]

    def test_rescore_reads_skips_without_splits_or_foreign(self, tmp_path, monkeypatch):
        ds, ckpt_dir, rows = self.train(tmp_path)

        def forbidden(*args, **kwargs):
            raise AssertionError("a recorded skip needs no splits or foreign countries")

        monkeypatch.setattr(evaluation, "make_splits", forbidden)
        monkeypatch.setattr(evaluation._CellContext, "foreign", forbidden)
        cells = rolling_evaluate([ds], self.CONFIG, checkpoint_dir=str(ckpt_dir),
                                 load_only=True)
        rescored = emit_report(cells, str(tmp_path / "rescored"))["rows"]
        assert Path(rescored).read_bytes() == Path(rows).read_bytes()

    def test_missing_data_skip_record_names_cell(self, tmp_path):
        ds, ckpt_dir, _ = self.train(tmp_path)
        os.remove(ckpt_dir / "AA__MPNN_LSTM__T14_j1.ckpt")
        with pytest.raises(CheckpointError, match="missing checkpoint for cell "
                                                  "country=AA model=MPNN_LSTM T=14 j=1"):
            rolling_evaluate([ds], self.CONFIG, checkpoint_dir=str(ckpt_dir),
                             load_only=True)


class TestEmitReport:
    def sample_report(self, checkpoint_dir):
        ds = make_ramp_dataset(n=2, days=20)
        grid = ProtocolGrid(t_end=16, dt=2)
        report = rolling_evaluate([ds], fast_config(models=["LAST_DAY", "AVG"],
                                                    grid=grid), checkpoint_dir)
        report.append(CellResult(ds.country, "MPNN_LSTM", 14, 1, reason="window too wide"))
        return report

    def test_round_trip_preserves_aggregates(self, tmp_path):
        report = self.sample_report(str(tmp_path))
        paths = emit_report(report, str(tmp_path / "report"))
        loaded = load_report_rows(paths["rows"])
        cells = scored(loaded)
        assert len(skips(loaded)) == 1
        assert error_metric(abs_errors(cells)) == pytest.approx(
            error_metric(abs_errors(scored(report))), abs=1e-9)
        assert range_summary(cells) == range_summary(scored(report))
        with open(paths["summary"], encoding="utf-8") as fh:
            assert json.load(fh) == range_summary(scored(report))

    def test_skip_reason_quoting_a_cell_label_reads_back(self, tmp_path):
        # a region id quoted in a non-finite forecast's reason can hold any text
        cell = CellResult("AA", "AVG", 14, 1, reason="non-finite forecast: inf for "
                                                      "region 'x model=X T=3 j=2: y'")
        paths = emit_report([cell], str(tmp_path))
        (loaded,) = load_report_rows(paths["rows"])
        assert (loaded.key, loaded.reason) == (cell.key, cell.reason)

    def test_ids_the_dataset_accepts_read_back(self, tmp_path):
        # a tab, a unit separator (\x1f, which str.splitlines() keeps) and non-ASCII
        ds = CountryDataset("A\u00e9", ["r\t1", "r\x1f2"], ["2020-03-01"], [[1], [2]],
                            [np.eye(2)])
        cell = CellResult(ds.country, "AVG", 20, 1, ds.regions, np.array([1.5, 2.0]),
                          np.array([1.0, 2.0]))
        (loaded,) = load_report_rows(emit_report([cell], str(tmp_path))["rows"])
        assert (loaded.key, loaded.regions) == (cell.key, ds.regions)

    def test_rows_are_streamed_in_bounded_memory(self, tmp_path):
        regions = tuple(f"R{i:03d}" for i in range(100))
        rng = np.random.default_rng(0)
        cells = [CellResult("AA", "MPNN", 40 + c // 3, 1 + c % 3, regions,
                            rng.random(100) * 100, rng.random(100) * 100)
                 for c in range(1000)]
        tracemalloc.start()
        try:
            paths = emit_report(cells, str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with open(paths["rows"], encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 100_001
        # measured on 100,000 rows (a 7.0 MB rows.csv): 4.0 MB, almost all of
        # it range_summary's arrays; holding rows.csv's lines, their join and
        # its encoding took 26.4 MB
        assert peak < 6 << 20

    @staticmethod
    def hundred_thousand_rows(model):
        """1,000 cells of 100 regions: horizons 1, 7 and 14 at each anchor."""
        regions = tuple(f"R{i:03d}" for i in range(100))
        rng = np.random.default_rng(0)
        return [CellResult("AA", model, 40 + c // 3, (1, 7, 14)[c % 3], regions,
                           rng.random(100) * 100, rng.random(100) * 100)
                for c in range(1000)]

    def test_summary_holds_no_per_row_model_names(self, tmp_path):
        cells = self.hundred_thousand_rows("MPNN_LSTM")
        tracemalloc.start()
        try:
            paths = emit_report(cells, str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with open(paths["summary"], encoding="utf-8") as fh:
            assert sorted(json.load(fh)["MPNN_LSTM"]) == ["1-1", "1-14", "1-3", "1-7",
                                                          "14-14", "7-7"]
        # measured on 100,000 rows (a 7.5 MB rows.csv): 2.2 MB, the errors
        # of every cell and of the widest range; a fixed-width array of the
        # rows' model names, 36 bytes a row, took it to 5.9 MB
        assert peak < 3.5 * 2**20

    def test_rows_are_read_back_in_bounded_memory(self, tmp_path):
        cells = self.hundred_thousand_rows("MPNN_LSTM")
        rows = emit_report(cells, str(tmp_path))["rows"]
        expected = [(cell.key, cell.prediction[-1]) for cell in cells]
        del cells
        tracemalloc.start()
        try:
            loaded = load_report_rows(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [(cell.key, cell.prediction[-1]) for cell in loaded] == expected
        # measured on the same 7.5 MB rows.csv: 2.2 MB, almost all of it the
        # 1,000 cells returned, which share one regions tuple; holding the
        # text, its lines and a tuple per row took 35.8 MB
        assert peak < 3 * 2**20

    def test_byte_deterministic(self, tmp_path):
        report = self.sample_report(str(tmp_path))
        paths_a = emit_report(report, str(tmp_path / "a"))
        paths_b = emit_report(report, str(tmp_path / "b"))
        for key in paths_a:
            with open(paths_a[key], "rb") as fa, open(paths_b[key], "rb") as fb:
                assert fa.read() == fb.read()

    def test_empty_report(self, tmp_path):
        paths = emit_report([], str(tmp_path))
        with open(paths["rows"], encoding="utf-8") as fh:
            assert fh.read() == ("country,model,T,horizon,region,prediction,"
                                 "actual,abs_error\n")
        with open(paths["summary"], encoding="utf-8") as fh:
            assert json.load(fh) == {}
        assert sorted(os.listdir(tmp_path)) == ["rows.csv", "summary.json"]

    def test_summary_of_errors_near_float_limit_is_finite_json(self, tmp_path):
        # LAST_DAY forecasts 1.7e308 for days whose actual count is 0, so
        # every range's errors sum past the float64 limit
        ds = constant_dataset(n=2, days=20, country="HH")
        cases = np.zeros((2, 20))
        cases[:, :14] = 1.7e308
        ds = CountryDataset(ds.country, ds.regions, ds.dates, cases, ds.mobility)
        grid = ProtocolGrid(t_start=14, t_end=14, horizons=(1, 2, 3))
        report = rolling_evaluate([ds], fast_config(models=["LAST_DAY"], grid=grid), str(tmp_path))
        assert abs_errors(scored(report)).tolist() == [1.7e308] * 6
        paths = emit_report(report, str(tmp_path))

        def reject(name):
            raise AssertionError(f"summary.json holds {name}")

        with open(paths["summary"], encoding="utf-8") as fh:
            summary = json.load(fh, parse_constant=reject)
        assert set(summary["LAST_DAY"]) == {"1-3", "1-7", "1-14", "1-1", "2-2", "3-3"}
        for mean in summary["LAST_DAY"].values():
            assert mean == pytest.approx(1.7e308, rel=1e-15)

    def test_skip_lines_precede_header(self, tmp_path):
        report = self.sample_report(str(tmp_path))
        paths = emit_report(report, str(tmp_path))
        with open(paths["rows"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("# skipped country=")
        assert lines[1] == "country,model,T,horizon,region,prediction,actual,abs_error"

    def test_missing_correlation_is_empty_cell(self):
        lines = correlation_lines([("AA", "R00", 1, None), ("AA", "R01", 1, 0.5)])
        assert lines[0] == "region,shift,pearson"
        assert lines[1] == "AA/R00,1,"
        assert lines[2] == "AA/R01,1,0.5"

    def test_write_failure_names_path(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        # not a DataError, which evaluate_cell would record as a skipped cell
        with pytest.raises(WriteError, match="cannot create directory .*blocked") as exc:
            emit_report([], str(blocker))
        assert not isinstance(exc.value, DataError)

    def test_malformed_reload_rejected(self, tmp_path):
        bad = tmp_path / "rows.csv"
        bad.write_text("not,a,report\n")
        with pytest.raises(DataError, match="not a rows.csv"):
            load_report_rows(str(bad))

    @pytest.mark.parametrize("row", [
        "AA,MPNN,x,1,r0,1.0,2.0,1.0",
        "AA,MPNN,14,1.5,r0,1.0,2.0,1.0",
        "AA,MPNN,14,1,r0,one,2.0,1.0",
        "AA,MPNN,14,1,r0,1.0,,1.0",
        "AA,MPNN,14,1,r0,1.0,2.0",
    ], ids=["T", "horizon", "prediction", "actual", "width"])
    def test_malformed_row_names_file_and_row(self, tmp_path, row):
        bad = tmp_path / "rows.csv"
        bad.write_text("country,model,T,horizon,region,prediction,actual,abs_error\n"
                       f"{row}\n")
        with pytest.raises(DataError, match=f"rows.csv: malformed row '{row}'"):
            load_report_rows(str(bad))

    def test_malformed_row_reported_before_earlier_cells_faults(self, tmp_path):
        # rows are read one cell at a time, yet the file's first parse error
        # still comes before a cell fault, and a bad skip line before that
        bad = tmp_path / "rows.csv"
        rows = ["country,model,T,horizon,region,prediction,actual,abs_error",
                "AA,AVG,14,1,r0,nan,2.0,1.0", "AA,AVG,15,1,r0,1.0,2.0,1.0",
                "AA,AVG,15,1,r0,1.0,2.0,1.0", "AA,AVG,16,1,r0,1.0"]
        bad.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="malformed row 'AA,AVG,16,1,r0,1.0'"):
            load_report_rows(str(bad))
        bad.write_text("\n".join(rows[:-1]) + "\n")
        with pytest.raises(DataError, match="line 2: prediction nan and actual 2.0"):
            load_report_rows(str(bad))
        bad.write_text("\n".join(["# nonsense", "# skipped country=AA model=AVG T=14 "
                                                "j=1: x"] + rows) + "\n")
        with pytest.raises(DataError, match="unrecognized skip line '# nonsense'"):
            load_report_rows(str(bad))
        bad.write_text("# nonsense\n")
        with pytest.raises(DataError, match="not a rows.csv report"):
            load_report_rows(str(bad))
