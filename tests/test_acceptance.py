"""Package-level acceptance checks.

Each class pins one guarantee: autodiff gradients match central finite
differences, the first-order meta update reproduces hand-computed values,
metrics agree with brute-force reimplementations, graph normalization and
permutation symmetry hold, data access honors the rolling-origin windows,
the reference baselines are exact, the neural models beat their baselines
on seeded synthetic data, and CLI runs are byte-reproducible.
"""

import concurrent.futures
import json
import math
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mobicast import tape as tp
from mobicast.baselines import (ar_fit, avg_predict, avg_window_predict,
                                last_day_predict)
from mobicast.cli import main
from mobicast.dataio import (CountryDataset, SyntheticConfig,
                             generate_synthetic, load_bundle)
from mobicast.errors import InsufficientDataError
from mobicast.evaluation import EvalConfig, ProtocolGrid, build_model, rolling_evaluate
from mobicast.graphs import GraphSample, normalize_incoming
from mobicast.meta import MetaConfig, maml_meta_train, meta_task_step
from mobicast.models import (BaselineLSTMModel, ModelState, MPNNLSTMModel,
                             MPNNModel, stack_targets)
from mobicast.params import clone_params
from mobicast.report import CellResult, error_metric
from mobicast.rng import Rng, derive_seed
from mobicast.train import (SplitSpec, TrainConfig, loss_and_grads, make_splits,
                            predict, train_model)

from conftest import (FirstFeatureModel, TracingDataset, abs_errors,
                      prediction_sample, random_sample, scored, skips)

FD_STEP = 1e-5
FD_TOL = 1e-4


def fd_worst_rel_error(model, samples, seed=0):
    """Largest relative gap between backward() and central differences.

    Runs as a training forward (given a random stream, so batch statistics)
    with dropout disabled; every loss evaluation gets its own buffer copy so
    the in-place normalization updates cannot leak between probes.  Gradient
    pairs below the probe's cancellation noise (loss is O(100), so the
    difference quotient resolves only ~1e-8) compare against an absolute
    floor instead of each other.
    """
    state = model.init_state(Rng(seed))
    targets = stack_targets(samples)

    def loss_at(params):
        tape = tp.Tape()
        pvars = tape.bind(params)
        buffers = clone_params(state.buffers)
        preds = model.forward(tape, pvars, buffers, samples, Rng(seed))
        diff = tp.sub(preds, tape.constant(targets))
        return float(tp.mean_all(tp.square(diff)).value[0, 0])

    tape = tp.Tape()
    pvars = tape.bind(clone_params(state.params))
    buffers = clone_params(state.buffers)
    preds = model.forward(tape, pvars, buffers, samples, Rng(seed))
    loss = tp.mean_all(tp.square(tp.sub(preds, tape.constant(targets))))
    tape.backward(loss)
    worst = 0.0
    for name, var in pvars.items():
        grad = tape.grad(var)
        for idx in np.ndindex(state.params[name].shape):
            bumped = clone_params(state.params)
            bumped[name][idx] += FD_STEP
            up = loss_at(bumped)
            bumped[name][idx] -= 2.0 * FD_STEP
            down = loss_at(bumped)
            fd = (up - down) / (2.0 * FD_STEP)
            ad = float(grad[idx])
            worst = max(worst, abs(ad - fd) / max(abs(ad), abs(fd), 1e-4))
    return worst


class TestGradientAccuracy:
    def test_autodiff_matches_central_differences(self):
        start = time.monotonic()
        rng = Rng(11)
        graph_model = MPNNModel(d=7, k_layers=2, hidden=5, dropout=0.0)
        static = [random_sample(rng, n=6, d=7) for _ in range(2)]
        assert fd_worst_rel_error(graph_model, static) < FD_TOL
        seq_model = MPNNLSTMModel(d=7, k_layers=2, hidden=5,
                                  dropout=0.0, seq_len=3)
        seq = [random_sample(rng, n=6, d=7, steps=3) for _ in range(2)]
        assert fd_worst_rel_error(seq_model, seq) < FD_TOL
        history_model = BaselineLSTMModel(d=7, hidden=4)
        flat = [random_sample(rng, n=6, d=7) for _ in range(2)]
        assert fd_worst_rel_error(history_model, flat) < FD_TOL
        assert time.monotonic() - start < 30.0


class ScalarModel:
    """Predicts one shared scalar regardless of input."""

    d = 7

    def init_state(self, rng):
        return ModelState({"theta": np.zeros((1, 1))}, {})

    def forward(self, tape, pvars, buffers, samples, rng):
        ones = tape.constant(np.ones((len(samples), 1)))
        return tp.matmul(ones, pvars["theta"])


class AffineModel:
    """Predicts w * x + b from each sample's single feature entry."""

    d = 7

    def init_state(self, rng):
        return ModelState({"w": np.array([[1.0]]), "b": np.array([[0.5]])}, {})

    def forward(self, tape, pvars, buffers, samples, rng):
        x = np.array([[s.graphs[-1][1][0, 0]] for s in samples])
        return tp.add_row(tp.matmul(tape.constant(x), pvars["w"]), pvars["b"])


def point_sample(x, y):
    return GraphSample(anchor=14, horizon=1,
                       graphs=((np.eye(1), np.full((1, 7), float(x))),),
                       target=np.array([[float(y)]]))


class TestMetaUpdateHandValues:
    def test_scalar_quadratic_single_task(self):
        # theta 0 -> adapt on y=1: 0.2 -> outer grad on y=2: 2(0.2-2) = -3.6
        # -> theta' = 0 - 0.1 * -3.6 = 0.36
        model = ScalarModel()
        state = model.init_state(None)
        task = SplitSpec("Q", 14, 1, [point_sample(0.0, 1.0)],
                         [], point_sample(0.0, 2.0))
        meta_task_step(model, state, task, inner_lr=0.1, meta_step=0.1,
                       batch_size=8, rng=None)
        assert abs(state.params["theta"][0, 0] - 0.36) < 1e-12

    def test_update_is_gradient_at_adapted_parameters(self):
        model = AffineModel()
        state = model.init_state(None)
        xs, ys = (0.5, 2.0), (1.5, 0.25)
        task = SplitSpec("Q", 14, 1,
                         [point_sample(x, y) for x, y in zip(xs, ys)],
                         [], point_sample(1.5, 4.0))
        meta_task_step(model, state, task, inner_lr=0.02, meta_step=0.1,
                       batch_size=1, rng=None)
        w, b = 1.0, 0.5
        for x, y in zip(xs, ys):
            err = w * x + b - y
            w, b = w - 0.02 * 2 * err * x, b - 0.02 * 2 * err
        err_te = w * 1.5 + b - 4.0  # gradient taken at the adapted (w, b)
        assert abs(state.params["w"][0, 0] - (1.0 - 0.1 * 2 * err_te * 1.5)) < 1e-12
        assert abs(state.params["b"][0, 0] - (0.5 - 0.1 * 2 * err_te)) < 1e-12


class TestMetricFidelity:
    def test_training_loss_matches_brute_force(self):
        model = FirstFeatureModel()
        state = model.init_state(None)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            preds = rng.uniform(0.0, 5.0, n)
            actuals = rng.uniform(0.0, 5.0, n)
            brute = math.fsum((p - a) ** 2 for p, a in zip(preds, actuals)) / n
            loss, _ = loss_and_grads(model, state,
                                     [prediction_sample(preds, actuals)], None)
            assert abs(loss - brute) < 1e-10

    def test_error_metric_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            preds = rng.uniform(0.0, 50.0, n)
            actuals = rng.uniform(0.0, 50.0, n)
            cell = CellResult("X", "M", 14, 1, tuple(f"r{i}" for i in range(n)),
                              preds, actuals)
            brute = math.fsum(abs(p - a) for p, a in zip(preds, actuals)) / n
            assert abs(error_metric(cell.abs_error) - brute) < 1e-10


class TestNormalizationAndEquivariance:
    def test_rows_sum_to_one_idempotent_scale_invariant(self):
        rng = Rng(5)
        for k in range(20):
            m = rng.uniform(0.0, 9.0, (8, 8))
            if k % 3 == 0:
                m[k % 8, :] = 0.0
            norm = normalize_incoming(m)
            sums = norm.sum(axis=1)
            for i in range(8):
                if m[i].sum() > 0.0:
                    assert abs(sums[i] - 1.0) <= 1e-9
                else:
                    assert sums[i] == 0.0
            again = normalize_incoming(norm)
            assert np.max(np.abs(again - norm)) <= 1e-12
            scaled = normalize_incoming(137.0 * m)
            assert np.max(np.abs(scaled - norm)) <= 1e-12

    def test_eval_predictions_commute_with_region_permutation(self):
        model = MPNNModel(d=7, k_layers=2, hidden=8, dropout=0.0)
        state = model.init_state(Rng(3))
        rng = Rng(9)
        a = normalize_incoming(rng.uniform(0.0, 5.0, (9, 9)))
        x = rng.uniform(0.0, 20.0, (9, 7))
        def forecast(a, x):
            sample = GraphSample(anchor=0, horizon=1, graphs=((a, x),), target=None)
            return predict(model, state, [sample])

        base = forecast(a, x)
        perm_rng = np.random.default_rng(10)
        for _ in range(100):
            p = perm_rng.permutation(9)
            shuffled = forecast(a[np.ix_(p, p)], x[p])
            assert np.max(np.abs(shuffled - base[p])) < 1e-6


class TestProtocolHygiene:
    def test_every_grid_cell_reads_only_its_window(self):
        """Sweep every (T, horizon) cell of a 60-day series under tracing.

        Training and validation targets must stay at or before the anchor,
        validation must hold exactly the odd offsets back from it that have
        a full feature window, the test target must sit at T+j, and no case
        or mobility day outside the cell's window may be touched.
        """
        cfg = SyntheticConfig(n_regions=10, n_days=60, n_countries=1,
                              noise_seed=1)
        dataset = generate_synthetic(cfg)[0]
        d = 7
        completed = 0
        for t in range(14, dataset.t_total):
            for j in range(1, 15):
                if t + j > dataset.t_total:
                    continue
                traced = TracingDataset(dataset)
                try:
                    splits = make_splits(traced, t, j, d)
                except InsufficientDataError:
                    continue
                completed += 1
                assert all(s.target_day <= t for s in splits.train)
                expected = sorted({t - off for off in (1, 3, 5, 7, 9)}
                                  & set(range(d + j, t + 1)))
                assert sorted(s.target_day for s in splits.validation) == expected
                assert splits.test.target_day == t + j
                assert traced.case_days_read <= set(range(1, t + 1)) | {t + j}
                assert traced.mobility_days_read <= set(range(1, t + 1))
        assert completed > 400


class TestBaselineOracles:
    def test_history_baselines_match_brute_force_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            history = rng.integers(0, 500, (int(rng.integers(1, 6)), n)).astype(float)
            d = int(rng.integers(1, 12))
            avg = avg_predict(history)
            window = avg_window_predict(history, d=d)
            last = last_day_predict(history)
            for v, series in enumerate(history):
                assert avg[v] == math.fsum(series) / n
                tail = series[-min(d, n):]
                assert window[v] == math.fsum(tail) / len(tail)
                assert last[v] == series[-1]

    def test_ar_recovers_exact_linear_recursion(self):
        series = [10.0]
        for _ in range(29):
            series.append(0.5 * series[-1] + 1.0)
        fit = ar_fit([series], p=1, differencing=0)
        assert abs(fit.coef[0, 0] - 0.5) < 1e-8
        assert abs(fit.intercept[0] - 1.0) < 1e-8


ORDERING_TRAIN = TrainConfig(max_epochs=30, patience=15,
                             patience_start_epoch=10, hidden=16, dropout=0.2,
                             d=7, k_layers=2, lr=1e-3)


def truncated(ds, days):
    return CountryDataset(ds.country, ds.regions, ds.dates[:days],
                          ds.cases[:, :days], ds.mobility[:days])


class TestSyntheticOrdering:
    """Seeded end-to-end orderings on the default 30x90x4 synthetic suite."""

    def test_graph_model_beats_window_average(self, tmp_path):
        start = time.monotonic()
        wins = 0
        for seed in range(5):
            held = generate_synthetic(SyntheticConfig(noise_seed=seed))[0]
            grid = ProtocolGrid(t_start=22, t_end=26, dt=4,
                                horizons=tuple(range(1, 15)))
            cfg = EvalConfig(train=ORDERING_TRAIN, seed=seed, jobs=2,
                             models=("MPNN", "AVG_WINDOW"), grid=grid)
            report = rolling_evaluate([held], cfg, str(tmp_path))
            assert not skips(report)
            mpnn = error_metric(abs_errors([c for c in scored(report)
                                            if c.model == "MPNN"]))
            avgw = error_metric(abs_errors([c for c in scored(report)
                                            if c.model == "AVG_WINDOW"]))
            wins += mpnn < avgw
        assert wins >= 4
        assert time.monotonic() - start < 240.0

    def test_shared_initialization_beats_cold_start_on_scarce_data(self):
        """Warm starts must win where the target country's history is short.

        The three source countries are truncated so their outbreak phases
        line up with the held-out country's early anchors; both arms then
        fine-tune per cell with identical budgets and seeds.
        """
        start = time.monotonic()
        # The workers turn warnings into errors as pyproject.toml's pytest
        # filter does, whatever the start method: a warning fails a seed.
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=2, initializer=warnings.simplefilter,
                initargs=("error",)) as pool:
            wins = sum(pool.map(warm_start_wins, range(5)))
        assert wins >= 4
        assert time.monotonic() - start < 360.0


def warm_start_wins(seed: int) -> bool:
    """Whether the meta-trained initialization beats a cold start on one seed's
    scarce-data cells; module-level so a worker process can run it."""
    data = generate_synthetic(SyntheticConfig(noise_seed=seed))
    held = data[0]
    pool = [truncated(data[i], days) for i, days in zip((1, 2, 3), (32, 39, 46))]
    meta_cfg = MetaConfig(dt=7, meta_epochs=6, meta_lr=3e-4)
    model = build_model("MPNN", ORDERING_TRAIN)
    shared = maml_meta_train(pool, model, meta_cfg,
                             derive_seed(seed, "meta", held.country))
    cold_err, warm_err = [], []
    for t in (16, 18, 20, 22):
        for j in (1, 2, 3):
            splits = make_splits(held, t, j, 7)
            cell_seed = derive_seed(seed, held.country, t, j)
            actual = np.asarray(splits.test.target, dtype=np.float64).reshape(-1)
            cold = train_model(splits, model, ORDERING_TRAIN, cell_seed)
            warm = train_model(splits, model, ORDERING_TRAIN, cell_seed,
                               init_state=shared)
            cold = predict(model, cold.state, [splits.test])
            warm = predict(model, warm.state, [splits.test])
            cold_err.extend(np.abs(cold - actual))
            warm_err.extend(np.abs(warm - actual))
    return float(np.mean(warm_err)) < float(np.mean(cold_err))


CLI_CONFIG = {
    "train": {"max_epochs": 2, "hidden": 4, "k_layers": 1, "d": 5,
              "dropout": 0.0, "seq_len": 3},
    "meta": {"dt": 1},
}


def run_cli_pipeline(root, monkeypatch):
    monkeypatch.chdir(root)
    Path("cfg.json").write_text(json.dumps(CLI_CONFIG))
    assert main(["synth", "--out", "data", "--regions", "6", "--days", "24",
                 "--countries", "1", "--seed", "3"]) == 0
    assert main(["train", "--bundle", "data/C0", "--config", "cfg.json",
                 "--out", "out", "--seed", "3", "--model", "mpnn",
                 "--model", "last_day", "--t", "14",
                 "--horizon", "1", "--horizon", "2"]) == 0


def read_tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


class TestCliDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path, monkeypatch):
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        run_cli_pipeline(first, monkeypatch)
        run_cli_pipeline(second, monkeypatch)
        tree_a, tree_b = read_tree(first), read_tree(second)
        assert sorted(tree_a) == sorted(tree_b)
        assert any(name.endswith(".ckpt") for name in tree_a)
        assert "out/rows.csv" in tree_a and "out/summary.json" in tree_a
        assert "out/run.json" in tree_a
        for name, blob in tree_a.items():
            assert tree_b[name] == blob, f"{name} differs between runs"


class TestSuppliedBundleOrdering:
    def test_transfer_tracks_plain_model_on_supplied_bundles(self, tmp_path):
        """Optional real-data check, active only when bundles are supplied."""
        root = os.environ.get("MOBICAST_DATA")
        if not root or not os.path.isdir(root):
            pytest.skip("no bundle directory supplied via MOBICAST_DATA")
        dirs = sorted(p for p in Path(root).iterdir()
                      if (p / "manifest.json").is_file())
        if len(dirs) < 2:
            pytest.skip("need at least two country bundles for transfer")
        datasets = [load_bundle(str(p)) for p in dirs]
        horizon_cap = min(ds.t_total for ds in datasets) - 21
        if horizon_cap < 1:
            pytest.skip("bundles too short for anchors from day 21")
        grid = ProtocolGrid(t_start=21, dt=14,
                            horizons=tuple(range(1, min(14, horizon_cap) + 1)))
        cfg = EvalConfig(train=ORDERING_TRAIN,
                         meta=MetaConfig(dt=7, meta_epochs=1), seed=0,
                         models=("MPNN", "MPNN_TL"), grid=grid)
        report = rolling_evaluate(datasets, cfg, str(tmp_path))
        counted = 0
        wins = 0
        for ds in datasets:
            plain = [c for c in scored(report)
                     if c.model == "MPNN" and c.country == ds.country]
            transfer = [c for c in scored(report)
                        if c.model == "MPNN_TL" and c.country == ds.country]
            if not plain or not transfer:
                continue
            counted += 1
            wins += error_metric(abs_errors(transfer)) <= error_metric(abs_errors(plain))
        if counted == 0:
            pytest.skip("every transfer cell was skipped on these bundles")
        assert wins >= counted - 1
