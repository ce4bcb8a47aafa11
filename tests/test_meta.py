"""Cross-country transfer: task grids, the two-level update, fine-tuning in
the MPNN_TL grid cells, and pooled training."""

import math
import os
from dataclasses import asdict

import numpy as np
import pytest

import mobicast.meta as meta_mod
from mobicast import evaluation
from mobicast import tape as tp
from mobicast.errors import (
    CheckpointError,
    ContractError,
    InsufficientDataError,
    TrainingDivergedError,
)
from mobicast.evaluation import EvalConfig, ProtocolGrid, rolling_evaluate
from mobicast.graphs import GraphSample, assemble_samples
from mobicast.meta import (
    MetaConfig,
    enumerate_tasks,
    maml_meta_train,
    meta_task_step,
    save_meta_state,
    tl_base_train,
)
from mobicast.models import ModelState, MPNNModel, model_spec
from mobicast.params import load_params
from mobicast.report import error_metric
from mobicast.rng import Rng, derive_seed
from mobicast.train import (Checkpoint, SplitSpec, TrainConfig, load_checkpoint,
                            make_splits, predict, train_model)

from conftest import TracingDataset, abs_errors, make_ramp_dataset, scored, skips


def scalar_sample(x, y, anchor=14, horizon=1):
    target = None if y is None else np.array([[float(y)]])
    return GraphSample(anchor=anchor, horizon=horizon,
                       graphs=((np.eye(1), np.array([[float(x)]])),),
                       target=target)


class ThetaModel:
    """Predicts one shared scalar regardless of input; loss (theta - y)^2."""

    d = 7

    def init_state(self, rng):
        return ModelState({"theta": np.zeros((1, 1))}, {})

    def forward(self, tape, pvars, buffers, samples, mode, rng):
        ones = tape.constant(np.ones((len(samples), 1)))
        return tp.matmul(ones, pvars["theta"])


class AffineModel:
    """Predicts w * x + b from each sample's single feature entry."""

    d = 7

    def init_state(self, rng):
        return ModelState({"w": np.array([[1.0]]), "b": np.array([[0.5]])}, {})

    def forward(self, tape, pvars, buffers, samples, mode, rng):
        x = np.array([[s.graphs[-1][1][0, 0]] for s in samples])
        return tp.add_row(tp.matmul(tape.constant(x), pvars["w"]), pvars["b"])


class BufferPokingModel(ThetaModel):
    def init_state(self, rng):
        return ModelState({"theta": np.zeros((1, 1))}, {"count": np.zeros((1, 1))})

    def forward(self, tape, pvars, buffers, samples, mode, rng):
        buffers["count"][0, 0] += 1.0
        return super().forward(tape, pvars, buffers, samples, mode, rng)


def tiny_mpnn():
    return MPNNModel(d=3, k_layers=1, hidden=2, dropout=0.0)


class TestMetaConfig:
    def test_defaults(self):
        cfg = MetaConfig()
        assert (cfg.inner_lr, cfg.meta_lr) == (1e-3, 1e-3)
        assert (cfg.dt, cfg.t_start, cfg.meta_epochs) == (14, 14, 1)

    def test_zero_step_sizes_allowed(self):
        MetaConfig(inner_lr=0.0, meta_lr=0.0)

    def test_invalid(self):
        non_finite = [{key: value} for key in ("inner_lr", "meta_lr")
                      for value in (math.nan, math.inf, -math.inf)]
        for kwargs in ({"inner_lr": -1.0}, {"meta_lr": -0.5}, {"dt": 0},
                       {"t_start": 13}, {"batch_size": 0}, {"meta_epochs": -1},
                       *non_finite):
            with pytest.raises(ContractError):
                MetaConfig(**kwargs)


class TestEnumerateTasks:
    def test_grid_with_boundary_skips(self):
        ds = make_ramp_dataset(n=2, days=16)
        tasks = enumerate_tasks(ds, MetaConfig(dt=2), 7)
        assert [(t.t, t.horizon) for t in tasks] == [(14, 1), (14, 2), (15, 1)]

    def test_single_task(self):
        ds = make_ramp_dataset(n=2, days=15)
        tasks = enumerate_tasks(ds, MetaConfig(dt=1), 7)
        assert [(t.t, t.horizon) for t in tasks] == [(14, 1)]

    def test_matches_brute_force_grid(self):
        ds = make_ramp_dataset(n=2, days=20)
        cfg = MetaConfig(dt=3)
        tasks = enumerate_tasks(ds, cfg, 7)
        got = [(t.t, t.horizon) for t in tasks]
        expected = sorted((t, j) for t in range(14, 21) for j in range(1, 4)
                          if t + j <= 20)
        assert got == expected
        assert len(got) == len(set(got))

    def test_task_contents(self):
        ds = make_ramp_dataset(n=2, days=18)
        for task in enumerate_tasks(ds, MetaConfig(dt=2), 7):
            assert task.country == ds.country
            assert all(s.target_day <= task.t for s in task.train)
            assert task.test.target_day == task.t + task.horizon
            assert task.test.target is not None

    def test_anchors_start_at_the_first_full_window(self):
        # with d above t_start, anchors 14 and 15 have no d-day window
        ds = make_ramp_dataset(n=2, days=19)
        tasks = enumerate_tasks(ds, MetaConfig(dt=2), 16)
        assert [(t.t, t.horizon) for t in tasks] == [(16, 1), (16, 2), (17, 1),
                                                     (17, 2), (18, 1)]
        assert tasks[0].train == [] and tasks[0].test.anchor == 16
        assert all(s.anchor >= 16 for t in tasks for s in t.train)

    def test_empty_grid_rejected(self):
        ds = make_ramp_dataset(n=2, days=14)  # day 15 never exists
        with pytest.raises(InsufficientDataError, match="no tasks"):
            enumerate_tasks(ds, MetaConfig(dt=14), 7)


class TestMetaTaskStep:
    def test_scalar_quadratic_hand_values(self):
        # adapt toward y=1: theta_t = 0 - 0.1 * 2(0-1) = 0.2
        # held-out y=2:     theta   = 0 - 0.1 * 2(0.2-2) = 0.36
        model = ThetaModel()
        state = model.init_state(None)
        task = SplitSpec("Q", 14, 1, [scalar_sample(0.0, 1.0)],
                         [], scalar_sample(0.0, 2.0))
        meta_task_step(model, state, task, inner_lr=0.1, meta_step=0.1,
                       batch_size=8, rng=None)
        assert abs(state.params["theta"][0, 0] - 0.36) < 1e-12

    def test_zero_meta_step_leaves_parameters(self):
        model = ThetaModel()
        state = model.init_state(None)
        task = SplitSpec("Q", 14, 1, [scalar_sample(0.0, 1.0)],
                         [], scalar_sample(0.0, 2.0))
        meta_task_step(model, state, task, inner_lr=0.1, meta_step=0.0,
                       batch_size=8, rng=None)
        assert np.array_equal(state.params["theta"], np.zeros((1, 1)))

    def test_zero_inner_lr_is_plain_step_on_held_out(self):
        model = ThetaModel()
        state = model.init_state(None)
        task = SplitSpec("Q", 14, 1, [scalar_sample(0.0, 1.0)],
                         [], scalar_sample(0.0, 2.0))
        meta_task_step(model, state, task, inner_lr=0.0, meta_step=0.1,
                       batch_size=8, rng=None)
        assert abs(state.params["theta"][0, 0] - 0.4) < 1e-12  # 0 - 0.1*2(0-2)

    def test_empty_adaptation_set_equivalent_to_zero_inner_lr(self):
        model = ThetaModel()
        state = model.init_state(None)
        task = SplitSpec("Q", 14, 1, [], [], scalar_sample(0.0, 2.0))
        meta_task_step(model, state, task, inner_lr=0.7, meta_step=0.1,
                       batch_size=8, rng=None)
        assert abs(state.params["theta"][0, 0] - 0.4) < 1e-12

    def test_two_parameter_gradient_taken_at_adapted_point(self):
        model = AffineModel()
        state = model.init_state(None)
        w0, b0 = 1.0, 0.5
        x_tr, y_tr, x_te, y_te = 3.0, 10.0, 2.0, 4.0
        inner_lr, meta_step = 0.01, 0.05
        task = SplitSpec("Q", 14, 1, [scalar_sample(x_tr, y_tr)],
                         [], scalar_sample(x_te, y_te))
        meta_task_step(model, state, task, inner_lr=inner_lr,
                       meta_step=meta_step, batch_size=8, rng=None)
        err = w0 * x_tr + b0 - y_tr
        w_t = w0 - inner_lr * 2 * err * x_tr
        b_t = b0 - inner_lr * 2 * err
        err_te = w_t * x_te + b_t - y_te  # evaluated at the adapted point
        assert abs(state.params["w"][0, 0] - (w0 - meta_step * 2 * err_te * x_te)) < 1e-12
        assert abs(state.params["b"][0, 0] - (b0 - meta_step * 2 * err_te)) < 1e-12

    def test_sequential_batches(self):
        model = AffineModel()
        state = model.init_state(None)
        xs, ys = [1.0, 2.0, 3.0], [2.0, 3.0, 5.0]
        task = SplitSpec("Q", 14, 1,
                         [scalar_sample(x, y) for x, y in zip(xs, ys)],
                         [], scalar_sample(1.5, 4.0))
        meta_task_step(model, state, task, inner_lr=0.02, meta_step=0.1,
                       batch_size=1, rng=None)
        w, b = 1.0, 0.5
        for x, y in zip(xs, ys):
            err = w * x + b - y
            w, b = w - 0.02 * 2 * err * x, b - 0.02 * 2 * err
        err_te = w * 1.5 + b - 4.0
        assert abs(state.params["w"][0, 0] - (1.0 - 0.1 * 2 * err_te * 1.5)) < 1e-12
        assert abs(state.params["b"][0, 0] - (0.5 - 0.1 * 2 * err_te)) < 1e-12

    def test_buffers_accumulate_into_shared_state(self):
        # one adaptation batch plus the held-out forward: two pokes
        model = BufferPokingModel()
        state = model.init_state(None)
        task = SplitSpec("Q", 14, 1, [scalar_sample(0.0, 1.0)],
                         [], scalar_sample(0.0, 2.0))
        meta_task_step(model, state, task, inner_lr=0.1, meta_step=0.1,
                       batch_size=8, rng=None)
        assert state.buffers["count"][0, 0] == 2.0

    def test_non_finite_loss_reported(self):
        model = ThetaModel()
        state = ModelState({"theta": np.full((1, 1), 1e200)}, {})
        task = SplitSpec("Q", 14, 1, [scalar_sample(0.0, 1.0)],
                         [], scalar_sample(0.0, 2.0))
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingDivergedError, match="adaptation"):
                meta_task_step(model, state, task, inner_lr=0.1, meta_step=0.1,
                               batch_size=8, rng=None)


def first_target(sample):
    return float(np.asarray(sample.target).reshape(-1)[0])


def shared_scalar_reference(datasets, cfg):
    """Plain-float replay of the two-level update with the scalar model."""
    theta = 0.0
    step = cfg.meta_lr / len(datasets)
    task_lists = [enumerate_tasks(ds, cfg, ThetaModel.d) for ds in datasets]
    for _ in range(cfg.meta_epochs):
        for tasks in task_lists:
            for task in tasks:
                ys = [first_target(s) for s in task.train]
                th = theta
                for start in range(0, len(ys), cfg.batch_size):
                    chunk = ys[start:start + cfg.batch_size]
                    th -= cfg.inner_lr * 2 * (th - float(np.mean(chunk)))
                theta -= step * 2 * (th - first_target(task.test))
    return theta


class TestMamlMetaTrain:
    def test_single_country_matches_reference(self):
        ds = make_ramp_dataset(n=1, days=16)
        cfg = MetaConfig(inner_lr=0.1, meta_lr=0.1, dt=2, batch_size=3)
        state = maml_meta_train([ds], ThetaModel(), cfg, 0)
        expected = shared_scalar_reference([ds], cfg)
        assert abs(state.params["theta"][0, 0] - expected) < 1e-12

    def test_step_scaled_by_country_count(self):
        datasets = [make_ramp_dataset(n=1, days=15, country="AA"),
                    make_ramp_dataset(n=1, days=15, country="BB")]
        cfg = MetaConfig(inner_lr=0.1, meta_lr=0.1, dt=1)
        state = maml_meta_train(datasets, ThetaModel(), cfg, 0)
        expected = shared_scalar_reference(datasets, cfg)
        assert abs(state.params["theta"][0, 0] - expected) < 1e-12
        lone = maml_meta_train([datasets[0]], ThetaModel(), cfg, 0)
        assert state.params["theta"][0, 0] != lone.params["theta"][0, 0]

    def test_multiple_epochs(self):
        ds = make_ramp_dataset(n=1, days=15)
        cfg = MetaConfig(inner_lr=0.05, meta_lr=0.05, dt=1, meta_epochs=3)
        state = maml_meta_train([ds], ThetaModel(), cfg, 0)
        expected = shared_scalar_reference([ds], cfg)
        assert abs(state.params["theta"][0, 0] - expected) < 1e-12

    def test_deterministic_for_seed(self):
        datasets = [make_ramp_dataset(n=2, days=16, country="AA"),
                    make_ramp_dataset(n=3, days=16, country="BB")]
        cfg = MetaConfig(inner_lr=1e-3, meta_lr=1e-3, dt=1)
        a = maml_meta_train(datasets, tiny_mpnn(), cfg, 4)
        b = maml_meta_train(datasets, tiny_mpnn(), cfg, 4)
        assert {k: v.tobytes() for k, v in a.params.items()} == \
               {k: v.tobytes() for k, v in b.params.items()}

    def test_zero_meta_lr_returns_initialization(self):
        ds = make_ramp_dataset(n=2, days=16)
        cfg = MetaConfig(meta_lr=0.0, dt=1)
        model = tiny_mpnn()
        state = maml_meta_train([ds], model, cfg, 9)
        init = model.init_state(Rng(9).spawn("init"))
        for key, arr in init.params.items():
            assert np.array_equal(state.params[key], arr)

    def test_no_countries_rejected(self):
        with pytest.raises(ContractError, match="at least one country"):
            maml_meta_train([], tiny_mpnn(), MetaConfig(), 0)


def transfer_config(models=("MPNN_TL",), grid=ProtocolGrid(dt=1), **train):
    settings = dict(max_epochs=0, hidden=2, k_layers=1, d=3, dropout=0.0)
    settings.update(train)
    return EvalConfig(train=TrainConfig(**settings), meta=MetaConfig(dt=1),
                      models=models, grid=grid)


def transfer_cell(country, t, seed=0):
    """The cell record an MPNN_TL (country, t, j=1) checkpoint holds."""
    return {"country": country, "model_name": "MPNN_TL", "t": t, "horizon": 1,
            "cell_seed": derive_seed(seed, country, t, 1)}


def two_countries(days=16, cls=lambda ds: ds):
    return [cls(make_ramp_dataset(n=3, days=days, country="AA")),
            cls(make_ramp_dataset(n=2, days=days, country="BB", seed=1))]


class TestFineTune:
    """MPNN_TL grid cells start from their country's meta-trained state."""

    def test_zero_epochs_keeps_shared_parameters(self, tmp_path):
        report = rolling_evaluate(two_countries(), transfer_config(),
                                  checkpoint_dir=str(tmp_path))
        assert not skips(report)
        for country in ("AA", "BB"):
            shared, _, _ = load_params(
                str(tmp_path / f"{country}__MPNN_TL__meta.ckpt"))
            for t in (14, 15):
                ckpt = load_checkpoint(
                    str(tmp_path / f"{country}__MPNN_TL__T{t}_j1.ckpt"), tiny_mpnn(),
                    transfer_cell(country, t))
                for key, arr in shared.items():
                    assert np.array_equal(ckpt.state.params[key], arr)
        assert sorted(os.listdir(tmp_path)) == [
            f"{c}__MPNN_TL__{cell}.ckpt" for c in ("AA", "BB")
            for cell in ("T14_j1", "T15_j1", "meta")]

    def test_mean_error_averages_cells(self, tmp_path):
        datasets = two_countries()
        report = rolling_evaluate(datasets, transfer_config(),
                                  checkpoint_dir=str(tmp_path))
        maes = []
        for t in (14, 15):
            ckpt = load_checkpoint(str(tmp_path / f"AA__MPNN_TL__T{t}_j1.ckpt"),
                                   tiny_mpnn(), transfer_cell("AA", t))
            splits = make_splits(datasets[0], t, 1, 3)
            forecast = predict(ckpt.model, ckpt.state, [splits.test])
            actual = np.asarray(splits.test.target).reshape(-1)
            maes.append(np.mean(np.abs(forecast - actual)))
        cells = [c for c in scored(report) if c.country == "AA"]
        assert error_metric(abs_errors(cells)) == pytest.approx(float(np.mean(maes)),
                                                                rel=1e-12)

    def test_cells_without_validation_are_skipped(self):
        report = rolling_evaluate(two_countries(), transfer_config(d=13))
        assert sorted({(c.country, c.t) for c in scored(report)}) == [
            ("AA", 15), ("BB", 15)]
        assert [(c, t, j) for c, _, t, j, _ in skips(report)] == [
            ("AA", 14, 1), ("BB", 14, 1)]
        assert all("no validation samples" in reason
                   for *_, reason in skips(report))

    def test_warm_start_stays_near_converged_error(self, monkeypatch):
        datasets = two_countries(days=15)
        splits = make_splits(datasets[0], 14, 1, 3)
        converged = train_model(splits, tiny_mpnn(),
                                TrainConfig(max_epochs=25, lr=1e-2, dropout=0.0), 1)
        actual = np.asarray(splits.test.target).reshape(-1)
        forecast = predict(converged.model, converged.state, [splits.test])
        base = float(np.mean(np.abs(forecast - actual)))
        monkeypatch.setattr(evaluation, "maml_meta_train",
                            lambda foreign, model, config, seed: converged.state)
        report = rolling_evaluate(datasets, transfer_config(max_epochs=1))
        cells = [c for c in scored(report) if c.country == "AA"]
        assert {c.t for c in cells} == {14}
        assert error_metric(abs_errors(cells)) <= base * 1.1 + 0.5

    def test_cells_read_only_the_target(self, monkeypatch):
        foreign = two_countries(cls=TracingDataset)
        target = make_ramp_dataset(n=2, days=16, country="CC")
        real = evaluation.evaluate_cell
        reads = []

        def traced_cell(ctx, country, model_name, t, j, shared=None):
            for ds in foreign:   # forget the reads of earlier cells and meta-training
                ds.case_days_read.clear()
                ds.mobility_days_read.clear()
            result = real(ctx, country, model_name, t, j, shared)
            if country == "CC":
                reads.append([(ds.case_days_read, ds.mobility_days_read)
                              for ds in foreign])
            return result

        monkeypatch.setattr(evaluation, "evaluate_cell", traced_cell)
        report = rolling_evaluate([*foreign, target],
                                  transfer_config(max_epochs=1))
        assert not skips(report)
        assert reads == [[(set(), set())] * 2] * 2

    def test_transfer_reads_foreign_days_after_the_target_date(self, monkeypatch):
        """What transfer reads by default, stated so that a calendar cutoff
        on foreign data flips a named test: AA's meta-training and its
        TL_BASE cell at T read BB's case days dated after AA's date at T,
        through BB's last day."""
        aa, bb = two_countries(days=18, cls=TracingDataset)
        t = 14
        reads = {}
        real_meta, real_cell = evaluation._meta_task, evaluation.evaluate_cell

        def meta_task(ctx, target):
            bb.case_days_read.clear()
            outcome = real_meta(ctx, target)
            if target == "AA":
                reads["MPNN_TL meta"] = set(bb.case_days_read)
            return outcome

        def traced_cell(ctx, country, model_name, t, j, shared=None):
            bb.case_days_read.clear()
            result = real_cell(ctx, country, model_name, t, j, shared)
            if (country, model_name) == ("AA", "TL_BASE"):
                reads["TL_BASE"] = set(bb.case_days_read)
            return result

        monkeypatch.setattr(evaluation, "_meta_task", meta_task)
        monkeypatch.setattr(evaluation, "evaluate_cell", traced_cell)
        report = rolling_evaluate([aa, bb], transfer_config(
            models=("MPNN_TL", "TL_BASE"), grid=ProtocolGrid(t_end=t, dt=1)))
        assert not skips(report)
        target_date = aa.dates[t - 1]
        assert sorted(reads) == ["MPNN_TL meta", "TL_BASE"]
        for what, days in reads.items():
            later = sorted(bb.dates[day - 1] for day in days
                           if bb.dates[day - 1] > target_date)
            assert later and later[-1] == bb.dates[-1], what


class TestTlBaseTrain:
    def test_empty_foreign_pool_reduces_to_plain_training(self):
        ds = make_ramp_dataset(n=3, days=20, country="XX")
        cfg = TrainConfig(max_epochs=2, dropout=0.0)
        pooled = tl_base_train([], make_splits(ds, 14, 1, 3),
                               tiny_mpnn(), cfg, 6)
        plain = train_model(make_splits(ds, 14, 1, 3), tiny_mpnn(), cfg, 6)
        assert {k: v.tobytes() for k, v in pooled.state.params.items()} == \
               {k: v.tobytes() for k, v in plain.state.params.items()}
        assert pooled.val_error == plain.val_error

    def test_pooled_split_composition(self, monkeypatch):
        foreign = make_ramp_dataset(n=2, days=18, country="AA")
        target = make_ramp_dataset(n=3, days=20, country="BB")
        captured = {}

        def recorder(splits, model, config, seed, init_state=None, log_fn=None):
            captured["splits"] = splits
            return Checkpoint(model, model.init_state(Rng(0)), 0.0, 0, 0)

        monkeypatch.setattr(meta_mod, "train_model", recorder)
        plain = make_splits(target, 15, 2, 3)
        tl_base_train([foreign], plain, tiny_mpnn(),
                      TrainConfig(dropout=0.0), 0)
        splits = captured["splits"]
        foreign_universe = assemble_samples(foreign, 3, 2, t_end=18)
        assert len(splits.train) == len(foreign_universe) + len(plain.train)
        assert [s.n for s in splits.train[:len(foreign_universe)]] == \
               [2] * len(foreign_universe)
        assert [s.n for s in splits.train[len(foreign_universe):]] == \
               [3] * len(plain.train)
        assert [(s.anchor, s.target_day) for s in splits.validation] == \
               [(s.anchor, s.target_day) for s in plain.validation]
        assert splits.test.anchor == 15 and splits.test.n == 3

    def test_trains_across_mixed_region_counts(self):
        datasets = [make_ramp_dataset(n=2, days=18, country="AA"),
                    make_ramp_dataset(n=3, days=20, country="BB")]
        splits = make_splits(datasets[1], 14, 1, 3)
        ckpt = tl_base_train(datasets[:1], splits, tiny_mpnn(),
                             TrainConfig(max_epochs=1, dropout=0.0), 0)
        assert np.isfinite(ckpt.val_error)
        assert predict(ckpt.model, ckpt.state, [splits.test]).shape == (3,)

    def test_deterministic_per_seed(self):
        datasets = [make_ramp_dataset(n=2, days=18, country="AA"),
                    make_ramp_dataset(n=3, days=20, country="BB")]
        cfg = TrainConfig(max_epochs=1, dropout=0.0)
        splits = make_splits(datasets[1], 14, 1, 3)
        a = tl_base_train(datasets[:1], splits, tiny_mpnn(), cfg, 11)
        b = tl_base_train(datasets[:1], splits, tiny_mpnn(), cfg, 11)
        assert {k: v.tobytes() for k, v in a.state.params.items()} == \
               {k: v.tobytes() for k, v in b.state.params.items()}

    def test_grid_builds_each_cell_split_once(self, monkeypatch):
        datasets = [make_ramp_dataset(n=2, days=18, country="AA"),
                    make_ramp_dataset(n=3, days=20, country="BB")]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return make_splits(*args, **kwargs)

        monkeypatch.setattr(evaluation, "make_splits", counting)
        monkeypatch.setattr(meta_mod, "make_splits", counting, raising=False)
        grid = ProtocolGrid(t_end=15, dt=1)
        report = rolling_evaluate(datasets, transfer_config(
            models=["TL_BASE"], grid=grid, max_epochs=1))
        assert not skips(report)
        cells = sorted({(c.country, c.t, c.horizon) for c in scored(report)})
        assert len(cells) == 4
        assert len(calls) == len(cells)


class TestMetaStateIO:
    def test_round_trip(self, tmp_path):
        model = tiny_mpnn()
        state = model.init_state(Rng(2))
        path = str(tmp_path / "shared.ckpt")
        cfg = MetaConfig(dt=2)
        save_meta_state(path, state, model, ["AA", "BB"], cfg, 5)
        params, buffers, meta = load_params(path)
        assert meta["kind"] == "mobicast-meta"
        assert meta["countries"] == ["AA", "BB"]
        assert meta["model"] == model_spec(model)
        assert meta["config"] == {**asdict(cfg), "d": 3, "seed": 5}
        for key, arr in state.params.items():
            assert np.array_equal(params[key], arr)
        for key, arr in state.buffers.items():
            assert np.array_equal(buffers[key], arr)

    def test_wrong_kind_rejected(self, tmp_path):
        # a shared initialization is not a cell checkpoint
        model = tiny_mpnn()
        path = str(tmp_path / "shared.ckpt")
        save_meta_state(path, model.init_state(Rng(2)), model, ["AA"],
                        MetaConfig(), 0)
        with pytest.raises(CheckpointError, match="not a model checkpoint"):
            load_checkpoint(path, model, {})
