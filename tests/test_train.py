"""Split construction, the training loop, and checkpoint round trips."""

import json
import math
import re
import weakref

import numpy as np
import pytest

import mobicast.train as train_mod
from mobicast import tape as tp
from mobicast.errors import (
    CheckpointError,
    ContractError,
    InsufficientDataError,
    TrainingDivergedError,
)
from mobicast.graphs import assemble_samples
from mobicast.models import MPNNModel
from mobicast.params import MAGIC, load_params, save_params
from mobicast.rng import Rng
from mobicast.train import (
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    loss_and_grads,
    make_splits,
    predict,
    save_checkpoint,
    train_model,
)

from conftest import FirstFeatureModel, make_ramp_dataset, prediction_sample


def tiny_model(dropout=0.0):
    return MPNNModel(d=3, k_layers=1, hidden=2, dropout=dropout)


def tiny_setup(dropout=0.0, days=20):
    ds = make_ramp_dataset(n=3, days=days)
    splits = make_splits(ds, t=14, j=1, d=3)
    return splits, tiny_model(dropout)


def params_bytes(state):
    return {k: v.tobytes() for k, v in state.params.items()}


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.max_epochs, cfg.patience, cfg.patience_start_epoch) == (500, 50, 100)
        assert (cfg.batch_size, cfg.lr, cfg.dropout) == (8, 1e-3, 0.5)

    def test_zero_epochs_allowed(self):
        assert TrainConfig(max_epochs=0).max_epochs == 0

    def test_invalid_settings(self):
        for kwargs in ({"max_epochs": -1}, {"patience": 0}, {"batch_size": 0},
                       {"lr": 0.0}, {"lr": math.nan}, {"lr": math.inf},
                       {"lr": -math.inf}, {"dropout": 1.0}, {"hidden": 0}):
            with pytest.raises(ContractError):
                TrainConfig(**kwargs)


    def test_feature_mode_checked_with_the_model_message(self):
        for mode in ("last", "all"):
            assert TrainConfig(feature_mode=mode).feature_mode == mode
        with pytest.raises(ContractError,
                           match="^feature_mode must be 'last' or 'all', got 'x'$"):
            TrainConfig(feature_mode="x")

class TestMakeSplits:
    def test_canonical_example(self):
        # T=14, j=1, d=7: targets 8..14; held out for validation: 13, 11, 9
        ds = make_ramp_dataset(n=3, days=20)
        splits = make_splits(ds, t=14, j=1, d=7)
        assert sorted(s.target_day for s in splits.validation) == [9, 11, 13]
        assert sorted(s.target_day for s in splits.train) == [8, 10, 12, 14]
        assert splits.test.anchor == 14
        assert splits.test.target_day == 15

    def test_test_sample_may_lack_target(self):
        ds = make_ramp_dataset(n=3, days=15)
        splits = make_splits(ds, t=14, j=2, d=7)
        assert splits.test.target is None  # day 16 is beyond the data

    def test_train_validation_partition_pool(self):
        rng = Rng(20)
        ds = make_ramp_dataset(n=3, days=40)
        for _ in range(50):
            t = 14 + int(rng.random(1)[0] * 20)
            j = 1 + int(rng.random(1)[0] * 5)
            d = 2 + int(rng.random(1)[0] * 6)
            try:
                splits = make_splits(ds, t=t, j=j, d=d)
            except InsufficientDataError:
                continue
            pool = assemble_samples(ds, d, j, t_end=t)
            train_days = [s.target_day for s in splits.train]
            val_days = [s.target_day for s in splits.validation]
            assert sorted(train_days + val_days) == [s.target_day for s in pool]
            assert not set(train_days) & set(val_days)
            assert all(day <= t for day in train_days + val_days)
            held = {t - off for off in train_mod.VALIDATION_OFFSETS}
            assert set(val_days) == held & {s.target_day for s in pool}

    def test_before_protocol_start_rejected(self):
        ds = make_ramp_dataset(n=3, days=20)
        with pytest.raises(ContractError, match="T >= 14"):
            make_splits(ds, t=13, j=1, d=7)

    def test_no_training_pool(self):
        # d=7, j=8 at T=14 leaves no anchor strictly before the test one
        ds = make_ramp_dataset(n=3, days=30)
        with pytest.raises(InsufficientDataError, match="no training samples"):
            make_splits(ds, t=14, j=8, d=7)

    def test_no_validation_days(self):
        # d=13 leaves only target 14, which is never a validation day
        ds = make_ramp_dataset(n=3, days=20)
        with pytest.raises(InsufficientDataError, match="no validation samples"):
            make_splits(ds, t=14, j=1, d=13)

    def test_sequence_variant(self):
        ds = make_ramp_dataset(n=3, days=25)
        splits = make_splits(ds, t=20, j=1, d=7, seq_len=7)
        assert sorted(s.target_day for s in splits.validation) == [15, 17, 19]
        assert all(len(s.graphs) == 7 for s in splits.train + [splits.test])


class TestMseLoss:
    def test_hand_value(self):
        # predictions [1, 2] against targets [3, 0]: mean of (-2)^2 and 2^2
        # is 4; d/dw of the mean of (w x - y)^2 is mean(2 (p - y) x) = 2
        model = FirstFeatureModel()
        sample = prediction_sample([1.0, 2.0], [3.0, 0.0])
        loss, grads = loss_and_grads(model, model.init_state(None), [sample], None)
        assert loss == 4.0
        assert grads["w"].tolist() == [[2.0]]


class TestTrainModel:
    def test_loss_decreases_on_learnable_data(self):
        splits, model = tiny_setup(dropout=0.0)
        logs = []
        cfg = TrainConfig(max_epochs=30, lr=1e-2, dropout=0.0)
        train_model(splits, model, cfg, 3, log_fn=logs.append)
        assert len(logs) == 30
        assert logs[-1]["train_loss"] < logs[0]["train_loss"]

    def test_best_checkpoint_tracks_validation(self):
        splits, model = tiny_setup(dropout=0.0)
        logs = []
        cfg = TrainConfig(max_epochs=20, lr=1e-2, dropout=0.0)
        ckpt = train_model(splits, model, cfg, 3, log_fn=logs.append)
        assert ckpt.val_error <= min(r["val_mae"] for r in logs)
        replayed = train_mod._validation_mae(model, ckpt.state, splits.validation)
        assert replayed == pytest.approx(ckpt.val_error, rel=1e-12)
        assert ckpt.stopped_epoch == 20

    def test_frozen_validation_stops_at_150(self, monkeypatch):
        splits, model = tiny_setup()
        monkeypatch.setattr(train_mod, "_validation_mae", lambda *a: 1.0)
        ckpt = train_model(splits, model, TrainConfig(dropout=0.0), 0)
        assert ckpt.stopped_epoch == 150
        assert ckpt.epoch == 0
        assert ckpt.val_error == 1.0

    def test_improvement_resets_patience(self, monkeypatch):
        splits, model = tiny_setup()
        calls = {"n": -1}

        def fake(model, state, samples):
            calls["n"] += 1
            return 1000.0 - calls["n"] if calls["n"] <= 120 else 2000.0

        monkeypatch.setattr(train_mod, "_validation_mae", fake)
        ckpt = train_model(splits, model, TrainConfig(dropout=0.0), 0)
        assert ckpt.epoch == 120
        assert ckpt.stopped_epoch == 170
        assert ckpt.val_error == 880.0

    def test_runs_all_epochs_when_always_improving(self, monkeypatch):
        splits, model = tiny_setup()
        calls = {"n": -1}

        def fake(model, state, samples):
            calls["n"] += 1
            return 1000.0 - calls["n"]

        monkeypatch.setattr(train_mod, "_validation_mae", fake)
        ckpt = train_model(splits, model, TrainConfig(max_epochs=120, dropout=0.0), 0)
        assert ckpt.epoch == 120
        assert ckpt.stopped_epoch == 120

    def test_zero_epochs_returns_initialization(self):
        splits, model = tiny_setup()
        init = model.init_state(Rng(99))
        before = {k: v.copy() for k, v in init.params.items()}
        ckpt = train_model(splits, model, TrainConfig(max_epochs=0), 0, init_state=init)
        assert ckpt.epoch == 0 and ckpt.stopped_epoch == 0
        for key, arr in before.items():
            assert np.array_equal(ckpt.state.params[key], arr)
        assert ckpt.val_error == train_mod._validation_mae(model, ckpt.state,
                                                           splits.validation)

    def test_same_seed_bit_identical(self):
        results = []
        for _ in range(2):
            splits, model = tiny_setup(dropout=0.5)
            cfg = TrainConfig(max_epochs=3, dropout=0.5)
            results.append(train_model(splits, model, cfg, 7))
        a, b = results
        assert a.val_error == b.val_error
        assert params_bytes(a.state) == params_bytes(b.state)
        assert {k: v.tobytes() for k, v in a.state.buffers.items()} == \
               {k: v.tobytes() for k, v in b.state.buffers.items()}

    def test_different_seed_differs(self):
        splits, model = tiny_setup()
        a = train_model(splits, model, TrainConfig(max_epochs=1, dropout=0.0), 0)
        b = train_model(splits, model, TrainConfig(max_epochs=1, dropout=0.0), 1)
        assert params_bytes(a.state) != params_bytes(b.state)

    def test_init_state_not_mutated(self):
        splits, model = tiny_setup()
        init = model.init_state(Rng(5))
        before = params_bytes(init)
        train_model(splits, model, TrainConfig(max_epochs=2, dropout=0.0), 5,
                    init_state=init)
        assert params_bytes(init) == before

    def test_divergence_reported_with_diagnostics(self):
        splits, model = tiny_setup()
        init = model.init_state(Rng(0))
        init.params["head.b2"] = np.full((1, 1), 1e200)
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingDivergedError,
                               match=r"non-finite loss at epoch 1, batch 0"):
                train_model(splits, model, TrainConfig(max_epochs=1, dropout=0.0), 0,
                            init_state=init)
            with pytest.raises(TrainingDivergedError, match="largest parameters"):
                train_model(splits, model, TrainConfig(max_epochs=1, dropout=0.0), 0,
                            init_state=init)

    def test_non_finite_validation_forecast_is_divergence_at_its_epoch(self):
        splits, model = tiny_setup()
        init = model.init_state(Rng(0))
        init.params["head.b2"] = np.full((1, 1), np.inf)
        with pytest.raises(TrainingDivergedError,
                           match="^non-finite forecast with the parameters of epoch 0: "
                                 "constant: produced non-finite values$"):
            train_model(splits, model, TrainConfig(max_epochs=1, dropout=0.0), 0,
                        init_state=init)

    def test_log_records_sequential_epochs(self):
        splits, model = tiny_setup()
        logs = []
        train_model(splits, model, TrainConfig(max_epochs=4, dropout=0.0), 0,
                    log_fn=logs.append)
        assert [r["epoch"] for r in logs] == [1, 2, 3, 4]
        assert all(set(r) == {"epoch", "train_loss", "val_mae"} for r in logs)

    def test_batch_gradients_freed_before_next_forward(self, monkeypatch):
        # a step holds its own arrays only: the previous batch's gradients are
        # gone when the next batch's forward or the epoch's validation starts
        splits, model = tiny_setup()
        last = [lambda: None]   # weak reference to one gradient of the last batch
        checks = []
        real_loss, real_val = train_mod.loss_and_grads, train_mod._validation_mae

        def loss_and_grads(*args):
            checks.append(last[0]() is None)
            loss, grads = real_loss(*args)
            last[0] = weakref.ref(grads[min(grads)])
            return loss, grads

        def validation_mae(*args):
            checks.append(last[0]() is None)
            return real_val(*args)

        monkeypatch.setattr(train_mod, "loss_and_grads", loss_and_grads)
        monkeypatch.setattr(train_mod, "_validation_mae", validation_mae)
        cfg = TrainConfig(max_epochs=2, batch_size=2, dropout=0.0)
        train_model(splits, model, cfg, 0)
        batches = math.ceil(len(splits.train) / cfg.batch_size)
        assert batches > 1 and checks == [True] * (1 + 2 * (batches + 1))


class TestPredict:
    def test_shape_and_nonnegativity(self):
        splits, model = tiny_setup()
        ckpt = train_model(splits, model, TrainConfig(max_epochs=2, dropout=0.0), 0)
        out = predict(model, ckpt.state, [splits.test])
        assert out.shape == (3,)
        assert np.all(out >= 0.0)

    def test_matches_eval_forward(self):
        splits, model = tiny_setup()
        ckpt = train_model(splits, model, TrainConfig(max_epochs=2, dropout=0.0), 0)
        samples = [splits.test, *splits.validation]
        tape = tp.Tape()
        pvars = tape.bind(ckpt.state.params)
        direct = model.forward(tape, pvars, ckpt.state.buffers, samples, None)
        assert np.array_equal(predict(model, ckpt.state, samples), direct.value[:, 0])


class TestCheckpointIO:
    def test_round_trip(self, tmp_path):
        splits, model = tiny_setup()
        ckpt = train_model(splits, model, TrainConfig(max_epochs=2, dropout=0.0), 0)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, ckpt, {"country": "IT"})
        loaded = load_checkpoint(path, model, {"country": "IT"})
        assert loaded.val_error == pytest.approx(ckpt.val_error, abs=1e-9)
        assert (loaded.epoch, loaded.stopped_epoch) == (ckpt.epoch, ckpt.stopped_epoch)
        assert params_bytes(loaded.state) == params_bytes(ckpt.state)
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path!r} records cell {{'country': 'IT'}}, not {{'country': 'FR'}}")):
            load_checkpoint(path, model, {"country": "FR"})

    def test_reload_reproduces_validation_error(self, tmp_path):
        splits, model = tiny_setup()
        ckpt = train_model(splits, model, TrainConfig(max_epochs=3, dropout=0.0), 0)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, ckpt, {})
        loaded = load_checkpoint(path, model, {})
        replayed = train_mod._validation_mae(loaded.model, loaded.state,
                                             splits.validation)
        assert replayed == pytest.approx(ckpt.val_error, abs=1e-9)

    def test_loaded_model_predicts_identically(self, tmp_path):
        splits, model = tiny_setup()
        ckpt = train_model(splits, model, TrainConfig(max_epochs=2, dropout=0.0), 0)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, ckpt, {})
        loaded = load_checkpoint(path, model, {})
        assert np.array_equal(predict(loaded.model, loaded.state, [splits.test]),
                              predict(model, ckpt.state, [splits.test]))

    def test_skip_reason_round_trip(self, tmp_path):
        extra = {"country": "IT", "model_name": "MPNN", "t": 14, "horizon": 1,
                 "cell_seed": 5}
        path = str(tmp_path / "cell.ckpt")
        save_checkpoint(path, "training diverged: boom", extra)
        params, buffers, meta = load_params(path)
        assert (params, buffers) == ({}, {})
        assert meta == {"kind": "mobicast-skip", "reason": "training diverged: boom",
                        "extra": extra}
        assert load_checkpoint(path, tiny_model(), extra) == "training diverged: boom"
        with pytest.raises(CheckpointError, match="records cell {.*'cell_seed': 5.*}, not {.*'cell_seed': 6}"):
            load_checkpoint(path, tiny_model(), {**extra, "cell_seed": 6})
        with open(path, "rb") as fh:
            first = fh.read()
        save_checkpoint(path, "training diverged: boom", extra)
        with open(path, "rb") as fh:
            assert fh.read() == first

    CHECKPOINT_META = {"kind": "mobicast-checkpoint", "val_error": 1.0, "epoch": 0,
                       "stopped_epoch": 0}

    @pytest.mark.parametrize("header,message", [
        ([1, 2], "header and its meta must be JSON objects"),
        ({"meta": ["kind"]}, "header and its meta must be JSON objects"),
        ({"meta": {"kind": "mobicast-skip"}},
         "malformed mobicast-skip header: KeyError('reason')"),
        ({"meta": {"kind": "mobicast-skip", "reason": "boom\nAA,AVG,14,1,r0,1.0,1.0,0.0"}},
         "malformed mobicast-skip header: ValueError"),
        ({"meta": {"kind": "mobicast-skip", "reason": 5}},
         "malformed mobicast-skip header: ValueError"),
        ({"meta": CHECKPOINT_META},
         "malformed mobicast-checkpoint header: KeyError('model')"),
        ({"meta": {**CHECKPOINT_META, "model": ["mpnn"]}},
         "malformed mobicast-checkpoint header: AttributeError"),
        ({"params": [["w"]]}, "params must list [name, shape] pairs"),
        ({"params": [[7, [1]]]}, "params must list [name, shape] pairs"),
        ({"params": [["w", [-1]]]}, "params must list [name, shape] pairs"),
        ({"params": [["w", [1.0]]]}, "params must list [name, shape] pairs"),
        ({"params": [["w", [True]]]}, "params must list [name, shape] pairs"),
        ({"buffers": {"w": [1]}}, "buffers must list [name, shape] pairs"),
    ], ids=["list", "meta-list", "skip-no-reason", "skip-reason-line-break",
            "skip-reason-number", "no-model", "model-list",
            "short-entry", "int-name", "negative-dim", "float-dim", "bool-dim",
            "buffers-object"])
    def test_malformed_header_names_file(self, tmp_path, header, message):
        if isinstance(header, dict):   # one 1-element tensor, unless replaced
            header = {"format_version": 1, "meta": {"kind": "mobicast-checkpoint"},
                      "params": [["w", [1]]], "buffers": [], **header}
            if isinstance(header["meta"], dict):   # the record the load below expects
                header["meta"] = {**header["meta"], "extra": {}}
        blob = json.dumps(header).encode("utf-8")
        path = tmp_path / "cell.ckpt"
        path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob + bytes(8))
        with pytest.raises(CheckpointError, match=re.escape(f"{str(path)!r}: {message}")):
            load_checkpoint(str(path), tiny_model(), {})

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "other.ckpt")
        save_params(path, {"w": np.zeros((1, 1))}, {}, {"kind": "something-else"})
        with pytest.raises(CheckpointError, match="not a model checkpoint"):
            load_checkpoint(path, tiny_model(), {})

