"""Model forward checks: hand traces, reference reimplementation, equivariance."""

import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import random_sample
from mobicast import tape as tp
from mobicast.errors import CheckpointError, ContractError, ShapeError
from mobicast.graphs import GraphSample
from mobicast.layers import BN_EPS
from mobicast.evaluation import build_model
from mobicast.models import (BaselineLSTMModel, MPNNLSTMModel, MPNNModel,
                             ModelState, _init_lstm, lstm_cell, model_spec,
                             stack_targets)
from mobicast.params import load_params, save_params
from mobicast.rng import Rng
from mobicast.train import (Checkpoint, TrainConfig, load_checkpoint, loss_and_grads,
                            predict, save_checkpoint)


def graph_sample(a, x):
    return GraphSample(anchor=0, horizon=1, graphs=((a, x),), target=None)


def region_forecast(model, state, sequence):
    """Baseline LSTM forecast for one region from its own case sequence."""
    x = np.asarray(sequence, dtype=np.float64).reshape(1, -1)
    return float(predict(model, state, [graph_sample(np.eye(1), x)])[0])


def zero_state(state: ModelState) -> ModelState:
    out = state.clone()
    for name in out.params:
        out.params[name] = np.zeros_like(out.params[name])
    return out


# ------------------------------------------------------------ numpy reference

def ref_bn_eval(x, gamma, beta, mean, var):
    return gamma * (x - mean) / np.sqrt(var + BN_EPS) + beta


def ref_trunk_eval(params, buffers, k_layers, a, x):
    h = x
    reps = [h]
    for layer in range(1, k_layers + 1):
        z = np.maximum(a @ h @ params[f"agg{layer}.w"], 0.0)
        z = ref_bn_eval(z, params[f"agg{layer}.bn.gamma"], params[f"agg{layer}.bn.beta"],
                        buffers[f"agg{layer}.bn.mean"], buffers[f"agg{layer}.bn.var"])
        reps.append(z)
        h = z
    return np.concatenate(reps, axis=1)


def ref_head(params, rep):
    h = np.maximum(rep @ params["head.w1"] + params["head.b1"], 0.0)
    return np.maximum(h @ params["head.w2"] + params["head.b2"], 0.0)


def ref_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def ref_lstm_step(params, prefix, x, h, c):
    def pre(name):
        return x @ params[f"{prefix}.w{name}"] + h @ params[f"{prefix}.u{name}"] \
            + params[f"{prefix}.b{name}"]

    i, f, o = (ref_sigmoid(pre(k)) for k in "ifo")
    g = np.tanh(pre("g"))
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


class TestMPNN:
    def test_zero_parameters_give_zero_output(self):
        model = MPNNModel(d=7, k_layers=2, hidden=6)
        state = zero_state(model.init_state(Rng(0)))
        sample = random_sample(Rng(1), n=4)
        np.testing.assert_array_equal(predict(model, state, [sample]), np.zeros(4))

    def test_skip_concatenation_exposes_raw_features(self):
        # with unit-variance/zero-mean buffers, eval trunk = [X | bn(relu(AXW))]
        model = MPNNModel(d=5, k_layers=1, hidden=4)
        state = model.init_state(Rng(2))
        sample = random_sample(Rng(3), n=6, d=5)
        a, x = sample.graphs[-1]
        tape = tp.Tape()
        pvars = tape.bind(state.params)
        rep = model._trunk(tape, pvars, state.buffers, [a], x, "eval", None)
        assert rep.shape == (6, 5 + 4)
        np.testing.assert_allclose(rep.value[:, :5], x, rtol=1e-12)
        want = np.maximum(a @ x @ state.params["agg1.w"], 0.0) / np.sqrt(1.0 + BN_EPS)
        np.testing.assert_allclose(rep.value[:, 5:], want, rtol=1e-10)

    def test_matches_numpy_reference_eval(self):
        model = MPNNModel(d=7, k_layers=2, hidden=8)
        state = model.init_state(Rng(4))
        # non-trivial buffers so the eval path is exercised
        for name in state.buffers:
            state.buffers[name] = np.abs(Rng(5).normal(state.buffers[name].shape)) + 0.5
        sample = random_sample(Rng(6), n=5)
        got = predict(model, state, [sample])
        a, x = sample.graphs[-1]
        want = ref_head(state.params, ref_trunk_eval(state.params, state.buffers, 2, a, x))
        np.testing.assert_allclose(got, want[:, 0], rtol=1e-10)

    def test_permutation_equivariance(self):
        model = MPNNModel(d=7, k_layers=2, hidden=8)
        state = model.init_state(Rng(7))
        sample = random_sample(Rng(8), n=6)
        a, x = sample.graphs[-1]
        base = predict(model, state, [sample])
        rng = Rng(9)
        for _ in range(100):
            perm = rng.permutation(6)
            permuted = predict(model, state,
                               [graph_sample(a[np.ix_(perm, perm)], x[perm])])
            assert np.max(np.abs(permuted - base[perm])) < 1e-6

    def test_batch_forward_matches_individual_eval(self):
        model = MPNNModel(d=7, k_layers=2, hidden=8)
        state = model.init_state(Rng(10))
        rng = Rng(11)
        samples = [random_sample(rng, n=4), random_sample(rng, n=4)]
        tape = tp.Tape()
        pvars = tape.bind(state.params)
        batch = model.forward(tape, pvars, state.buffers, samples, "eval", None)
        singles = np.concatenate([predict(model, state, [s]) for s in samples])
        np.testing.assert_allclose(batch.value[:, 0], singles, rtol=1e-12)

    def test_heterogeneous_batch_sizes(self):
        model = MPNNModel(d=7, k_layers=2, hidden=8)
        state = model.init_state(Rng(12))
        rng = Rng(13)
        samples = [random_sample(rng, n=3), random_sample(rng, n=5)]
        tape = tp.Tape()
        pvars = tape.bind(state.params)
        out = model.forward(tape, pvars, state.buffers, samples, "eval", None)
        assert out.shape == (8, 1)

    def test_nonnegative_outputs(self):
        rng = Rng(14)
        for seed in range(20):
            model = MPNNModel(d=7, k_layers=2, hidden=6)
            state = model.init_state(Rng(seed))
            assert np.all(predict(model, state, [random_sample(rng, n=4)]) >= 0.0)

    def test_feature_width_mismatch(self):
        model = MPNNModel(d=7, k_layers=2, hidden=6)
        state = model.init_state(Rng(15))
        with pytest.raises(ShapeError):
            predict(model, state, [random_sample(Rng(16), n=4, d=5)])


class TestLSTMCell:
    def _pvars(self, tape, params):
        return tape.bind(params)

    def _gate_params(self, w, u, b, hidden=1):
        params = {}
        for name in "ifgo":
            params[f"z.w{name}"] = np.full((1, hidden), float(w))
            params[f"z.u{name}"] = np.full((hidden, hidden), float(u))
            params[f"z.b{name}"] = np.full((1, hidden), float(b))
        return params

    def test_zero_preactivations(self):
        tape = tp.Tape()
        pvars = self._pvars(tape, self._gate_params(0.0, 0.0, 0.0))
        x = tape.constant([[0.0]])
        h0 = tape.constant([[0.0]])
        c0 = tape.constant([[0.8]])
        h, c = lstm_cell(x, h0, c0, pvars, "z")
        np.testing.assert_allclose(c.value, [[0.4]], rtol=1e-12)  # f=0.5, i=0.5, g=0
        np.testing.assert_allclose(h.value, [[0.5 * math.tanh(0.4)]], rtol=1e-12)

    def test_saturated_gates_carry_memory(self):
        params = self._gate_params(0.0, 0.0, 0.0)
        params["z.bf"] = np.array([[50.0]])   # forget gate ~ 1
        params["z.bi"] = np.array([[-50.0]])  # input gate ~ 0
        tape = tp.Tape()
        pvars = self._pvars(tape, params)
        c0 = tape.constant([[0.7]])
        _, c = lstm_cell(tape.constant([[1.0]]), tape.constant([[0.0]]), c0, pvars, "z")
        np.testing.assert_allclose(c.value, [[0.7]], atol=1e-10)

    def test_scalar_hand_trace(self):
        # x=1, all weights 1, zero state/bias: every gate preactivation is 1
        tape = tp.Tape()
        pvars = self._pvars(tape, self._gate_params(1.0, 1.0, 0.0))
        zero = tape.constant([[0.0]])
        h, c = lstm_cell(tape.constant([[1.0]]), zero, zero, pvars, "z")
        sig1 = 1.0 / (1.0 + math.exp(-1.0))
        c_want = sig1 * math.tanh(1.0)
        h_want = sig1 * math.tanh(c_want)
        np.testing.assert_allclose(c.value, [[c_want]], atol=1e-10)
        np.testing.assert_allclose(h.value, [[h_want]], atol=1e-10)

    @pytest.mark.parametrize("in_dim", [1, 3])
    @pytest.mark.parametrize("steps", [1, 2])
    def test_no_state_equals_zero_state(self, in_dim, steps):
        # the first step skips h @ U and the forget gate, whose terms are
        # zero; values and every gradient stay equal
        rng = Rng(34)
        params = {}
        _init_lstm(params, "z", in_dim, 5, rng)
        xs = [rng.normal((6, in_dim)) for _ in range(steps)]

        def run(zero_start):
            tape = tp.Tape()
            pvars = tape.bind(params)
            x_vars = [tape.parameter(x) for x in xs]
            h = c = tape.constant(np.zeros((6, 5))) if zero_start else None
            for x in x_vars:
                h, c = lstm_cell(x, h, c, pvars, "z")
            tape.backward(tp.mean_all(tp.mul(h, c)))
            grads = {name: tape.grad(var) for name, var in pvars.items()}
            grads.update((f"x{k}", tape.grad(x)) for k, x in enumerate(x_vars))
            return h.value, c.value, grads

        h0, c0, grads0 = run(zero_start=True)
        h1, c1, grads1 = run(zero_start=False)
        np.testing.assert_array_equal(h1, h0)
        np.testing.assert_array_equal(c1, c0)
        assert grads1.keys() == grads0.keys()
        for name in grads0:
            np.testing.assert_array_equal(grads1[name], grads0[name], err_msg=name)

    def test_state_needs_both_parts(self):
        tape = tp.Tape()
        pvars = self._pvars(tape, self._gate_params(1.0, 1.0, 0.0))
        zero = tape.constant([[0.0]])
        with pytest.raises(ContractError, match="both"):
            lstm_cell(tape.constant([[1.0]]), zero, None, pvars, "z")


class TestMPNNLSTM:
    def test_zero_parameters_give_zero_output(self):
        model = MPNNLSTMModel(d=7, k_layers=2, hidden=5, seq_len=3)
        state = zero_state(model.init_state(Rng(0)))
        sample = random_sample(Rng(1), n=4, steps=3)
        np.testing.assert_array_equal(predict(model, state, [sample]), np.zeros(4))

    def _reference_forward(self, model, state, sample):
        hs = cs = None
        for a, x in sample.graphs:
            rep = ref_trunk_eval(state.params, state.buffers, model.k_layers, a, x)
            if hs is None:
                n = rep.shape[0]
                hs = [np.zeros((n, model.hidden))] * 2
                cs = [np.zeros((n, model.hidden))] * 2
            hs[0], cs[0] = ref_lstm_step(state.params, "lstm1", rep, hs[0], cs[0])
            hs[1], cs[1] = ref_lstm_step(state.params, "lstm2", hs[0], hs[1], cs[1])
        rep = np.concatenate([hs[1], sample.graphs[-1][1]], axis=1)
        return ref_head(state.params, rep)[:, 0]

    def test_matches_numpy_reference(self):
        model = MPNNLSTMModel(d=6, k_layers=2, hidden=5, seq_len=4)
        state = model.init_state(Rng(2))
        sample = random_sample(Rng(3), n=4, d=6, steps=4)
        np.testing.assert_allclose(predict(model, state, [sample]),
                                   self._reference_forward(model, state, sample),
                                   rtol=1e-10)

    def test_single_step_base_case(self):
        model = MPNNLSTMModel(d=5, k_layers=1, hidden=4, seq_len=1)
        state = model.init_state(Rng(4))
        sample = random_sample(Rng(5), n=3, d=5, steps=1)
        np.testing.assert_allclose(predict(model, state, [sample]),
                                   self._reference_forward(model, state, sample),
                                   rtol=1e-10)

    def test_repeated_day_matches_iterated_reference(self):
        model = MPNNLSTMModel(d=5, k_layers=1, hidden=4, seq_len=5)
        state = model.init_state(Rng(6))
        one = random_sample(Rng(7), n=3, d=5, steps=1)
        from mobicast.graphs import GraphSample
        sample = GraphSample(anchor=9, horizon=1, graphs=one.graphs * 5,
                             target=one.target)
        np.testing.assert_allclose(predict(model, state, [sample]),
                                   self._reference_forward(model, state, sample),
                                   rtol=1e-10)

    def test_all_days_feature_mode_widens_head(self):
        model = MPNNLSTMModel(d=5, k_layers=1, hidden=4, seq_len=3, feature_mode="all")
        state = model.init_state(Rng(8))
        assert state.params["head.w1"].shape == (4 + 3 * 5, 4)
        sample = random_sample(Rng(9), n=3, d=5, steps=3)
        assert predict(model, state, [sample]).shape == (3,)

    def test_sequence_length_mismatch(self):
        model = MPNNLSTMModel(d=5, k_layers=1, hidden=4, seq_len=3)
        state = model.init_state(Rng(10))
        with pytest.raises(ShapeError):
            predict(model, state, [random_sample(Rng(11), n=3, d=5, steps=2)])

    def test_wrapper_matches_model(self):
        # train.predict is the one eval-mode wrapper around model.forward
        model = MPNNLSTMModel(d=5, k_layers=2, hidden=6, seq_len=3)
        state = model.init_state(Rng(12))
        sample = random_sample(Rng(13), n=4, d=5, steps=3)
        tape = tp.Tape()
        pvars = tape.bind(state.params)
        out = model.forward(tape, pvars, state.buffers, [sample], "eval", None)
        np.testing.assert_allclose(predict(model, state, [sample]),
                                   out.value[:, 0], rtol=1e-12)


class TestBaselineLSTM:
    def test_zero_parameters_give_zero(self):
        model = BaselineLSTMModel(d=7, hidden=4)
        state = zero_state(model.init_state(Rng(0)))
        assert region_forecast(model, state, np.arange(7.0)) == 0.0

    def test_degenerate_recurrence_is_feedforward(self):
        # zero recurrent weights + constant input: every step produces the
        # same h1, so the stack reduces to a short feedforward composition
        model = BaselineLSTMModel(d=7, hidden=3)
        state = model.init_state(Rng(1))
        for name in list(state.params):
            if ".u" in name:
                state.params[name] = np.zeros_like(state.params[name])
        x = np.full(7, 4.0)
        got = region_forecast(model, state, x)

        h1 = c1 = np.zeros((1, 3))
        h2 = c2 = np.zeros((1, 3))
        for _ in range(7):
            h1, c1 = ref_lstm_step(state.params, "lstm1", np.array([[4.0]]), h1, c1)
            h2, c2 = ref_lstm_step(state.params, "lstm2", h1, h2, c2)
        want = max(0.0, float((h2 @ state.params["head.w"] + state.params["head.b"])[0, 0]))
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_nonnegative_for_random_parameters(self):
        rng = Rng(2)
        for seed in range(1000):
            model = BaselineLSTMModel(d=7, hidden=2)
            state = model.init_state(Rng(seed))
            seq = rng.uniform(0.0, 50.0, 7)
            assert region_forecast(model, state, seq) >= 0.0

    def test_wrong_length_rejected(self):
        model = BaselineLSTMModel(d=7, hidden=3)
        state = model.init_state(Rng(3))
        with pytest.raises(ShapeError, match="6 columns, model expects 7"):
            region_forecast(model, state, np.arange(6.0))

    def test_batched_forward_matches_per_region(self):
        model = BaselineLSTMModel(d=7, hidden=4)
        state = model.init_state(Rng(4))
        sample = random_sample(Rng(5), n=5, d=7)
        batch = predict(model, state, [sample])
        singles = [region_forecast(model, state, sample.graphs[-1][1][i])
                   for i in range(5)]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)


# Checkpoint headers written before the spec was derived from the classes.
SPECS = [
    (MPNNModel(d=3, k_layers=1, hidden=2, dropout=0.25),
     {"kind": "mpnn", "d": 3, "k_layers": 1, "hidden": 2, "dropout": 0.25}),
    (MPNNLSTMModel(d=3, k_layers=1, hidden=2, dropout=0.25, seq_len=4,
                   feature_mode="all"),
     {"kind": "mpnn_lstm", "d": 3, "k_layers": 1, "hidden": 2, "dropout": 0.25,
      "seq_len": 4, "feature_mode": "all"}),
    (BaselineLSTMModel(d=3, hidden=2), {"kind": "lstm", "d": 3, "hidden": 2}),
]


class TestModelSpec:
    @pytest.mark.parametrize("model,spec", SPECS, ids=["mpnn", "mpnn_lstm", "lstm"])
    def test_spec_matches_checkpoint_header(self, model, spec):
        assert model_spec(model) == spec

    @pytest.mark.parametrize("model,spec", SPECS, ids=["mpnn", "mpnn_lstm", "lstm"])
    def test_round_trip(self, model, spec, tmp_path):
        path = str(tmp_path / "cell.ckpt")
        state = model.init_state(Rng(0))
        save_checkpoint(path, Checkpoint(model, state, 1.0, epoch=0, stopped_epoch=0), {})
        assert load_params(path)[2]["model"] == spec
        loaded = load_checkpoint(path, model, {})
        assert loaded.model is model
        assert loaded.state.params.keys() == state.params.keys()

    def test_unknown_kind_rejected(self, tmp_path):
        # another kind, no kind, or the right kind at another size
        path = str(tmp_path / "cell.ckpt")
        model = SPECS[0][0]
        for spec in ({"kind": "gru", "d": 3}, {"d": 3}, {"kind": ["mpnn"]},
                     {**SPECS[0][1], "hidden": 4}, {**SPECS[0][1], "seq_len": 1}):
            save_params(path, {"w": np.zeros((1, 1))}, {}, {
                "kind": "mobicast-checkpoint", "model": spec, "val_error": 1.0,
                "epoch": 0, "stopped_epoch": 0, "extra": {}})
            stored = load_params(path)[2]["model"]   # as the header orders it
            assert stored == spec
            with pytest.raises(CheckpointError, match=re.escape(
                    f"{path!r} holds model {stored}, but the run config builds "
                    f"{SPECS[0][1]}")):
                load_checkpoint(path, model, {})

    def test_build_model_reads_train_config(self):
        cfg = TrainConfig(d=3, k_layers=1, hidden=2, dropout=0.25, seq_len=4,
                          feature_mode="all")
        for name in ("MPNN", "MPNN_TL", "TL_BASE"):
            assert model_spec(build_model(name, cfg)) == SPECS[0][1]
        assert model_spec(build_model("MPNN_LSTM", cfg)) == SPECS[1][1]
        assert model_spec(build_model("LSTM", cfg)) == SPECS[2][1]
        assert [build_model(n, cfg).seq_len for n in ("MPNN", "MPNN_LSTM", "LSTM")] \
            == [1, 4, 1]

    def test_baseline_name_rejected(self):
        with pytest.raises(ContractError, match="unknown trainable model 'AVG'"):
            build_model("AVG", TrainConfig())


class TestStackTargets:
    def test_stacks_in_order(self):
        rng = Rng(0)
        samples = [random_sample(rng, n=2), random_sample(rng, n=3)]
        y = stack_targets(samples)
        assert y.shape == (5, 1)
        np.testing.assert_array_equal(y[:2, 0], samples[0].target)
        np.testing.assert_array_equal(y[2:, 0], samples[1].target)

    def test_missing_target_rejected(self):
        smp = random_sample(Rng(1), n=2, with_target=False)
        with pytest.raises(ContractError, match="no target"):
            stack_targets([smp])


class TestTapeLifetime:
    @pytest.mark.parametrize("model,steps", [
        (MPNNModel(d=7, k_layers=2, hidden=4), 1),
        (MPNNLSTMModel(d=7, k_layers=2, hidden=4, seq_len=3), 3),
        (BaselineLSTMModel(d=7, hidden=4), 1),
    ], ids=["MPNN", "MPNN_LSTM", "LSTM"])
    def test_freed_by_refcount_after_backward(self, model, steps):
        # a backward closure holding a Var would tie the tape into a cycle
        # that only the cycle collector frees, keeping every node alive
        rng = Rng(30)
        state = model.init_state(rng.spawn("init"))
        samples = [random_sample(rng, n=4, d=7, steps=steps) for _ in range(2)]
        gc.disable()
        try:
            tape = tp.Tape(check_finite=False)
            pvars = tape.bind(state.params)
            preds = model.forward(tape, pvars, state.buffers, samples, "train",
                                  rng.spawn("dropout"))
            targets = tape.constant(stack_targets(samples))
            loss = tp.mean_all(tp.square(tp.sub(preds, targets)))
            tape.backward(loss)
            grads = {name: tape.grad(var) for name, var in pvars.items()}
            alive = weakref.ref(tape)
            del tape, pvars, preds, targets, loss
            assert alive() is None
        finally:
            gc.enable()
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    def test_backward_keeps_leaf_gradients_only(self):
        model = MPNNLSTMModel(d=7, k_layers=2, hidden=4, seq_len=3)
        rng = Rng(31)
        state = model.init_state(rng.spawn("init"))
        samples = [random_sample(rng, n=4, d=7, steps=3) for _ in range(2)]
        tape = tp.Tape()
        pvars = tape.bind(state.params)
        preds = model.forward(tape, pvars, state.buffers, samples, "train",
                              rng.spawn("dropout"))
        loss = tp.mean_all(tp.square(tp.sub(
            preds, tape.constant(stack_targets(samples)))))
        tape.backward(loss)
        held = {i for i, g in enumerate(tape._grads) if g is not None}
        leaves = {i for i, node in enumerate(tape._nodes) if node.backward is None}
        assert held and held <= leaves
        assert {v.idx for v in pvars.values()} <= held
        with pytest.raises(ContractError, match="leaves"):
            tape.grad(preds)

    def test_lstm_cell_frees_unsaved_intermediates(self, monkeypatch):
        # no backward reads the gate pre-activations or the two products of
        # the cell update, so they die once lstm_cell returns, tape or not
        gate_values, products = [], []
        gate_linear, mul = tp.gate_linear, tp.mul

        def traced_gate_linear(*args):
            out = gate_linear(*args)
            gate_values.append(weakref.ref(out.value))
            return out

        def traced_mul(a, b):
            out = mul(a, b)
            products.append(weakref.ref(out.value))
            return out

        monkeypatch.setattr(tp, "gate_linear", traced_gate_linear)
        monkeypatch.setattr(tp, "mul", traced_mul)
        rng = Rng(32)
        params = {}
        _init_lstm(params, "cell", 3, 5, rng)
        tape = tp.Tape()
        pvars = tape.bind(params)
        x = tape.parameter(rng.normal((6, 3)))
        h_prev = tape.parameter(rng.normal((6, 5)))
        c_prev = tape.parameter(rng.normal((6, 5)))
        h, c = lstm_cell(x, h_prev, c_prev, pvars, "cell")
        assert len(gate_values) == 4 and len(products) == 3  # f*c, i*g, o*tanh(c)
        assert [r() for r in gate_values + products[:2]] == [None] * 6
        assert products[2]() is h.value
        tape.backward(tp.mean_all(tp.mul(h, c)))
        assert tape.grad(x).shape == (6, 3)


STEP_MODELS = {"LSTM": (BaselineLSTMModel, 1), "MPNN_LSTM": (MPNNLSTMModel, 7)}


def _step_inputs(kind):
    """A default-size model, its initial state and 8 samples at 30 regions."""
    cls, steps = STEP_MODELS[kind]
    model = cls()
    rng = Rng(5)
    state = model.init_state(rng.spawn("init"))
    batch = [random_sample(rng, n=30, d=7, steps=steps) for _ in range(8)]
    return model, state, batch


def _training_step(kind):
    """One batch-8 training step at 30 regions, default model sizes."""
    model, state, batch = _step_inputs(kind)
    return lambda: loss_and_grads(model, state, batch, Rng(1))


def _traced_peak_mb(fn):
    """fn's result and the peak memory tracemalloc saw while it ran, in MB."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 1e6


class TestStepFootprint:
    @pytest.mark.parametrize("kind,bound_mb", [("LSTM", 18.0), ("MPNN_LSTM", 29.0)])
    def test_traced_peak_of_one_step(self, kind, bound_mb):
        # keeping every node's value until the tape dies takes 24.4 (LSTM) and
        # 39.2 MB (MPNN_LSTM) here; keeping only what backward reads, 12.8/17.8;
        # starting each LSTM layer from no state, 12.3/17.3
        (value, grads), peak_mb = _traced_peak_mb(_training_step(kind))
        assert math.isfinite(value) and grads
        assert peak_mb <= bound_mb

    @pytest.mark.parametrize("kind", ["LSTM", "MPNN_LSTM"])
    def test_traced_peak_of_one_predict(self, kind):
        # binding the parameters as gradient-requiring leaves keeps every
        # backward closure until the tape dies: 12.3 (LSTM) and 17.6 MB
        # (MPNN_LSTM) here; binding them as constants, 1.5/1.9
        model, state, batch = _step_inputs(kind)
        preds, peak_mb = _traced_peak_mb(lambda: predict(model, state, batch))
        assert preds.shape == (8 * 30,) and np.all(np.isfinite(preds))
        assert peak_mb <= 4.0

    @pytest.mark.parametrize("kind,nodes", [("LSTM", 214), ("MPNN_LSTM", 304)])
    def test_node_count_pinned(self, kind, nodes, monkeypatch):
        # counted at Tape._push, where the benchmark tracer counts tape.nodes
        count = [0]
        push = tp.Tape._push

        def counted_push(self, *args):
            count[0] += 1
            return push(self, *args)

        monkeypatch.setattr(tp.Tape, "_push", counted_push)
        _training_step(kind)()
        assert count[0] == nodes
