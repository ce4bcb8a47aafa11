"""Gradient checks for the reverse-mode tape against central finite differences."""

import weakref

import numpy as np
import pytest

from mobicast import tape as tp
from mobicast.errors import ContractError, NumericsError, ShapeError
from mobicast.layers import dropout
from mobicast.rng import Rng

EPS = 1e-6
TOL = 1e-5


def fd_grad(scalar_fn, arrays, key):
    """Central finite differences of scalar_fn(arrays) wrt arrays[key]."""
    base = arrays[key]
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bumped = {k: v.copy() for k, v in arrays.items()}
        bumped[key][idx] += EPS
        hi = scalar_fn(bumped)
        bumped[key][idx] -= 2 * EPS
        lo = scalar_fn(bumped)
        grad[idx] = (hi - lo) / (2 * EPS)
    return grad


def check_grads(build, arrays):
    """build(tape, vars) -> 1x1 Var; compares tape grads to FD for every array."""
    tape = tp.Tape()
    pvars = tape.bind(arrays)
    root = build(tape, pvars)
    tape.backward(root)

    def scalar_fn(vals):
        t2 = tp.Tape()
        v2 = t2.bind(vals)
        return float(build(t2, v2).value[0, 0])

    for key in arrays:
        got = tape.grad(pvars[key])
        want = fd_grad(scalar_fn, {k: v.copy() for k, v in arrays.items()}, key)
        np.testing.assert_allclose(got, want, rtol=TOL, atol=TOL, err_msg=key)


class TestOpGradients:
    def test_matmul(self):
        rng = Rng(1)
        arrays = {"a": rng.normal((3, 4)), "b": rng.normal((4, 2))}
        check_grads(lambda t, v: tp.mean_all(tp.square(tp.matmul(v["a"], v["b"]))), arrays)

    def test_add_sub_mul(self):
        rng = Rng(2)
        arrays = {"a": rng.normal((3, 3)), "b": rng.normal((3, 3)), "c": rng.normal((3, 3))}

        def build(t, v):
            return tp.mean_all(tp.mul(tp.add(v["a"], v["b"]), tp.sub(v["a"], v["c"])))

        check_grads(build, arrays)

    def test_scaled_add_row(self):
        rng = Rng(3)
        arrays = {"a": rng.normal((4, 3)), "r": rng.normal((1, 3))}

        def build(t, v):
            scale = t.constant(np.full((4, 3), 2.5))
            return tp.mean_all(tp.square(tp.mul(tp.add_row(v["a"], v["r"]), scale)))

        check_grads(build, arrays)

    def test_activations(self):
        # keep inputs away from the relu kink so FD is valid
        rng = Rng(4)
        a = rng.normal((5, 4))
        a[np.abs(a) < 0.05] = 0.5
        for act in (tp.relu, tp.sigmoid, tp.tanh):
            check_grads(lambda t, v, act=act: tp.mean_all(tp.square(act(tp.matmul(v["a"], v["w"])))),
                        {"a": a.copy(), "w": rng.normal((4, 2))})

    def test_hconcat(self):
        rng = Rng(5)
        arrays = {"a": rng.normal((3, 2)), "b": rng.normal((3, 4)), "c": rng.normal((3, 1))}
        check_grads(lambda t, v: tp.mean_all(tp.square(tp.hconcat(v["a"], v["b"], v["c"]))), arrays)

    def test_reused_operand_accumulates(self):
        rng = Rng(6)
        arrays = {"a": rng.normal((3, 3))}
        check_grads(lambda t, v: tp.mean_all(tp.mul(v["a"], v["a"])), arrays)

    def test_deep_chain(self):
        rng = Rng(7)
        arrays = {"x": rng.normal((2, 3)), "w1": rng.normal((3, 5)),
                  "w2": rng.normal((5, 4)), "w3": rng.normal((4, 1))}

        def build(t, v):
            h = tp.tanh(tp.matmul(v["x"], v["w1"]))
            h = tp.sigmoid(tp.matmul(h, v["w2"]))
            return tp.mean_all(tp.square(tp.matmul(h, v["w3"])))

        check_grads(build, arrays)


class TestGateLinear:
    def arrays(self, seed):
        rng = Rng(seed)
        return {"x": rng.normal((4, 3)), "w": rng.normal((3, 2)),
                "h": rng.normal((4, 2)), "u": rng.normal((2, 2)),
                "b": rng.normal((1, 2))}

    def test_value_matches_unfused_ops(self):
        t = tp.Tape()
        v = t.bind(self.arrays(10))
        fused = tp.gate_linear(v["x"], v["w"], v["h"], v["u"], v["b"])
        unfused = tp.add_row(tp.add(tp.matmul(v["x"], v["w"]),
                                    tp.matmul(v["h"], v["u"])), v["b"])
        np.testing.assert_array_equal(fused.value, unfused.value)

    def test_gradients(self):
        def build(t, v):
            z = tp.gate_linear(v["x"], v["w"], v["h"], v["u"], v["b"])
            return tp.mean_all(tp.square(tp.sigmoid(z)))

        check_grads(build, self.arrays(11))

    def test_constant_input_gets_no_gradient(self):
        arrays = self.arrays(12)
        x = arrays.pop("x")

        def build(t, v):
            z = tp.gate_linear(t.constant(x), v["w"], v["h"], v["u"], v["b"])
            return tp.mean_all(tp.square(tp.tanh(z)))

        check_grads(build, arrays)
        t = tp.Tape()
        v = t.bind(arrays)
        z = tp.gate_linear(t.constant(x), v["w"], v["h"], v["u"], v["b"])
        contribs = t._nodes[z.idx].backward(np.ones(z.shape))
        assert contribs[0] is None
        assert all(c is not None for c in contribs[1:])

    def test_gradients_without_state(self):
        arrays = self.arrays(15)
        del arrays["h"], arrays["u"]

        def build(t, v):
            z = tp.gate_linear(v["x"], v["w"], None, None, v["b"])
            return tp.mean_all(tp.square(tp.sigmoid(z)))

        check_grads(build, arrays)

    @pytest.mark.parametrize("with_state", [True, False])
    def test_gradients_of_one_column_input(self, with_state):
        arrays = self.arrays(16)
        arrays["x"], arrays["w"] = arrays["x"][:, :1].copy(), arrays["w"][:1].copy()
        if not with_state:
            del arrays["h"], arrays["u"]

        def build(t, v):
            z = tp.gate_linear(v["x"], v["w"], v.get("h"), v.get("u"), v["b"])
            return tp.mean_all(tp.square(tp.tanh(z)))

        check_grads(build, arrays)

    def test_one_column_input_matches_matmul_bits(self):
        # a k=1 product is one rounding per entry, broadcast or GEMM
        rng = Rng(17)
        x, w = rng.normal((30, 1)), rng.normal((1, 64))
        t = tp.Tape()
        z = tp.gate_linear(t.constant(x), t.parameter(w), None, None,
                           t.parameter(np.zeros((1, 64))))
        assert z.value.tobytes() == (x @ w + 0.0).tobytes()

    def test_state_needs_both_operands(self):
        t = tp.Tape()
        v = t.bind(self.arrays(18))
        with pytest.raises(ContractError, match="both"):
            tp.gate_linear(v["x"], v["w"], v["h"], None, v["b"])
        with pytest.raises(ContractError, match="both"):
            tp.gate_linear(v["x"], v["w"], None, v["u"], v["b"])

    def test_shape_mismatch(self):
        t = tp.Tape()
        v = t.bind(self.arrays(14))
        with pytest.raises(ShapeError, match="gate_linear"):
            tp.gate_linear(v["x"], v["u"], v["h"], v["u"], v["b"])
        with pytest.raises(ShapeError, match="gate_linear"):
            tp.gate_linear(v["x"], v["w"], v["h"], v["u"], v["h"])
        with pytest.raises(ShapeError, match="gate_linear"):
            tp.gate_linear(v["x"], v["u"], None, None, v["b"])


class TestAccumulation:
    """A node's third and later gradient contributions are added in place
    into the array made for the second, never into the first."""

    def test_shared_first_contribution_is_not_written(self):
        # add hands one g to both parents: p's first contribution is q's
        # whole gradient, and p has two more consumers
        rng = Rng(19)
        arrays = {"p": rng.normal((3, 2)), "q": rng.normal((3, 2))}
        k1, k2 = rng.normal((3, 2)), rng.normal((3, 2))

        def build(t, v):
            y1, y2 = tp.mul(v["p"], t.constant(k1)), tp.mul(v["p"], t.constant(k2))
            s = tp.add(v["p"], v["q"])
            return tp.mean_all(tp.square(tp.add(tp.add(y1, y2), s)))

        check_grads(build, arrays)
        t = tp.Tape()
        v = t.bind(arrays)
        root = build(t, v)
        u = (k1 * arrays["p"] + k2 * arrays["p"]) + (arrays["p"] + arrays["q"])
        t.backward(root)
        g_u = np.full((3, 2), 1.0 / 6) * 2.0 * u
        assert t.grad(v["q"]).tobytes() == g_u.tobytes()
        assert t.grad(v["p"]).tobytes() == ((g_u + g_u * k2) + g_u * k1).tobytes()
        assert not np.shares_memory(t.grad(v["p"]), t.grad(v["q"]))

    def test_view_first_contribution_is_not_written(self):
        # p's first contribution is a view into the hconcat's gradient,
        # which add also hands whole to e
        rng = Rng(20)
        arrays = {"p": rng.normal((3, 2)), "r": rng.normal((3, 1)),
                  "e": rng.normal((3, 3))}
        k1, k2, c = rng.normal((3, 2)), rng.normal((3, 2)), rng.normal((3, 1))

        def build(t, v):
            y1, y2 = tp.mul(v["p"], t.constant(k1)), tp.mul(v["p"], t.constant(k2))
            s = tp.add(tp.hconcat(v["p"], v["r"]), v["e"])
            rest = tp.hconcat(tp.add(y1, y2), t.constant(c))
            return tp.mean_all(tp.square(tp.add(s, rest)))

        check_grads(build, arrays)
        t = tp.Tape()
        v = t.bind(arrays)
        root = build(t, v)
        t.backward(root)
        p, r, e = arrays["p"], arrays["r"], arrays["e"]
        u = (np.hstack([p, r]) + e) + np.hstack([k1 * p + k2 * p, c])
        g_u = np.full((3, 3), 1.0 / 9) * 2.0 * u
        assert t.grad(v["e"]).tobytes() == g_u.tobytes()
        assert t.grad(v["r"]).tobytes() == g_u[:, 2:].tobytes()
        g_p = g_u[:, :2]
        assert t.grad(v["p"]).tobytes() == ((g_p + g_p * k2) + g_p * k1).tobytes()


class TestActivationBackwardBits:
    @pytest.mark.parametrize("act,want", [
        (tp.sigmoid, lambda g, out: (g * out) * (1.0 - out)),
        (tp.tanh, lambda g, out: g * (1.0 - out * out)),
    ], ids=["sigmoid", "tanh"])
    def test_backward_keeps_operation_order(self, act, want):
        rng = Rng(21)
        t = tp.Tape()
        y = act(t.parameter(rng.normal((7, 9)) * 3.0))
        g = rng.normal((7, 9))
        (dx,) = t._nodes[y.idx].backward(g)
        assert dx.tobytes() == want(g, y.value).tobytes()


class TestSigmoid:
    def test_matches_logistic_function(self):
        x = np.linspace(-60.0, 60.0, 240001).reshape(1, -1)
        got = tp.sigmoid(tp.Tape().constant(x)).value
        np.testing.assert_allclose(got, 1.0 / (1.0 + np.exp(-x)), rtol=0, atol=3e-16)

    def test_extreme_inputs_stay_finite_without_warnings(self):
        t = tp.Tape()
        a = t.parameter([[-1e4, 1e4]])
        with np.errstate(all="raise"):
            out = tp.sigmoid(a)
            t.backward(tp.mean_all(out))
        np.testing.assert_array_equal(out.value, [[0.0, 1.0]])
        np.testing.assert_array_equal(t.grad(a), [[0.0, 0.0]])


class TestReluBits:
    """The AND-mask relu against the select it replaces, byte for byte."""

    SPECIAL = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, -2.2250738585072014e-308, 1e308, -1e308,
               1.0, -1.0]

    def assert_matches_select(self, av):
        t = tp.Tape(check_finite=False)
        got = tp.relu(t.constant(av)).value
        want = np.where(av > 0.0, av, 0.0)
        assert got.dtype == np.float64 and got.shape == av.shape
        assert got.tobytes() == want.tobytes()

    def test_special_values(self):
        special = np.array([self.SPECIAL])
        self.assert_matches_select(special)
        self.assert_matches_select(special.T.copy())
        # a NaN with its payload and sign bit set survives as +0.0, like a select
        payload = np.array([[0xFFF8_0000_DEAD_BEEF]], dtype=np.uint64).view(np.float64)
        self.assert_matches_select(payload)

    def test_random_batch(self):
        rng = Rng(31)
        av = rng.normal((320, 64))
        av[::7, ::5] = -0.0
        av[::11, ::3] = 0.0
        self.assert_matches_select(av)

    def test_backward_masks_gradient(self):
        t = tp.Tape()
        a = t.parameter([[2.0, -3.0, 0.0, -0.0]])
        t.backward(tp.mean_all(tp.relu(a)))
        assert t.grad(a).tobytes() == np.array([[0.25, 0.0, 0.0, 0.0]]).tobytes()


class TestBlockDiagMatmul:
    def test_matches_dense_block_diagonal(self):
        rng = Rng(8)
        sizes = [2, 4, 3]
        blocks = [rng.normal((n, n)) for n in sizes]
        x = rng.normal((sum(sizes), 5))
        dense = np.zeros((sum(sizes), sum(sizes)))
        r = 0
        for b, n in zip(blocks, sizes):
            dense[r:r + n, r:r + n] = b
            r += n

        t1 = tp.Tape()
        xv = t1.parameter(x)
        out = tp.block_diag_matmul(blocks, xv)
        np.testing.assert_allclose(out.value, dense @ x, rtol=1e-12)

        root = tp.mean_all(tp.square(out))
        t1.backward(root)
        got = t1.grad(xv)

        t2 = tp.Tape()
        xv2 = t2.parameter(x)
        dv = t2.constant(dense)
        root2 = tp.mean_all(tp.square(tp.matmul(dv, xv2)))
        t2.backward(root2)
        np.testing.assert_allclose(got, t2.grad(xv2), rtol=1e-10)

    def test_single_block_equals_matmul(self):
        rng = Rng(9)
        a = rng.normal((4, 4))
        x = rng.normal((4, 3))
        t = tp.Tape()
        xv = t.parameter(x)
        out = tp.block_diag_matmul([a], xv)
        np.testing.assert_allclose(out.value, a @ x, rtol=1e-12)

    def test_row_count_mismatch(self):
        t = tp.Tape()
        xv = t.parameter(np.ones((5, 2)))
        with pytest.raises(ShapeError):
            tp.block_diag_matmul([np.ones((2, 2)), np.ones((2, 2))], xv)


class TestHandTraces:
    def test_dead_relu_gives_zero_grad(self):
        t = tp.Tape()
        x = t.constant([[1.0, -1.0]])
        w = t.parameter([[2.0], [3.0]])
        loss = tp.mean_all(tp.square(tp.relu(tp.matmul(x, w))))
        assert loss.value[0, 0] == 0.0
        t.backward(loss)
        np.testing.assert_array_equal(t.grad(w), [[0.0], [0.0]])

    def test_live_relu_hand_computed(self):
        # x.W = 5, relu -> 5, square -> 25; dL/dW = 2*5*x = [10, 10]
        t = tp.Tape()
        x = t.constant([[1.0, 1.0]])
        w = t.parameter([[2.0], [3.0]])
        loss = tp.mean_all(tp.square(tp.relu(tp.matmul(x, w))))
        assert loss.value[0, 0] == 25.0
        t.backward(loss)
        np.testing.assert_allclose(t.grad(w), [[10.0], [10.0]], rtol=1e-12)

    def test_matmul_skips_constant_operand(self):
        rng = Rng(13)
        t = tp.Tape()
        a = t.constant(rng.normal((3, 4)))
        b = t.parameter(rng.normal((4, 2)))
        out = tp.matmul(a, b)
        da, db = t._nodes[out.idx].backward(np.ones(out.shape))
        assert da is None and db.shape == (4, 2)

    def test_unused_parameter_gets_zero_grad(self):
        t = tp.Tape()
        a = t.parameter([[2.0]])
        b = t.parameter([[3.0]])
        loss = tp.mean_all(tp.square(a))
        t.backward(loss)
        np.testing.assert_array_equal(t.grad(b), [[0.0]])


class TestContracts:
    def test_backward_root_must_be_scalar(self):
        t = tp.Tape()
        a = t.parameter(np.ones((2, 2)))
        with pytest.raises(ShapeError, match="1x1"):
            t.backward(tp.square(a))

    def test_grad_before_backward(self):
        t = tp.Tape()
        a = t.parameter(np.ones((1, 1)))
        with pytest.raises(ContractError):
            t.grad(a)

    def test_grad_of_interior_node_rejected(self):
        t = tp.Tape()
        a = t.parameter(np.ones((2, 2)))
        c = t.constant(np.ones((2, 2)))
        mid = tp.mul(a, c)
        t.backward(tp.mean_all(mid))
        with pytest.raises(ContractError, match="leaves"):
            t.grad(mid)
        np.testing.assert_allclose(t.grad(a), np.full((2, 2), 0.25))
        np.testing.assert_array_equal(t.grad(c), np.zeros((2, 2)))

    def test_grad_of_interior_node_without_gradient_rejected(self):
        t = tp.Tape()
        a = t.parameter(np.ones((2, 2)))
        c = t.constant(np.full((2, 2), 2.0))
        const_only = tp.square(c)
        t.backward(tp.mean_all(tp.mul(a, const_only)))
        with pytest.raises(ContractError, match="leaves"):
            t.grad(const_only)
        np.testing.assert_array_equal(t.grad(a), np.ones((2, 2)))

    def test_second_backward_rejected(self):
        # closures are released as the first replay runs them, so a second
        # replay could only skip them and return wrong gradients
        t = tp.Tape()
        a = t.parameter(np.full((2, 2), 3.0))
        loss = tp.mean_all(tp.square(a))
        t.backward(loss)
        with pytest.raises(ContractError, match="already run"):
            t.backward(loss)
        np.testing.assert_array_equal(t.grad(a), np.full((2, 2), 1.5))

    def test_cross_tape_operands(self):
        t1, t2 = tp.Tape(), tp.Tape()
        a = t1.parameter(np.ones((2, 2)))
        b = t2.parameter(np.ones((2, 2)))
        with pytest.raises(ContractError):
            tp.add(a, b)

    def test_shape_mismatch_messages(self):
        t = tp.Tape()
        a = t.parameter(np.ones((2, 3)))
        b = t.parameter(np.ones((4, 5)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            tp.matmul(a, b)
        with pytest.raises(ShapeError):
            tp.add(a, b)

    def test_rejects_non_2d(self):
        t = tp.Tape()
        with pytest.raises(ShapeError):
            t.constant(np.ones(3))
        with pytest.raises(ShapeError):
            t.node(np.ones(3), (), None)

    def test_node_stores_c_contiguous_float64(self):
        t = tp.Tape()
        for value in (np.ones((3, 2), dtype=np.float32), np.ones((2, 3)).T,
                      [[1.0, 2.0]]):
            out = t.node(value, (), None).value
            assert out.dtype == np.float64 and out.flags.c_contiguous
            np.testing.assert_array_equal(out, value)

    def test_non_finite_detection(self):
        t = tp.Tape()
        a = t.parameter([[1e308]])
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            tp.square(a)  # overflows to inf

    def test_finite_check_can_be_disabled(self):
        t = tp.Tape(check_finite=False)
        a = t.parameter([[1e308]])
        with np.errstate(over="ignore"):
            out = tp.square(a)
        assert np.isinf(out.value[0, 0])


class TestRelease:
    """What a tape keeps: only the arrays backward reads, until it has run."""

    def test_backward_releases_captured_arrays(self):
        t = tp.Tape()
        a = t.parameter(Rng(40).normal((3, 4)))
        y = tp.tanh(a)
        alive = weakref.ref(y.value)
        loss = tp.mean_all(tp.mul(y, y))
        del y
        assert alive() is not None  # the tanh and mul closures hold it
        t.backward(loss)
        assert alive() is None
        assert t.grad(a).shape == (3, 4)

    def test_node_needing_no_gradient_keeps_no_closure(self):
        # an eval forward over constants holds none of its inputs for a
        # backward that never runs
        t = tp.Tape()
        c = t.constant(Rng(44).normal((3, 4)))
        y = tp.tanh(c)
        alive = weakref.ref(y.value)
        out = tp.mul(y, y)
        del y
        assert alive() is None
        assert t._nodes[out.idx].backward is None
        a = t.parameter(np.ones((3, 4)))
        assert t._nodes[tp.mul(a, out).idx].backward is not None

    @pytest.mark.parametrize("op", [
        tp.mean_all, tp.relu, tp.sigmoid, tp.tanh, tp.hconcat,
        lambda v: tp.block_diag_matmul([np.eye(2), np.ones((3, 1))], v),
        lambda v: dropout(v, 0.5, Rng(43)),
    ], ids=["mean_all", "relu", "sigmoid", "tanh", "hconcat",
            "block_diag_matmul", "dropout"])
    def test_input_not_read_by_backward_dies_with_its_handle(self, op):
        t = tp.Tape()
        a = t.parameter(Rng(41).normal((3, 4)))
        sq = tp.square(a)
        alive = weakref.ref(sq.value)
        out = op(sq)
        del sq
        assert alive() is None
        t.backward(tp.mean_all(tp.square(out)))
        assert np.all(np.isfinite(t.grad(a)))

    @pytest.mark.parametrize("g", [1.0, -3.5, 0.0, -0.0, np.inf, -np.inf,
                                   np.nan, -np.nan, 5e-324])
    def test_mean_all_backward_unchanged(self, g):
        t = tp.Tape(check_finite=False)
        av = Rng(42).normal((5, 3))
        m = tp.mean_all(t.parameter(av))
        (dx,) = t._nodes[m.idx].backward(np.array([[g]]))
        want = np.full(av.shape, float(g) / av.size)
        assert dx.shape == av.shape and dx.tobytes() == want.tobytes()
