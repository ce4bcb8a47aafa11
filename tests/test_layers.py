"""Batchnorm, dropout, and init checks, including finite-difference gradients."""

import re
import tokenize

import numpy as np
import pytest

from mobicast import layers, models
from mobicast import tape as tp
from mobicast.errors import ContractError, ShapeError
from mobicast.layers import batchnorm, dropout, glorot_init
from mobicast.rng import Rng


class TestGlorotInit:
    def test_bounds_and_shape(self):
        w = glorot_init(30, 50, Rng(0))
        limit = np.sqrt(6.0 / 80.0)
        assert w.shape == (30, 50)
        assert np.all(np.abs(w) <= limit)
        assert np.abs(w).max() > 0.8 * limit  # actually spreads over the range

    def test_deterministic(self):
        assert np.array_equal(glorot_init(8, 8, Rng(4)), glorot_init(8, 8, Rng(4)))

    def test_rejects_bad_fans(self):
        with pytest.raises(ContractError):
            glorot_init(0, 4, Rng(0))


def _bn_setup(n=6, d=3, seed=0):
    rng = Rng(seed)
    x = rng.normal((n, d)) * 2.0 + 1.0
    gamma = rng.uniform(0.5, 1.5, (1, d))
    beta = rng.normal((1, d))
    return x, gamma, beta


class TestBatchnormForward:
    def test_train_normalizes_columns(self):
        x, gamma, beta = _bn_setup()
        rm, rv = np.zeros((1, 3)), np.ones((1, 3))
        t = tp.Tape()
        out = batchnorm(t.constant(x), t.parameter(gamma), t.parameter(beta),
                        rm, rv, True)
        xhat = (out.value - beta) / gamma
        np.testing.assert_allclose(xhat.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(xhat.var(axis=0), 1.0, atol=1e-4)  # eps shrinks it

    def test_running_stats_update(self):
        x, gamma, beta = _bn_setup()
        rm, rv = np.full((1, 3), 2.0), np.full((1, 3), 5.0)
        t = tp.Tape()
        batchnorm(t.constant(x), t.parameter(gamma), t.parameter(beta), rm, rv, True)
        np.testing.assert_allclose(rm, 0.9 * 2.0 + 0.1 * x.mean(axis=0, keepdims=True))
        np.testing.assert_allclose(rv, 0.9 * 5.0 + 0.1 * x.var(axis=0, keepdims=True))

    def test_momentum_one_then_eval_reproduces_train_output(self, monkeypatch):
        monkeypatch.setattr(layers, "BN_MOMENTUM", 1.0)
        x, gamma, beta = _bn_setup(seed=3)
        rm, rv = np.zeros((1, 3)), np.ones((1, 3))
        t = tp.Tape()
        g, b = t.parameter(gamma), t.parameter(beta)
        train_out = batchnorm(t.constant(x), g, b, rm, rv, True)
        eval_out = batchnorm(t.constant(x), g, b, rm, rv, False)
        np.testing.assert_allclose(eval_out.value, train_out.value, rtol=1e-12)

    def test_eval_does_not_touch_buffers(self):
        x, gamma, beta = _bn_setup()
        rm, rv = np.full((1, 3), 1.5), np.full((1, 3), 2.5)
        t = tp.Tape()
        batchnorm(t.constant(x), t.parameter(gamma), t.parameter(beta), rm, rv, False)
        assert np.all(rm == 1.5) and np.all(rv == 2.5)

    def test_single_row_batch_is_finite(self):
        t = tp.Tape()
        out = batchnorm(t.constant([[3.0, -1.0]]), t.parameter(np.ones((1, 2))),
                        t.parameter(np.zeros((1, 2))),
                        np.zeros((1, 2)), np.ones((1, 2)), True)
        assert np.all(np.isfinite(out.value))

    def test_bad_mode_and_shapes(self):
        t = tp.Tape()
        x = t.constant(np.ones((2, 3)))
        g = t.parameter(np.ones((1, 3)))
        b = t.parameter(np.zeros((1, 3)))
        with pytest.raises(ShapeError):
            batchnorm(x, t.parameter(np.ones((1, 2))), b,
                      np.zeros((1, 3)), np.ones((1, 3)), True)


class TestBatchnormBackward:
    def _fd(self, training, wrt):
        x, gamma, beta = _bn_setup(n=5, d=4, seed=9)
        rm = np.full((1, 4), 0.3)
        rv = np.full((1, 4), 1.7)
        arrays = {"x": x, "gamma": gamma, "beta": beta}

        def run(vals):
            t = tp.Tape()
            handles = {k: t.parameter(v) for k, v in vals.items()}
            out = batchnorm(handles["x"], handles["gamma"], handles["beta"],
                            rm.copy(), rv.copy(), training)
            return t, handles, tp.mean_all(tp.square(out))

        t, handles, root = run(arrays)
        t.backward(root)

        eps = 1e-6
        fd = np.zeros_like(arrays[wrt])
        it = np.nditer(arrays[wrt], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            vals = {k: v.copy() for k, v in arrays.items()}
            vals[wrt][idx] += eps
            hi = float(run(vals)[2].value[0, 0])
            vals[wrt][idx] -= 2 * eps
            lo = float(run(vals)[2].value[0, 0])
            fd[idx] = (hi - lo) / (2 * eps)
        np.testing.assert_allclose(t.grad(handles[wrt]), fd, rtol=2e-4, atol=1e-7)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("wrt", ["x", "gamma", "beta"])
    def test_matches_finite_differences(self, training, wrt):
        self._fd(training, wrt)


def _reference_batchnorm(xv, gv, bv, running_mean, running_var, training, g,
                         momentum=0.1, eps=1e-5):
    """The two-pass formulas batchnorm replaced: output, (dx, dgamma, dbeta)."""
    if training:
        mean = xv.mean(axis=0, keepdims=True)
        var = xv.var(axis=0, keepdims=True)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean.copy()
        var = running_var.copy()
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mean) * inv_std
    out = gv * xhat + bv
    n = xv.shape[0]
    dgamma = (g * xhat).sum(axis=0, keepdims=True)
    dbeta = g.sum(axis=0, keepdims=True)
    if training:
        dxhat = g * gv
        dx = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0, keepdims=True)
                              - xhat * (dxhat * xhat).sum(axis=0, keepdims=True))
    else:
        dx = g * gv * inv_std
    return out, (dx, dgamma, dbeta)


class TestBatchnormBitIdentity:
    """One-pass batchnorm against the two-pass formulas, byte for byte."""

    @staticmethod
    def assert_matches_reference(x, training, seed):
        rng = Rng(seed)
        (n, d), shape = x.shape, x.shape
        gamma = rng.uniform(0.5, 1.5, (1, d))
        beta = rng.normal((1, d))
        g = rng.normal(shape)
        rm0, rv0 = rng.normal((1, d)), rng.uniform(0.1, 4.0, (1, d))

        rm, rv = rm0.copy(), rv0.copy()
        t = tp.Tape(check_finite=False)
        handles = [t.parameter(x), t.parameter(gamma), t.parameter(beta)]
        out = batchnorm(*handles, rm, rv, training)
        t.backward(tp.mean_all(tp.mul(out, t.constant(g))))

        ref_rm, ref_rv = rm0.copy(), rv0.copy()
        upstream = np.full(shape, 1.0 / (n * d)) * g  # what mul hands batchnorm
        ref_out, ref_grads = _reference_batchnorm(x, gamma, beta, ref_rm, ref_rv,
                                                  training, upstream)
        assert out.value.tobytes() == ref_out.tobytes()
        for h, want in zip(handles, ref_grads):
            assert t.grad(h).tobytes() == want.tobytes()
        assert rm.tobytes() == ref_rm.tobytes()
        assert rv.tobytes() == ref_rv.tobytes()

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape", [(1, 3), (5, 4), (37, 16), (320, 64)])
    def test_output_gradients_and_buffers(self, training, shape):
        rng = Rng(shape[0] * 100 + shape[1])
        # columns on very different scales and offsets, a constant column
        x = rng.normal(shape) * rng.uniform(1e-3, 1e3, (1, shape[1]))
        x += rng.normal((1, shape[1])) * 50.0
        x[:, 0] = 2.5
        self.assert_matches_reference(x, training, seed=shape[0])

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_special_values(self, training):
        tiny = 5e-324
        x = np.array([[0.0, tiny, np.inf, np.nan, 1e308, 1.0],
                      [-0.0, -tiny, 1.0, 2.0, 1e308, -1.0],
                      [0.0, 3 * tiny, -2.0, 3.0, -1e308, 2.0],
                      [-0.0, tiny, 0.5, -np.nan, 1e308, -2.0]])
        with np.errstate(all="ignore"):
            self.assert_matches_reference(x, training, seed=4)

    def test_backward_leaves_upstream_gradient_alone(self):
        x, gamma, beta = _bn_setup()
        t = tp.Tape()
        out = batchnorm(t.parameter(x), t.parameter(gamma), t.parameter(beta),
                        np.zeros((1, 3)), np.ones((1, 3)), True)
        g = Rng(2).normal(out.shape)
        g_before = g.copy()
        t._nodes[out.idx].backward(g)
        assert g.tobytes() == g_before.tobytes()


class TestDropout:
    def test_eval_and_zero_rate_are_identity(self):
        t = tp.Tape()
        x = t.parameter(np.ones((4, 4)))
        assert dropout(x, 0.5, None) is x
        assert dropout(x, 0.0, Rng(0)) is x

    def test_train_masks_and_scales(self):
        rng = Rng(21)
        t = tp.Tape()
        x = t.parameter(np.full((200, 50), 3.0))
        out = dropout(x, 0.5, rng).value
        dropped = (out == 0.0).mean()
        assert 0.45 < dropped < 0.55
        kept = out[out != 0.0]
        np.testing.assert_allclose(kept, 6.0)  # 3.0 / (1 - 0.5)
        assert abs(out.mean() - 3.0) < 0.15  # expectation preserved

    def test_backward_uses_same_mask(self):
        t = tp.Tape()
        x = t.parameter(np.ones((10, 10)))
        out = dropout(x, 0.3, Rng(5))
        root = tp.mean_all(out)
        t.backward(root)
        grad = t.grad(x)
        mask = out.value != 0.0
        np.testing.assert_allclose(grad[mask], (1.0 / 0.7) / 100.0)
        np.testing.assert_array_equal(grad[~mask], 0.0)

    def test_deterministic_given_seed(self):
        def run(seed):
            t = tp.Tape()
            x = t.parameter(np.ones((8, 8)))
            return dropout(x, 0.5, Rng(seed)).value

        assert np.array_equal(run(9), run(9))
        assert not np.array_equal(run(9), run(10))

    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_matches_finite_differences_with_fixed_mask(self, p):
        # a fresh Rng(8) per evaluation draws the same mask every time
        x = Rng(3).normal((6, 5))
        t = tp.Tape()
        xv = t.parameter(x)
        t.backward(tp.mean_all(tp.square(dropout(xv, p, Rng(8)))))

        def loss(vals):
            t2 = tp.Tape()
            return float(tp.mean_all(tp.square(
                dropout(t2.parameter(vals), p, Rng(8)))).value[0, 0])

        eps = 1e-6
        fd = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            bumped = x.copy()
            bumped[idx] += eps
            hi = loss(bumped)
            bumped[idx] -= 2 * eps
            fd[idx] = (hi - loss(bumped)) / (2 * eps)
        assert np.any(fd == 0.0) and np.any(fd != 0.0)  # the mask drops and keeps
        np.testing.assert_allclose(t.grad(xv), fd, rtol=1e-6, atol=1e-9)

    def test_rejects_bad_rate(self):
        t = tp.Tape()
        x = t.parameter(np.ones((2, 2)))
        with pytest.raises(ContractError):
            dropout(x, 1.0, Rng(0))
        with pytest.raises(ContractError):
            dropout(x, -0.1, Rng(0))


class TestDropoutBitIdentity:
    """dropout keeps its boolean mask; forward and backward stay byte-equal
    to multiplying by the float mask keep * scale."""

    SPECIALS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e308]

    @staticmethod
    def assert_matches_float_mask(x, g, p, seed):
        keep = Rng(seed).random_at_least(x.shape, p)
        mask = keep * (1.0 / (1.0 - p))
        t = tp.Tape(check_finite=False)
        with np.errstate(all="ignore"):
            out = dropout(t.parameter(x), p, Rng(seed))
            (dx,) = t._nodes[out.idx].backward(g)
            want_out, want_dx = x * mask, g * mask
        assert out.value.tobytes() == want_out.tobytes()
        assert dx.tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.9])
    @pytest.mark.parametrize("shape", [(240, 64), (7, 3), (1, 1)])
    def test_random_batches(self, p, shape):
        rng = Rng(shape[0] + int(p * 10))
        x = rng.normal(shape) * 10.0
        g = rng.normal(shape)
        self.assert_matches_float_mask(x, g, p, seed=shape[1])

    @pytest.mark.parametrize("p", [0.5, 0.2])
    def test_special_values(self, p):
        rng = Rng(61)
        x = rng.normal((16, 8))
        g = rng.normal((16, 8))
        # every special value in both operands, on kept and dropped entries
        for k, v in enumerate(self.SPECIALS):
            x[k, :] = v
            g[:, k] = v
            g[8 + k, :] = v
        self.assert_matches_float_mask(x, g, p, seed=62)


class TestNoMaskedSelects:
    """The MPNN step's modules build masked values without branching selects.

    numpy runs where-style selects with one branch per element, which
    mispredicts on the near-random masks of relu and dropout; the step
    uses bit masks and multiplies instead.  Comments and strings are not
    code, so they may name the forbidden calls.
    """

    FORBIDDEN = [re.compile(r"np\.where\("), re.compile(r"np\.putmask\("),
                 re.compile(r"np\.select\("),
                 re.compile(r"np\.copyto\((?:[^()]|\([^()]*\))*\bwhere=")]

    @staticmethod
    def code_text(path):
        with open(path, "rb") as fh:
            tokens = list(tokenize.tokenize(fh.readline))
        return "".join(tok.string for tok in tokens
                       if tok.type not in (tokenize.COMMENT, tokenize.STRING))

    def test_forbidden_calls_are_recognised(self):
        def hits(src):
            return [p.pattern for p in self.FORBIDDEN if p.search(src.replace(" ", ""))]

        assert hits("np.where(m, a, 0.0)")
        assert hits("np.copyto(out, f(a), where=m)")
        assert hits("np.putmask(a, m, 0.0)") and hits("np.select([m], [a])")
        assert not hits("np.copyto(out, a)") and not hits("np.multiply(a, m)")

    @pytest.mark.parametrize("module", [tp, layers, models])
    def test_step_modules_use_no_masked_select(self, module):
        code = self.code_text(module.__file__)
        assert code
        found = [p.pattern for p in self.FORBIDDEN if p.search(code)]
        assert not found, f"{module.__name__} uses {found}"
