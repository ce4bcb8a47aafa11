"""Neural building blocks: Glorot init, batch normalization, inverted dropout."""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .rng import Rng
from .tape import Var

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def glorot_init(fan_in: int, fan_out: int, rng: Rng) -> np.ndarray:
    """Uniform init on +-sqrt(6 / (fan_in + fan_out)), shape (fan_in, fan_out)."""
    if fan_in < 1 or fan_out < 1:
        raise ContractError("glorot_init fans must be positive")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def batchnorm(x: Var, gamma: Var, beta: Var, running_mean: np.ndarray,
              running_var: np.ndarray, training: bool) -> Var:
    """Column-wise batch normalization with learned scale and shift.

    Training (a forward given a random stream) normalizes by batch statistics
    (biased variance) folded into the running buffers in place; else by them.
    """
    xv = x.value
    d = xv.shape[1]
    for name, arr in (("gamma", gamma.value), ("beta", beta.value)):
        if arr.shape != (1, d):
            raise ShapeError(f"batchnorm {name} must have shape (1, {d}), got {arr.shape}")
    if running_mean.shape != (1, d) or running_var.shape != (1, d):
        raise ShapeError("batchnorm running buffers must have shape (1, d)")
    tape = x.tape
    gv, bv = gamma.value, beta.value

    # One centering serves the variance and xhat; the reductions are the
    # ones ndarray.mean and ndarray.var run, so every bit matches theirs.
    n = xv.shape[0]
    if training:
        if n < 1:
            raise ContractError("batchnorm needs at least one row")
        mean = xv.mean(axis=0, keepdims=True)
        xhat = xv - mean
        buf = np.square(xhat)
        var = buf.sum(axis=0, keepdims=True)  # biased, matches eval reconstruction
        var /= n
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        xhat = xv - running_mean
        buf = np.empty_like(xv)
        var = running_var.copy()

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std
    out = np.multiply(gv, xhat, out=buf)
    out += bv

    def backward(g):
        t = g * xhat
        dgamma = t.sum(axis=0, keepdims=True)
        dbeta = g.sum(axis=0, keepdims=True)
        dx = g * gv
        if training:
            s1 = dx.sum(axis=0, keepdims=True)
            np.multiply(dx, xhat, out=t)
            s2 = t.sum(axis=0, keepdims=True)
            dx *= n
            dx -= s1
            np.multiply(xhat, s2, out=t)
            dx -= t
            np.multiply(inv_std / n, dx, out=dx)  # operand order fixes NaN signs
        else:
            dx *= inv_std
        return dx, dgamma, dbeta

    return tape.node(out, (x, gamma, beta), backward, "batchnorm")


def dropout(x: Var, p: float, rng: Rng | None) -> Var:
    """Inverted dropout: zero entries with probability p, scale rest by
    1/(1-p); the identity at p = 0 or without a random stream (not training)."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x
    keep = rng.random_at_least(x.shape, p)
    scale = 1.0 / (1.0 - p)

    # The float mask keep * scale is rebuilt in backward rather than kept:
    # the boolean mask is an eighth of its size.
    def backward(g):
        return (g * (keep * scale),)

    return x.tape.node(x.value * (keep * scale), (x,), backward, "dropout")
