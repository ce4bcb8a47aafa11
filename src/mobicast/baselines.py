"""Non-neural reference forecasters: history averages, persistence, and AR.

Each forecaster takes a (regions, days) history, oldest day first, and
returns one forecast per region.  Row i of a result is bit for bit what the
same formula gives on row i alone: the means reduce each row with numpy's
pairwise sum, and AR makes the same BLAS and LAPACK call per region.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError


def _history(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ContractError(f"history must be a nonempty (regions, days) array, "
                            f"got shape {arr.shape}")
    return arr


def avg_predict(history) -> np.ndarray:
    """Mean of each region's whole history; the horizon does not matter."""
    return _history(history).mean(axis=1)


def avg_window_predict(history, d: int = 7) -> np.ndarray:
    """Mean of each region's trailing d days (truncated at the history start)."""
    if d < 1:
        raise ContractError(f"window must be >= 1, got {d}")
    arr = _history(history)
    return arr[:, -min(d, arr.shape[1]):].mean(axis=1)


def last_day_predict(history) -> np.ndarray:
    return _history(history)[:, -1].copy()


@dataclass(frozen=True)
class ARCoefficients:
    """One AR(p) fit per region, row i for region i."""
    coef: np.ndarray       # (regions, p); coef[:, k] multiplies the value k+1 steps back
    intercept: np.ndarray  # (regions,)
    differencing: int


def _solve_each(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack, NaN for each matrix LAPACK finds
    singular; one singular matrix makes the stacked call raise for all."""
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for i in range(len(gram)):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[i] = np.linalg.solve(gram[i], rhs[i])
        return out


def ar_fit(history, p: int = 7, differencing: int = 1) -> ARCoefficients:
    """OLS fit of an AR(p) on each region's (optionally once-differenced) history.

    A region whose normal equations are singular, ill-conditioned (cond >
    1e12) or give a non-finite solution is solved with a 1e-6 ridge instead.
    """
    if p < 1:
        raise ContractError(f"AR order must be >= 1, got {p}")
    if differencing not in (0, 1):
        raise ContractError(f"differencing must be 0 or 1, got {differencing}")
    arr = _history(history)
    work = np.diff(arr, axis=1) if differencing else arr
    n, k = work.shape
    if k < p + 2:
        raise DataError(f"need at least {p + 2} points after differencing, have {k}")
    design = np.empty((n, k - p, p + 1))
    for lag in range(p):
        design[:, :, lag] = work[:, p - 1 - lag:k - 1 - lag]
    design[:, :, p] = 1.0
    design_t = design.transpose(0, 2, 1)
    gram = design_t @ design                 # one syrk per region
    rhs = design_t @ work[:, p:, None]       # one gemv per region
    # A singular gram has cond far above 1e12, so the plain solve only sees
    # well-conditioned systems; a non-finite gram goes straight to ridge.
    ridge = np.ones(n, dtype=bool)
    finite = np.isfinite(gram).all(axis=(1, 2))
    ridge[finite] = np.linalg.cond(gram[finite]) > 1e12
    sol = np.empty((n, p + 1, 1))
    ols = ~ridge
    sol[ols] = _solve_each(gram[ols], rhs[ols])
    ridge[ols] = ~np.isfinite(sol[ols]).all(axis=(1, 2))
    sol[ridge] = np.linalg.solve(gram[ridge] + 1e-6 * np.eye(p + 1), rhs[ridge])
    return ARCoefficients(coef=sol[:, :p, 0].copy(), intercept=sol[:, p, 0].copy(),
                          differencing=differencing)


def ar_predict(coefficients: ARCoefficients, history, j: int = 1) -> np.ndarray:
    """Recursive j-step forecast per region; feeds predictions back, clamps at 0."""
    if j < 1:
        raise ContractError(f"horizon must be >= 1, got {j}")
    arr = _history(history)
    n, p = coefficients.coef.shape
    if arr.shape[0] != n:
        raise ContractError(f"coefficients fit {n} regions, history has {arr.shape[0]}")
    work = np.diff(arr, axis=1) if coefficients.differencing else arr
    if work.shape[1] < p:
        raise DataError(f"series too short for AR({p}) prediction")
    # Newest first: the p latest values fill columns j.., and forecast step
    # s lands in column j-1-s.  Each step's lags are then a forward slice,
    # most recent first as in ar_fit, so the stacked product is one BLAS
    # ddot per region; a reversed view would take numpy's own summing loop.
    buf = np.empty((n, p + j))
    buf[:, j:] = work[:, -1:-p - 1:-1]
    row = coefficients.coef[:, None, :]
    for s in range(j):
        col = j - 1 - s
        buf[:, col] = (row @ buf[:, col + 1:col + 1 + p, None])[:, 0, 0] \
            + coefficients.intercept
    if coefficients.differencing:
        total = np.zeros(n)
        for col in range(j - 1, -1, -1):   # left to right; np.sum regroups 8+ terms
            total += buf[:, col]
        value = arr[:, -1] + total
    else:
        value = buf[:, 0]
    return np.where(value > 0.0, value, 0.0)   # -0.0 and NaN become +0.0
