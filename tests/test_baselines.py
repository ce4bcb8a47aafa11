"""History-average, persistence, and autoregressive baseline tests."""

import numpy as np
import pytest

from mobicast.baselines import (
    ARCoefficients,
    _solve_each,
    ar_fit,
    ar_predict,
    avg_predict,
    avg_window_predict,
    last_day_predict,
)
from mobicast.errors import ContractError, DataError
from mobicast.evaluation import EvalConfig, ProtocolGrid, rolling_evaluate
from mobicast.rng import Rng

from conftest import make_ramp_dataset, scored


def ar1_series(x0, a, b, n):
    out = [float(x0)]
    for _ in range(n - 1):
        out.append(a * out[-1] + b)
    return np.array(out)


def one_region(coef, intercept, differencing=0):
    return ARCoefficients(coef=np.array([coef], dtype=float),
                          intercept=np.array([intercept], dtype=float),
                          differencing=differencing)


class TestHistoryBaselines:
    def test_avg_is_full_mean(self):
        rng = Rng(10)
        for _ in range(1000):
            n = 1 + int(rng.random(1)[0] * 40)
            history = rng.uniform(0.0, 50.0, (3, n))
            expected = [float(np.mean(series)) for series in history]
            assert avg_predict(history) == pytest.approx(expected, rel=1e-12)

    def test_avg_ignores_horizon(self, tmp_path):
        ds = make_ramp_dataset(n=3, days=30)
        grid = ProtocolGrid(t_start=14, t_end=14, horizons=(1, 14))
        report = rolling_evaluate([ds], EvalConfig(models=["AVG"], grid=grid), str(tmp_path))
        by_horizon = {}
        for cell in scored(report):
            by_horizon.setdefault(cell.horizon, []).extend(cell.prediction.tolist())
        assert by_horizon[1] == by_horizon[14]

    def test_avg_window_trailing_mean(self):
        rng = Rng(11)
        for _ in range(1000):
            n = 1 + int(rng.random(1)[0] * 30)
            d = 1 + int(rng.random(1)[0] * 10)
            history = rng.uniform(0.0, 50.0, (3, n))
            expected = [float(np.mean(series[-min(d, n):])) for series in history]
            assert avg_window_predict(history, d=d) == pytest.approx(expected, rel=1e-12)

    def test_avg_window_truncates_short_history(self):
        assert avg_window_predict([[4.0, 8.0]], d=7) == pytest.approx([6.0])

    def test_avg_window_of_one_is_last_day(self):
        history = [[5.0, 2.0, 11.0], [1.0, 4.0, 0.0]]
        assert np.array_equal(avg_window_predict(history, d=1),
                              last_day_predict(history))

    def test_last_day(self):
        assert last_day_predict([[1.0, 2.0, 7.5], [3.0, 0.0, 2.0]]).tolist() == [7.5, 2.0]

    def test_empty_series_rejected(self):
        for fn in (avg_predict, last_day_predict):
            for bad in ([[]], [], [1.0, 2.0]):
                with pytest.raises(ContractError, match="nonempty"):
                    fn(bad)
        with pytest.raises(ContractError, match="nonempty"):
            avg_window_predict([[]], d=7)

    def test_bad_window_rejected(self):
        with pytest.raises(ContractError, match="window"):
            avg_window_predict([[1.0]], d=0)


class TestARFit:
    def test_recovers_exact_ar1(self):
        series = ar1_series(10.0, 0.5, 1.0, 30)
        fit = ar_fit([series], p=1, differencing=0)
        assert fit.coef[0, 0] == pytest.approx(0.5, abs=1e-8)
        assert fit.intercept[0] == pytest.approx(1.0, abs=1e-8)
        assert_same_fit(fit, [series], p=1, differencing=0, ridge=[False])

    def test_recovers_exact_ar2_in_lag_order(self):
        # distinct coefficients so a swapped lag layout cannot pass
        a1, a2, b = 0.5, -0.3, 4.0
        xs = [1.0, 2.0]
        for _ in range(58):
            xs.append(a1 * xs[-1] + a2 * xs[-2] + b)
        fit = ar_fit([xs], p=2, differencing=0)
        assert fit.coef[0, 0] == pytest.approx(a1, abs=1e-6)
        assert fit.coef[0, 1] == pytest.approx(a2, abs=1e-6)
        assert fit.intercept[0] == pytest.approx(b, abs=1e-6)

    def test_residuals_orthogonal_to_regressors(self):
        rng = Rng(12)
        history = rng.uniform(0.0, 10.0, (2, 50))
        p = 3
        fit = ar_fit(history, p=p, differencing=0)
        for v, series in enumerate(history):
            rows = series.size - p
            design = np.empty((rows, p + 1))
            for k in range(p):
                design[:, k] = series[p - 1 - k:series.size - 1 - k]
            design[:, p] = 1.0
            sol = np.concatenate([fit.coef[v], [fit.intercept[v]]])
            residual = series[p:] - design @ sol
            assert np.abs(design.T @ residual).max() \
                < 1e-8 * max(1.0, np.abs(series).max()) * rows

    def test_collinear_differenced_series_takes_ridge_path(self):
        # linear trend: first differences are constant, lag column ∝ intercept
        series = 3.0 * np.arange(20.0) + 5.0
        noisy = series + Rng(14).uniform(0.0, 1.0, (1, 20))[0]
        fit = ar_fit([series, noisy], p=1, differencing=1)
        assert_same_fit(fit, [series, noisy], p=1, differencing=1, ridge=[True, False])
        # whatever split between coef and intercept, the implied step stays 3
        assert fit.coef[0, 0] * 3.0 + fit.intercept[0] == pytest.approx(3.0, abs=1e-3)

    def test_constant_series_differenced(self):
        history = np.full((2, 15), 8.0)
        history[1] = 0.0
        fit = ar_fit(history, p=1, differencing=1)
        assert_same_fit(fit, history, p=1, differencing=1, ridge=[True, True])
        assert ar_predict(fit, history, j=3) == pytest.approx([8.0, 0.0], abs=1e-9)

    def test_too_short_series(self):
        with pytest.raises(DataError,
                           match="^need at least 9 points after differencing, have 8$"):
            ar_fit([np.arange(9.0)], p=7, differencing=1)  # 8 diffs < 9

    def test_bad_order_and_differencing(self):
        with pytest.raises(ContractError, match="order"):
            ar_fit([np.arange(10.0)], p=0)
        with pytest.raises(ContractError, match="differencing"):
            ar_fit([np.arange(10.0)], p=1, differencing=2)


class TestARPredict:
    def test_one_step_matches_dot_product(self):
        rng = Rng(13)
        for _ in range(200):
            p = 1 + int(rng.random(1)[0] * 5)
            coef = rng.uniform(-0.3, 0.3, (2, p))
            history = rng.uniform(1.0, 20.0, (2, p + 4))
            fit = ARCoefficients(coef=coef, intercept=np.array([2.0, -1.0]),
                                 differencing=0)
            expected = [max(0.0, float(np.dot(coef[v], history[v, ::-1][:p]) + b))
                        for v, b in enumerate((2.0, -1.0))]
            assert ar_predict(fit, history, j=1) == pytest.approx(expected, rel=1e-12)

    def test_recursive_three_step_ar1(self):
        series = ar1_series(10.0, 0.5, 1.0, 30)
        fit = ar_fit([series], p=1, differencing=0)
        x = series[-1]
        expected = 0.5 ** 3 * x + (0.25 + 0.5 + 1.0) * 1.0
        assert ar_predict(fit, [series], j=3)[0] == pytest.approx(expected, abs=1e-6)

    def test_differenced_forecast_adds_increments(self):
        # increments follow an exact AR(1); undifferencing accumulates them
        inc = ar1_series(4.0, 0.5, 0.0, 25)
        series = 100.0 + np.concatenate([[0.0], np.cumsum(inc)])
        fit = ar_fit([series], p=1, differencing=1)
        last_inc = inc[-1]
        expected = series[-1] + 0.5 * last_inc + 0.25 * last_inc
        assert ar_predict(fit, [series], j=2)[0] == pytest.approx(expected, abs=1e-6)

    def test_negative_forecast_clamped_to_zero(self):
        assert ar_predict(one_region([0.0], -5.0), [[1.0, 2.0]], j=1).tolist() == [0.0]

    def test_bad_horizon(self):
        with pytest.raises(ContractError, match="horizon"):
            ar_predict(one_region([0.5], 0.0), [[1.0, 2.0]], j=0)

    def test_series_shorter_than_order(self):
        with pytest.raises(DataError, match="too short"):
            ar_predict(one_region([0.1, 0.2, 0.3], 0.0), [[1.0, 2.0]], j=1)

    def test_region_count_must_match(self):
        with pytest.raises(ContractError, match="coefficients fit 1 regions"):
            ar_predict(one_region([0.5], 0.0), [[1.0, 2.0], [3.0, 4.0]], j=1)


# ------------------------------------------------- per-region oracles
# The forecasters as one region at a time computes them; each row of a
# row-wise result must equal these bit for bit.

def ref_ar_fit(series, p, differencing):
    work = np.diff(series) if differencing else series
    rows = work.size - p
    design = np.empty((rows, p + 1))
    for k in range(p):
        design[:, k] = work[p - 1 - k:work.size - 1 - k]
    design[:, p] = 1.0
    gram = design.T @ design
    rhs = design.T @ work[p:]
    try:
        sol = np.linalg.solve(gram, rhs)
        if not np.all(np.isfinite(sol)) or np.linalg.cond(gram) > 1e12:
            raise np.linalg.LinAlgError
        ridge = False
    except np.linalg.LinAlgError:
        ridge = True
        sol = np.linalg.solve(gram + 1e-6 * np.eye(p + 1), rhs)
    return sol[:p].copy(), float(sol[p]), ridge


def assert_same_fit(fit, series, p, differencing, ridge):
    """`fit` equals the per-region reference bit for bit, and the reference
    took the OLS (False) or ridge (True) path `ridge` names for each row."""
    refs = [ref_ar_fit(np.asarray(s, dtype=np.float64), p, differencing) for s in series]
    assert [path for _, _, path in refs] == ridge
    assert_bits(fit.coef, [coef for coef, _, _ in refs])
    assert_bits(fit.intercept, [b for _, b, _ in refs])


def ref_ar_predict(coef, intercept, differencing, series, j):
    p = coef.size
    work = list(np.diff(series) if differencing else series)
    for _ in range(j):
        work.append(float(np.dot(coef, work[-1:-p - 1:-1]) + intercept))
    if not differencing:
        return max(0.0, work[-1])
    total = 0.0
    for step in work[-j:]:
        total += step
    return max(0.0, float(series[-1] + total))


def history_kinds(rng, regions, days):
    """One row per kind, cycled: random counts, random reals, a linear
    ramp, a constant and all zeros; taken as a strided column window the
    way case_window returns it."""
    day = np.arange(days + 3.0)
    kinds = (lambda: rng.integers(0, 500, days + 3).astype(float),
             lambda: rng.uniform(0.0, 1e3, days + 3),
             lambda: rng.uniform(0.0, 5.0) * day + rng.uniform(0.0, 9.0),
             lambda: np.full(days + 3, rng.uniform(0.0, 9.0)),
             lambda: np.zeros(days + 3))
    full = np.vstack([kinds[v % len(kinds)]() for v in range(regions)])
    return full[:, 1:days + 1]


def assert_bits(got, expected):
    expected = np.asarray(expected, dtype=np.float64)
    assert got.shape == expected.shape
    assert np.ascontiguousarray(got).tobytes() == expected.tobytes()


class TestRowwiseOracles:
    def test_history_baselines_equal_per_region_formulas(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            days = int(rng.integers(1, 140))
            history = history_kinds(rng, int(rng.integers(1, 12)), days)
            d = int(rng.integers(1, 16))
            assert_bits(avg_predict(history), [float(s.mean()) for s in history])
            assert_bits(avg_window_predict(history, d=d),
                        [float(s[-min(d, days):].mean()) for s in history])
            assert_bits(last_day_predict(history), [s[-1] for s in history])

    @pytest.mark.parametrize("differencing", [1, 0])
    def test_ar_equals_per_region_fit_and_forecast(self, differencing):
        rng = np.random.default_rng(21 + differencing)
        ridge_rows = ols_rows = 0
        for _ in range(60):
            p = int(rng.integers(1, 10))
            days = int(rng.integers(p + 3, 70))
            history = history_kinds(rng, int(rng.integers(1, 12)), days)
            fit = ar_fit(history, p=p, differencing=differencing)
            refs = [ref_ar_fit(s, p, differencing) for s in history]
            assert_bits(fit.coef, [coef for coef, _, _ in refs])
            assert_bits(fit.intercept, [b for _, b, _ in refs])
            ridge_rows += sum(ridge for _, _, ridge in refs)
            ols_rows += sum(not ridge for _, _, ridge in refs)
            for j in (1, 2, 7, 8, 9, 14, 21):
                assert_bits(ar_predict(fit, history, j=j),
                            [ref_ar_predict(coef, b, differencing, s, j)
                             for (coef, b, _), s in zip(refs, history)])
        assert ridge_rows and ols_rows

    @pytest.mark.parametrize("differencing", [1, 0])
    def test_clamp_maps_negative_zero_and_nan_to_zero(self, differencing):
        history = np.array([[3.0, 1.0, 2.0]] * 4)
        intercept = np.array([-0.0, np.nan, -2.0, 0.5])
        fit = ARCoefficients(coef=np.zeros((4, 1)), intercept=intercept,
                             differencing=differencing)
        for j in (1, 9):
            got = ar_predict(fit, history, j=j)
            assert_bits(got, [ref_ar_predict(np.zeros(1), b, differencing, s, j)
                              for b, s in zip(intercept, history)])
            assert not np.signbit(got).any()

    def test_too_short_history_raises_for_every_region(self):
        history = history_kinds(np.random.default_rng(22), 4, 14)
        with pytest.raises(DataError,
                           match="^need at least 15 points after differencing, have 14$"):
            ar_fit(history, p=13, differencing=0)
        with pytest.raises(DataError,
                           match="^need at least 15 points after differencing, have 13$"):
            ar_fit(history, p=13, differencing=1)

    def test_singular_matrix_does_not_sink_other_rows(self):
        rng = np.random.default_rng(23)
        a = rng.uniform(0.0, 1.0, (3, 3))
        gram = np.stack([a @ a.T + np.eye(3), np.zeros((3, 3)), a.T @ a + np.eye(3)])
        rhs = rng.uniform(0.0, 1.0, (3, 3, 1))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(gram, rhs)
        sol = _solve_each(gram, rhs)
        assert np.isnan(sol[1]).all()
        for i in (0, 2):
            assert_bits(sol[i], np.linalg.solve(gram[i], rhs[i]))
