"""Series alignment, OLS fitting, and t tests."""

from __future__ import annotations

import datetime as dt
import math

import mpmath
import numpy as np
import pytest

from fxbarrier import (
    ForecastSeries,
    PairedSample,
    align_series,
    ols_fit,
    t_test,
)

from conftest import weekday_dates

D = dt.date


def forecast(qid, dates, values, source):
    return ForecastSeries(qid, source, tuple(zip(dates, values)))


def normal_equations_oracle(z: np.ndarray, y: np.ndarray):
    """Textbook (X'X)^-1 X'y with an explicit 2x2 inverse."""
    n = len(z)
    xtx = np.array([[n, z.sum()], [z.sum(), (z * z).sum()]], dtype=np.float64)
    xty = np.array([y.sum(), (z * y).sum()], dtype=np.float64)
    det = xtx[0, 0] * xtx[1, 1] - xtx[0, 1] * xtx[1, 0]
    inv = np.array([[xtx[1, 1], -xtx[0, 1]], [-xtx[1, 0], xtx[0, 0]]]) / det
    beta = inv @ xty
    resid = y - beta[0] - beta[1] * z
    s2 = float(resid @ resid) / (n - 2)
    cov = s2 * inv
    return beta[0], beta[1], math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])


def samples_from(z, y):
    dates = weekday_dates(D(2022, 1, 3), len(z))
    return [
        PairedSample("q", d, float(yi), float(zi)) for d, zi, yi in zip(dates, z, y)
    ]


class TestAlignSeries:
    def test_identical_dates_all_pair(self):
        dates = weekday_dates(D(2022, 6, 1), 4)
        rw = forecast("a", dates, [0.1, 0.2, 0.3, 0.4], "random_walk")
        crowd = forecast("a", dates, [0.2, 0.3, 0.4, 0.5], "crowd")
        samples = align_series([rw], [crowd])
        assert len(samples) == 4
        assert samples[0] == PairedSample("a", dates[0], 0.1, 0.2)

    def test_disjoint_dates_are_an_error(self):
        d1 = weekday_dates(D(2022, 6, 1), 2)
        d2 = weekday_dates(D(2022, 8, 1), 2)
        rw = forecast("a", d1, [0.1, 0.2], "random_walk")
        crowd = forecast("a", d2, [0.3, 0.4], "crowd")
        with pytest.raises(ValueError, match="no overlapping"):
            align_series([rw], [crowd])

    def test_single_overlap_among_three(self):
        dates = weekday_dates(D(2022, 6, 1), 3)
        rw = forecast("a", dates, [0.1, 0.2, 0.3], "random_walk")
        crowd = forecast("a", dates[2:], [0.9], "crowd")
        samples = align_series([rw], [crowd])
        assert samples == [PairedSample("a", dates[2], 0.3, 0.9)]

    def test_pools_across_questions_sorted(self):
        dates = weekday_dates(D(2022, 6, 1), 2)
        rw = [
            forecast("b", dates, [0.1, 0.2], "random_walk"),
            forecast("a", dates, [0.3, 0.4], "random_walk"),
        ]
        crowd = [
            forecast("a", dates, [0.5, 0.6], "crowd"),
            forecast("b", dates, [0.7, 0.8], "crowd"),
        ]
        samples = align_series(rw, crowd)
        assert [(s.question_id, s.date) for s in samples] == [
            ("a", dates[0]),
            ("a", dates[1]),
            ("b", dates[0]),
            ("b", dates[1]),
        ]

    def test_duplicate_question_is_an_error(self):
        dates = weekday_dates(D(2022, 6, 1), 2)
        rw = forecast("a", dates, [0.1, 0.2], "random_walk")
        with pytest.raises(ValueError, match="duplicate"):
            align_series([rw, rw], [forecast("a", dates, [0.1, 0.2], "crowd")])


class TestTTest:
    def test_estimate_at_null(self):
        t, p = t_test(0.5, 0.1, 0.5, 100)
        assert t == 0.0
        assert p == 1.0

    def test_slope_row_arithmetic(self):
        t, p = t_test(0.84076, 0.01248, 1.0, 10**6)
        assert t == pytest.approx(-12.7596, abs=0.001)
        assert p < 1e-6

    def test_intercept_row_arithmetic(self):
        t, _ = t_test(-0.01199, 0.00370, 0.0, 10**6)
        assert t == pytest.approx(-3.24, abs=0.01)

    def test_normal_limit(self):
        _, p = t_test(1.96, 1.0, 0.0, 10**6)
        assert p == pytest.approx(0.05, abs=5e-4)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            t_test(1.0, 0.0, 0.0, 10)
        with pytest.raises(ValueError):
            t_test(1.0, 1.0, 0.0, 0)


def exact_two_sided_p(t: float, df: int):
    """I_x(df/2, 1/2) at x = df / (df + t^2), to 50 digits; None below 1e-300.

    I_x(a, 1/2) <= x^a / (a B(a, 1/2) sqrt(1 - x)) <= x^a for the x skipped
    here, and mpmath's series does not converge that far below 1e-300.
    """
    with mpmath.workdps(50):
        a = mpmath.mpf(df) / 2
        x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
        if a * mpmath.log(x) < mpmath.log(mpmath.mpf("1e-305")):
            return None
        exact = mpmath.betainc(a, mpmath.mpf(1) / 2, 0, x, regularized=True)
        return exact if exact >= mpmath.mpf("1e-300") else None


class TestStudentTPValue:
    @pytest.mark.parametrize("df", [1, 2, 3, 5, 18, 41, 186, 2000, 10**6])
    def test_matches_mpmath_incomplete_beta(self, df):
        checked = 0
        for k in range(-32, 33):
            t = 10.0 ** (k / 4)
            exact = exact_two_sided_p(t, df)
            if exact is None:
                continue
            _, p = t_test(t, 1.0, 0.0, df)
            assert abs(p - exact) <= 1e-9 * exact, (df, t, p, exact)
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("df", [1, 2, 7, 40, 10**6])
    def test_zero_t_is_exactly_one(self, df):
        assert t_test(0.25, 0.1, 0.25, df) == (0.0, 1.0)
        # a t whose square underflows still gives 1
        assert t_test(1e-160, 1.0, 0.0, df)[1] == 1.0

    @pytest.mark.parametrize("df", [1, 3, 40, 10**6])
    def test_infinite_or_huge_t_is_zero(self, df):
        # estimate - null overflows to +-inf
        assert t_test(1.5e308, 1.0, -1.5e308, df) == (math.inf, 0.0)
        assert t_test(-1.5e308, 1.0, 1.5e308, df) == (-math.inf, 0.0)
        # t^2 overflows, so df / (df + t^2) is 0
        assert t_test(1e200, 1.0, 0.0, df)[1] == 0.0

    def test_odd_in_t(self):
        for df in (1, 2, 9, 186, 10**6):
            for t in (1e-8, 0.3, 1.0, 2.5, 40.0, 8.4e15):
                assert t_test(-t, 1.0, 0.0, df)[1] == t_test(t, 1.0, 0.0, df)[1]

    @pytest.mark.parametrize("name", ["estimate", "se", "null", "df"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_arguments(self, name, value):
        args = {"estimate": 1.0, "se": 1.0, "null": 0.0, "df": 10}
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            t_test(**args)


class TestOlsFit:
    def test_exact_line_recovered(self):
        z = np.linspace(0.0, 0.4, 20)
        y = np.clip(0.1 + 2.0 * z, 0.0, 1.0)
        result = ols_fit(samples_from(z, y))
        assert result.beta0 == pytest.approx(0.1, abs=1e-12)
        assert result.beta1 == pytest.approx(2.0, abs=1e-12)
        assert result.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = 150
            z = rng.uniform(0.05, 0.95, n)
            y = np.clip(0.05 + 0.8 * z + rng.normal(0, 0.02, n), 0.0, 1.0)
            result = ols_fit(samples_from(z, y))
            b0, b1, se0, se1 = normal_equations_oracle(z, y)
            assert result.beta0 == pytest.approx(b0, rel=1e-10, abs=1e-12)
            assert result.beta1 == pytest.approx(b1, rel=1e-10)
            assert result.se0 == pytest.approx(se0, rel=1e-10)
            assert result.se1 == pytest.approx(se1, rel=1e-10)

    def test_t_statistics_use_declared_nulls(self):
        rng = np.random.default_rng(22)
        z = rng.uniform(0.1, 0.9, 80)
        y = np.clip(0.02 + 0.9 * z + rng.normal(0, 0.03, 80), 0.0, 1.0)
        result = ols_fit(samples_from(z, y), null0=0.0, null1=1.0)
        assert result.t0 == pytest.approx(result.beta0 / result.se0, rel=1e-12)
        assert result.t1 == pytest.approx(
            (result.beta1 - 1.0) / result.se1, rel=1e-12
        )
        assert result.null0 == 0.0 and result.null1 == 1.0

    def test_self_regression_is_identity(self):
        rng = np.random.default_rng(23)
        z = rng.uniform(0.1, 0.9, 50)
        result = ols_fit(samples_from(z, z))
        assert result.beta1 == pytest.approx(1.0, abs=1e-12)
        assert result.beta0 == pytest.approx(0.0, abs=1e-12)
        assert result.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_r_squared_invariant_under_affine_rescaling(self):
        rng = np.random.default_rng(24)
        z = rng.uniform(0.2, 0.8, 60)
        y = np.clip(0.1 + 0.5 * z + rng.normal(0, 0.05, 60), 0.0, 1.0)
        base = ols_fit(samples_from(z, y))
        scaled = ols_fit(samples_from(0.5 * z + 0.1, y))
        assert scaled.r_squared == pytest.approx(base.r_squared, rel=1e-10)
        assert scaled.beta1 == pytest.approx(base.beta1 / 0.5, rel=1e-10)

    def test_residuals_sum_to_zero_and_orthogonal(self):
        rng = np.random.default_rng(25)
        n = 120
        z = rng.uniform(0.1, 0.9, n)
        y = np.clip(0.2 + 0.6 * z + rng.normal(0, 0.04, n), 0.0, 1.0)
        result = ols_fit(samples_from(z, y))
        resid = np.array(result.residuals)
        assert abs(resid.sum()) <= 1e-10 * n
        assert abs(float(resid @ z)) <= 1e-10 * n

    def test_degenerate_regressor_is_an_error(self):
        z = np.full(10, 0.4)
        y = np.linspace(0.1, 0.9, 10)
        with pytest.raises(ValueError, match="singular design"):
            ols_fit(samples_from(z, y))

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 3"):
            ols_fit(samples_from(np.array([0.1, 0.2]), np.array([0.1, 0.2])))

    @pytest.mark.parametrize("name", ["null0", "null1"])
    @pytest.mark.parametrize("null", [math.nan, math.inf])
    @pytest.mark.parametrize("noise", [0.0, 0.03], ids=["noiseless", "noisy"])
    def test_non_finite_null_is_an_error(self, name, null, noise):
        z = np.linspace(0.1, 0.9, 30)
        y = np.clip(0.05 + 0.8 * z + noise * np.sin(17.0 * z), 0.0, 1.0)
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {null!r}$"):
            ols_fit(samples_from(z, y), **{name: null})

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="outside"):
            PairedSample("q", D(2022, 6, 1), 1.2, 0.5)
