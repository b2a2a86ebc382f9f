"""Volatility estimation, the closed form, its Monte Carlo reference, and rolling forecasts."""

from __future__ import annotations

import datetime as dt
import math
import statistics
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fxbarrier.engine as engine_mod
from fxbarrier import (
    PriceSeries,
    Question,
    QuoteDirection,
    StepMode,
    analytic_barrier_probability,
    barrier_rate,
    estimate_volatility,
    remaining_steps,
    resolve,
    rolling_forecast,
    simulate_barrier_probability,
)
from fxbarrier.domain import forecast_days

from conftest import random_walk_series, weekday_dates

D = dt.date


def series_from(rates, start=D(2022, 1, 3), **kwargs):
    dates = weekday_dates(start, len(rates))
    return PriceSeries(kwargs.pop("pair_id", "EURUSD"), tuple(zip(dates, rates)), **kwargs)


def exact_sigma(rates) -> float:
    """Square root of the float nearest the exact sample variance of the diffs."""
    diffs = [Fraction(b - a) for a, b in zip(rates, rates[1:])]
    mean = sum(diffs) / len(diffs)
    return math.sqrt(float(sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1)))


def assert_near_np_std(sigma: float, rates) -> None:
    """Within the error bound of np.std(diffs, ddof=1), which takes two passes in floats.

    With m diffs and u = eps/2, np.std rounds the mean; each deviation from
    it, twice once squared; each square; at most m - 1 additions on each
    square's way into the sum, whatever the summation order; and the division
    by m - 1. So its variance is within (m + 3)u of the exact one, relative
    and to first order, and its square root, rounded once more, within
    ((m + 3)/2 + 1)u of the exact sigma. `sigma` is the exact sigma rounded
    twice, within 1.5u of it. Hence |sigma - np.std| <= (m + 8)u/2 * sigma =
    (m + 8) * eps/4 * sigma, to first order. The rounded mean adds m*delta**2
    to the sum of squares, and products of roundings add terms of order
    (m*u)**2: each far below u here, where m is at most 1,500 and the diffs'
    mean is not large against their spread. The bound allows
    (m + 10) * eps/4 * sigma.
    """
    m = len(rates) - 1
    reference = float(np.std(np.diff(np.asarray(rates)), ddof=1))
    bound = (m + 10) * sys.float_info.epsilon / 4 * sigma
    assert abs(sigma - reference) <= bound, (sigma, reference)


class TestEstimateVolatility:
    def test_constant_series_has_zero_sigma(self):
        series = series_from([1.0, 1.0, 1.0, 1.0])
        est = estimate_volatility(series, series.dates[-1])
        assert est == 0.0

    def test_constant_increments_have_zero_sigma(self):
        series = series_from([1.0, 2.0, 3.0, 4.0])
        assert estimate_volatility(series, series.dates[-1]) == 0.0

    def test_hand_example_matches_sample_stdev(self):
        rates = [1.00, 1.01, 0.99, 1.02]
        series = series_from(rates)
        expected = statistics.stdev([b - a for a, b in zip(rates, rates[1:])])
        est = estimate_volatility(series, series.dates[-1])
        assert est == pytest.approx(expected, rel=1e-12)

    def test_requires_three_observations(self):
        series = series_from([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="insufficient history"):
            estimate_volatility(series, series.dates[1])

    def test_uses_only_data_up_to_as_of(self):
        base = [1.00, 1.01, 0.99, 1.02]
        as_of = weekday_dates(D(2022, 1, 3), 4)[-1]
        a = estimate_volatility(series_from(base + [1.50]), as_of)
        b = estimate_volatility(series_from(base + [0.70]), as_of)
        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80))
    @example(seed=37650130, n=22)  # np.std is 3 ulp from the exact sigma on one day
    def test_every_day_matches_a_fresh_diff_of_the_prefix(self, seed, n):
        rng = np.random.default_rng(seed)
        rates = (1.0 + np.cumsum(rng.normal(0.0, 0.01, n))).clip(0.05).tolist()
        series = series_from(rates)
        # every calendar day from before the first close to after the last,
        # weekends included
        day = series.dates[0] - dt.timedelta(days=1)
        while day <= series.dates[-1] + dt.timedelta(days=3):
            prefix = [r for d, r in series.points if d <= day]
            if len(prefix) < 3:
                message = (
                    "^insufficient history: need at least 3 observations on or "
                    f"before {day}, have {len(prefix)}$"
                )
                with pytest.raises(ValueError, match=message):
                    estimate_volatility(series, day)
            else:
                est = estimate_volatility(series, day)
                assert est == exact_sigma(prefix)
                assert_near_np_std(est, prefix)
            day += dt.timedelta(days=1)

    def test_long_prefixes_match_np_std(self):
        # numpy sums more than 8 values in unrolled lanes and more than 128 in
        # pairwise blocks, so long prefixes take other summation orders; the
        # exact variance is checked on every 37th prefix, as Fractions are slow
        series = random_walk_series(seed=41, n=1_500, sigma=0.01)
        rates = series.rates
        for k in range(3, len(series) + 1):
            est = estimate_volatility(series, series.dates[k - 1])
            assert_near_np_std(est, rates[:k])
            if k % 37 == 0:
                assert est == exact_sigma(rates[:k]), k

    @pytest.mark.parametrize(
        "rates, word",
        [
            ([1e-300, 2e-300, 5e-301, 1e-300], "underflows"),
            ([1e300, 1.7e308, 1e300, 1.7e308], "overflows"),
        ],
    )
    def test_variance_outside_the_float_range_is_an_error(self, rates, word):
        series = series_from(rates, pair_id="XTREME")
        for day in series.dates[2:]:
            message = f"^XTREME: the variance of daily increments up to {day} {word} a float$"
            with pytest.raises(ValueError, match=message):
                estimate_volatility(series, day)
        question = Question(
            "q-xtreme", "XTREME", series.dates[2], series.dates[-1] + dt.timedelta(days=30),
            "relative_depreciation", 0.9, rates[0],
        )
        with pytest.raises(ValueError, match=f"^XTREME: .* {word} a float$"):
            rolling_forecast(series, question)

    def test_tiny_variance_inside_the_float_range_is_kept(self):
        # a subnormal variance is not zero, so sigma_h is its square root
        rates = [2**-500, 2**-500 + 2**-530, 2**-500, 2**-500 + 2**-530]
        sigma = estimate_volatility(series_from(rates), weekday_dates(D(2022, 1, 3), 4)[-1])
        assert sigma == exact_sigma(rates) > 0.0

    def test_threads_racing_to_fill_the_cache_agree(self):
        # A library caller's threads may share one PriceSeries, so several
        # may make the first call on it at once.
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(10):
                series = random_walk_series(seed=seed, n=300)
                days = series.dates[100::25]
                start = threading.Barrier(len(days), timeout=10)
                got = {}

                def work(day):
                    start.wait()
                    got[day] = estimate_volatility(series, day)

                threads = [threading.Thread(target=work, args=(d,)) for d in days]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                    assert not t.is_alive()
                for day in days:
                    prefix = [r for d, r in series.points if d <= day]
                    assert got[day] == exact_sigma(prefix)
                    assert_near_np_std(got[day], prefix)
        finally:
            sys.setswitchinterval(old)


class TestAnalytic:
    def test_barrier_at_start_is_certain(self):
        assert analytic_barrier_probability(1.0, 0.01, 1.0, 10) == 1.0

    def test_zero_sigma_or_steps_above_barrier(self):
        assert analytic_barrier_probability(1.0, 0.0, 0.85, 10) == 0.0
        assert analytic_barrier_probability(1.0, 0.01, 0.85, 0) == 0.0

    def test_one_sigma_root_n_matches_erfc(self):
        # distance exactly sigma * sqrt(n): 2 * Phi(-1) = erfc(1 / sqrt(2))
        barrier = 1.0 - 0.01 * math.sqrt(60)
        p = analytic_barrier_probability(1.0, 0.01, barrier, 60)
        assert p == math.erfc((1.0 - barrier) / (0.01 * math.sqrt(60)) / math.sqrt(2.0))
        assert p == pytest.approx(0.31731050786291415, rel=1e-10)

    def test_matches_mpmath_two_phi(self):
        checked = 0
        with mpmath.workdps(50):
            for sigma in (0.0007, 0.004, 0.013):
                for n in (1, 2, 7, 60, 251):
                    for u in np.geomspace(1e-6, 37.0, 40):
                        barrier = 1.0 - float(u) * sigma * math.sqrt(n)
                        if barrier < 0.5:
                            continue
                        p = analytic_barrier_probability(1.0, sigma, barrier, n)
                        d = (1 - mpmath.mpf(barrier)) / (sigma * mpmath.sqrt(n))
                        exact = 2 * mpmath.ncdf(-d)
                        assert p == pytest.approx(float(exact), rel=1e-12, abs=1e-15)
                        checked += 1
        assert checked >= 300

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            analytic_barrier_probability(1.0, 0.01, 0.85, -1)


NAN_CASES = {
    # each NaN sits where a branch used to answer 0.0 or pass it through
    "x0": (math.nan, 0.0, 0.5, 10),
    "sigma": (1.0, math.nan, 0.5, 10),
    "barrier": (1.0, 0.1, math.nan, 10),
    "n_steps": (1.0, 0.1, 0.5, math.nan),
}


@pytest.mark.parametrize("name", list(NAN_CASES))
@pytest.mark.parametrize("fn", [analytic_barrier_probability, simulate_barrier_probability])
def test_nan_input_is_an_error_naming_it(fn, name):
    with pytest.raises(ValueError, match=f"^{name} must not be NaN$"):
        fn(*NAN_CASES[name])


@pytest.mark.parametrize("steps", [2.5, 60.0, math.inf])
@pytest.mark.parametrize("fn", [analytic_barrier_probability, simulate_barrier_probability])
def test_non_integer_steps_are_an_error(fn, steps):
    # a fractional count once gave the closed form sqrt(2.5) and the Monte
    # Carlo reference a 2-step walk: 0.2059 against about 0.16
    with pytest.raises(ValueError, match=f"^n_steps must be an integer, got {steps!r}$"):
        fn(1.0, 0.1, 0.8, steps)


PARAMS = {"seed": 99, "n_paths": 20_000}
PARAMS_MONO = {"seed": 99, "n_paths": 100_000}


class TestSimulate:
    def test_already_at_barrier_is_exactly_one(self):
        assert simulate_barrier_probability(0.80, 0.01, 0.85, 60, **PARAMS) == 1.0
        assert simulate_barrier_probability(0.85, 0.0, 0.85, 0, **PARAMS) == 1.0

    def test_no_movement_is_exactly_zero(self):
        assert simulate_barrier_probability(1.0, 0.0, 0.85, 60, **PARAMS) == 0.0
        assert simulate_barrier_probability(1.0, 0.01, 0.85, 0, **PARAMS) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            simulate_barrier_probability(1.0, 0.01, 0.85, -1, **PARAMS)
        with pytest.raises(ValueError):
            simulate_barrier_probability(1.0, -0.01, 0.85, 5, **PARAMS)
        with pytest.raises(ValueError):
            simulate_barrier_probability(1.0, 0.01, 0.85, 5, seed=1, n_paths=0)
        with pytest.raises(ValueError):
            simulate_barrier_probability(1.0, 0.01, 0.85, 5, seed=-1)

    @pytest.mark.parametrize("field", ["seed", "n_paths"])
    @pytest.mark.parametrize("value", [7.9, 7.0, True])
    def test_params_reject_floats_and_bools(self, field, value):
        kwargs = {"seed": 1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            simulate_barrier_probability(1.0, 0.01, 0.85, 5, **kwargs)

    def test_params_accept_numpy_integers_as_int(self):
        def p(seed, n_paths):
            return simulate_barrier_probability(1.0, 0.01, 0.9, 5, seed=seed, n_paths=n_paths)

        assert p(np.int64(5), np.uint64(5)) == p(5, 5)
        with pytest.raises(ValueError, match="^n_paths must be at least 1$"):
            p(1, np.int64(0))
        with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer$"):
            p(np.int64(-1), 5)

    def test_deterministic_given_seed(self):
        a = simulate_barrier_probability(1.0, 0.01, 0.85, 60, **PARAMS)
        b = simulate_barrier_probability(1.0, 0.01, 0.85, 60, **PARAMS)
        assert a == b
        c = simulate_barrier_probability(1.0, 0.01, 0.85, 60, seed=100, n_paths=20_000)
        assert a != c

    def test_matches_analytic_on_engine_example(self):
        sim = simulate_barrier_probability(1.0, 0.01, 0.85, 60, **PARAMS)
        ana = analytic_barrier_probability(1.0, 0.01, 0.85, 60)
        se = math.sqrt(max(sim * (1 - sim), 1e-6) / PARAMS["n_paths"])
        assert abs(sim - ana) <= 3 * se + 0.01

    def test_agreement_across_ratio_grid(self):
        sigma = 0.01
        for ratio in (0.5, 1.5, 2.5):
            for n_steps in (5, 60):
                barrier = 1.0 - ratio * sigma * math.sqrt(n_steps)
                sim = simulate_barrier_probability(1.0, sigma, barrier, n_steps, **PARAMS)
                ana = analytic_barrier_probability(1.0, sigma, barrier, n_steps)
                se = math.sqrt(max(sim * (1 - sim), 1e-6) / PARAMS["n_paths"])
                assert abs(sim - ana) <= 3 * se + 0.01, (ratio, n_steps)

    def test_monotone_in_sigma_at_fixed_seed(self):
        probs = [
            simulate_barrier_probability(1.0, s, 0.9, 40, **PARAMS_MONO)
            for s in (0.002, 0.005, 0.01, 0.02, 0.05)
        ]
        assert probs == sorted(probs)

    def test_monotone_in_barrier_distance_at_fixed_seed(self):
        probs = [
            simulate_barrier_probability(1.0, 0.01, 1.0 - gap, 40, **PARAMS_MONO)
            for gap in (0.02, 0.05, 0.1, 0.2)
        ]
        assert probs == sorted(probs, reverse=True)

    def test_monotone_in_steps(self):
        probs = [
            simulate_barrier_probability(1.0, 0.01, 0.95, n, **PARAMS_MONO)
            for n in (5, 20, 60, 120, 250)
        ]
        assert probs == sorted(probs)

    def test_mirrored_call_prices_up_crossing(self):
        # The engine sees only the float (x0 - barrier) / sigma, and 1.15 and 0.85
        # round differently in binary, so up 0.15 from 1.0 and down 0.15 from 1.0
        # are distances 6 ulp apart (14.999999999999991 vs 15.000000000000002).
        up = simulate_barrier_probability(-1.0, 0.01, -1.15, 60, **PARAMS)
        down = simulate_barrier_probability(1.0, 0.01, 0.85, 60, **PARAMS)
        # Negating both operands, as rolling_forecast does for ccy_per_usd, is
        # exact: (-a) - (-b) == b - a, so the mirror must hold bit for bit.
        assert up == simulate_barrier_probability(1.15, 0.01, 1.0, 60, **PARAMS)
        assert simulate_barrier_probability(-0.85, 0.01, -1.0, 60, **PARAMS) == down
        # The decimal pair differs by ~1.1e-14 in d, and |dp/dd| ~ 0.016 here,
        # so the gap is ~2e-16; a sign or mirror bug would move p by the Monte
        # Carlo standard error (~1.6e-3 at 20k paths), far outside rel=1e-12.
        assert up == pytest.approx(down, rel=1e-12, abs=0)

    def test_negative_levels_can_cross(self):
        # arithmetic walk: barriers below zero remain reachable
        p = simulate_barrier_probability(0.02, 0.05, -0.05, 30, **PARAMS)
        ana = analytic_barrier_probability(0.02, 0.05, -0.05, 30)
        assert p > 0.2
        assert abs(p - ana) < 0.02


def reference_crossing_probability(d_over_sigma, n_steps, n_paths, seed):
    """The kernel's estimator on the whole (n_steps, n_paths) matrix of draws."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    levels = np.cumsum(rng.standard_normal((n_steps, n_paths)), axis=0) + d_over_sigma
    np.maximum(levels, 0.0, out=levels)
    left = np.vstack([np.full((1, n_paths), d_over_sigma), levels[:-1]])
    survival = np.prod(1.0 - np.exp(-2.0 * left * levels), axis=0)
    return 1.0 - float(survival.mean())


def kernel_cases():
    rng = np.random.default_rng(20261018)
    for n_steps in (1, 2, 3, 5, 7, 37, 61, 129):
        for n_paths in (1, 2, 6, 7, 8, 999, 2_731):
            d = float(rng.uniform(0.05, 3.0) * math.sqrt(n_steps))
            yield d, n_steps, n_paths, int(rng.integers(0, 2**64, dtype=np.uint64))


class TestKernel:
    def test_matches_the_whole_matrix_reference(self):
        # a running sum and cumsum add in different orders, so a level can
        # differ in its last bit
        for case in kernel_cases():
            p = engine_mod._crossing_probability(*case)
            assert abs(p - reference_crossing_probability(*case)) <= 1e-15, case
        # the public entry point passes (x0 - barrier) / sigma, a few ulp from 10.0
        p = simulate_barrier_probability(1.0, 0.01, 0.9, 60, **PARAMS)
        ref = reference_crossing_probability((1.0 - 0.9) / 0.01, 60, PARAMS["n_paths"], PARAMS["seed"])
        assert abs(p - ref) <= 1e-15

    def test_pool_threads_match_calls_in_turn(self):
        cases = list(kernel_cases())[::4]
        in_turn = [engine_mod._crossing_probability(*case) for case in cases]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # so the threads' calls interleave
        try:
            with ThreadPoolExecutor(3) as pool:
                got = pool.map(engine_mod._crossing_probability, *zip(*cases), timeout=60)
                assert list(got) == in_turn
        finally:
            sys.setswitchinterval(old)

    # Step k draws the k-th n_paths normals whatever n_steps is, so a longer
    # walk extends the same paths, and a farther start raises every level:
    # both properties hold bit for bit at a fixed seed and path count.
    @settings(max_examples=100, deadline=None)
    @given(
        d=st.floats(0.01, 20.0),
        steps=st.lists(st.integers(1, 200), min_size=2, max_size=2, unique=True),
    )
    def test_more_steps_never_lower_the_estimate(self, d, steps):
        short, long = (engine_mod._crossing_probability(d, n, 500, 7) for n in sorted(steps))
        assert short <= long

    @settings(max_examples=100, deadline=None)
    @given(
        ds=st.lists(st.floats(0.01, 20.0), min_size=2, max_size=2, unique=True),
        n_steps=st.integers(1, 200),
    )
    def test_a_farther_barrier_never_raises_the_estimate(self, ds, n_steps):
        near, far = (engine_mod._crossing_probability(d, n_steps, 500, 7) for d in sorted(ds))
        assert far <= near


class TestRemainingSteps:
    def test_trading_days_skip_weekends(self):
        # Wed 2022-06-01 .. Wed 2022-06-08: Thu, Fri, Mon, Tue, Wed
        assert remaining_steps(D(2022, 6, 1), D(2022, 6, 8), StepMode.TRADING_DAYS) == 5
        assert remaining_steps(D(2022, 6, 1), D(2022, 6, 8), StepMode.CALENDAR_DAYS) == 7

    def test_weekend_close_has_no_trading_steps(self):
        # Fri 2022-06-03 .. Sun 2022-06-05
        assert remaining_steps(D(2022, 6, 3), D(2022, 6, 5), StepMode.TRADING_DAYS) == 0
        assert remaining_steps(D(2022, 6, 3), D(2022, 6, 5), StepMode.CALENDAR_DAYS) == 2

    def test_past_close_is_zero(self):
        assert remaining_steps(D(2022, 6, 8), D(2022, 6, 1), StepMode.TRADING_DAYS) == 0

    def test_many_dates_in_one_call_match_a_count_per_date(self):
        def one_date(date, close_date, step_mode):
            if date >= close_date:
                return 0
            if step_mode is StepMode.CALENDAR_DAYS:
                return (close_date - date).days
            one = dt.timedelta(days=1)
            return int(np.busday_count(date + one, close_date + one))

        dates = [D(2022, 5, 20) + dt.timedelta(days=i) for i in range(60)]
        for close_date in [D(2022, 6, 17), D(2022, 6, 19)]:  # a Friday, a Sunday
            for mode in StepMode:
                got = engine_mod._steps_to_close(dates, close_date, mode)
                assert got == [one_date(d, close_date, mode) for d in dates]
                assert all(type(n) is int for n in got)
        assert engine_mod._steps_to_close([], D(2022, 6, 17), StepMode.TRADING_DAYS) == []

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.dates(D(1990, 1, 1), D(2030, 12, 31)),
        offsets=st.lists(st.integers(-30 * 366, 30 * 366), min_size=1, max_size=20),
    )
    def test_weekday_count_matches_np_busday_count(self, start, offsets):
        # dates up to 30 years either side of the close, so before and after
        # it, starting and ending on any weekday
        one = dt.timedelta(days=1)
        for close_date in (start + dt.timedelta(days=k) for k in range(7)):
            dates = [close_date + dt.timedelta(days=k) for k in offsets]
            expected = [
                max(0, int(np.busday_count(d + one, close_date + one))) for d in dates
            ]
            assert engine_mod._steps_to_close(dates, close_date, StepMode.TRADING_DAYS) == expected
            for d, n in zip(dates, expected):
                assert remaining_steps(d, close_date, StepMode.TRADING_DAYS) == n


def make_fixture(n=60, seed=3, sigma=0.008):
    series = random_walk_series(seed=seed, n=n, sigma=sigma)
    question = Question(
        question_id="q-fix",
        pair_id=series.pair_id,
        open_date=series.dates[10],
        close_date=series.dates[-1],
        baseline_rate=series.rates[10],
        threshold_kind="relative_depreciation",
        threshold_value=0.05,
    )
    return series, question


def make_ccy_per_usd_fixture(n=80):
    rng = np.random.default_rng(12)
    dates = weekday_dates(D(2022, 1, 3), n)
    rates = 130.0 + np.cumsum(rng.normal(0.0, 0.9, n))
    series = PriceSeries("JPYUSD", tuple(zip(dates, rates.tolist())), "ccy_per_usd")
    question = Question(
        question_id="q-jpy",
        pair_id="JPYUSD",
        open_date=dates[10],
        close_date=dates[-1],
        baseline_rate=float(rates[10]),
        threshold_kind="relative_depreciation",
        threshold_value=0.05,
    )
    return series, question


class TestRollingForecast:
    def test_bit_identical_reruns(self):
        series, question = make_fixture()
        a = rolling_forecast(series, question)
        b = rolling_forecast(series, question)
        assert a == b

    def test_ends_strictly_before_resolution(self):
        series, question = make_fixture(seed=8, sigma=0.02)
        res = resolve(series, question)
        forecast = rolling_forecast(series, question)
        assert all(d < res.resolve_date for d in forecast.dates)
        assert forecast.dates[0] == question.open_date

    def test_days_are_the_series_dates_among_forecast_days(self):
        for seed in range(12):
            series, question = make_fixture(seed=seed, sigma=0.02)
            start = series.dates[10] + dt.timedelta(days=seed % 4)  # weekends too
            question = question._replace(scoring_start_date=start)
            days = forecast_days(question, resolve(series, question))
            forecast = rolling_forecast(series, question)
            assert forecast.dates == tuple(d for d in series.dates if d in days)

    def test_scoring_start_trims_early_dates(self):
        series, question = make_fixture()
        late = Question(
            question_id=question.question_id,
            pair_id=question.pair_id,
            open_date=question.open_date,
            close_date=question.close_date,
            baseline_rate=question.baseline_rate,
            threshold_kind=question.threshold_kind,
            threshold_value=question.threshold_value,
            scoring_start_date=series.dates[20],
        )
        full = rolling_forecast(series, question)
        trimmed = rolling_forecast(series, late)
        assert trimmed.dates[0] == series.dates[20]
        assert dict(full.points)[series.dates[20]] == dict(trimmed.points)[series.dates[20]]

    def test_history_start_is_a_window_on_the_series(self):
        series, question = make_fixture()
        question = question._replace(baseline_rate=None)
        full = rolling_forecast(series, question)
        # on a trading day, and on a Sunday before one
        for start in (series.dates[3], series.dates[5] - dt.timedelta(days=1)):
            trimmed = rolling_forecast(series, question._replace(history_start=start))
            assert trimmed == rolling_forecast(series.window(start=start), question)
            assert trimmed.dates == full.dates and trimmed != full

    def test_pseudo_out_of_sample(self):
        series, question = make_fixture()
        base = dict(rolling_forecast(series, question).points)
        rng = np.random.default_rng(0)
        for _ in range(5):
            idx = int(rng.integers(20, len(series) - 1))
            mutated_points = list(series.points)
            d, r = mutated_points[idx]
            mutated_points[idx] = (d, r * float(rng.uniform(0.9, 1.1)))
            mutated = PriceSeries(series.pair_id, tuple(mutated_points))
            got = dict(rolling_forecast(mutated, question).points)
            check_date = series.dates[idx - 1]
            assert got[check_date] == base[check_date]

    def test_tracks_analytic_oracle(self):
        series, question = make_fixture()
        forecast = rolling_forecast(series, question)
        barrier = question.baseline_rate * 0.95
        for d, p in forecast.points:
            vol = estimate_volatility(series, d)
            steps = remaining_steps(d, question.close_date, StepMode.TRADING_DAYS)
            ana = analytic_barrier_probability(series.rate_on(d), vol, barrier, steps)
            assert abs(p - ana) <= 0.02, d

    def test_insufficient_history_propagates(self):
        series, _ = make_fixture()
        early = Question(
            question_id="q-early",
            pair_id=series.pair_id,
            open_date=series.dates[1],
            close_date=series.dates[-1],
            baseline_rate=series.rates[1],
            threshold_kind="relative_depreciation",
            threshold_value=0.05,
        )
        with pytest.raises(ValueError, match="insufficient history"):
            rolling_forecast(series, early)

    def test_calendar_steps_raise_mid_range_probabilities(self):
        series, question = make_fixture()
        trading = rolling_forecast(series, question)
        calendar = rolling_forecast(series, question, StepMode.CALENDAR_DAYS)
        assert trading.dates == calendar.dates
        # weekends add steps, so mid-range crossing probabilities move up
        mid = [
            (t, c)
            for (_, t), (_, c) in zip(trading.points, calendar.points)
            if 0.1 <= t <= 0.9
        ]
        assert mid
        assert all(c > t for t, c in mid)

    def test_early_crossing_before_scoring_start_gives_empty_series(self):
        rates = [1.0, 0.99, 0.98, 0.80, 0.99, 1.0, 1.0, 1.0, 1.0, 1.0]
        dates = weekday_dates(D(2022, 1, 3), len(rates))
        series = PriceSeries("EURUSD", tuple(zip(dates, rates)))
        question = Question(
            question_id="q-early-cross",
            pair_id="EURUSD",
            open_date=dates[0],
            close_date=dates[-1],
            baseline_rate=1.0,
            threshold_kind="relative_depreciation",
            threshold_value=0.15,
            scoring_start_date=dates[5],
        )
        assert resolve(series, question).resolve_date == dates[3]
        forecast = rolling_forecast(series, question)
        assert len(forecast) == 0

    def test_ccy_per_usd_tracks_mirrored_analytic(self):
        series, question = make_ccy_per_usd_fixture(n=50)
        forecast = rolling_forecast(series, question)
        assert len(forecast)
        barrier = question.baseline_rate / 0.95
        for d, p in forecast.points:
            vol = estimate_volatility(series, d)
            steps = remaining_steps(d, question.close_date, StepMode.TRADING_DAYS)
            ana = analytic_barrier_probability(-series.rate_on(d), vol, -barrier, steps)
            assert abs(p - ana) <= 0.02, d


class TestClosedFormForecast:
    @pytest.mark.parametrize("fixture", [make_fixture, make_ccy_per_usd_fixture])
    @pytest.mark.parametrize("step_mode", list(StepMode))
    def test_each_day_is_the_closed_form_of_its_own_inputs(self, fixture, step_mode):
        series, question = fixture(n=80)
        resolve_date = resolve(series, question).resolve_date
        sign = series.quote_direction.sign
        barrier = barrier_rate(question, series)
        expected = []
        for d, rate in series.points:
            if question.scoring_start <= d < resolve_date:
                sigma = estimate_volatility(series, d)
                n_steps = remaining_steps(d, question.close_date, step_mode)
                p = analytic_barrier_probability(sign * rate, sigma, sign * barrier, n_steps)
                expected.append((d, p))
        assert len(expected) > 20
        assert rolling_forecast(series, question, step_mode).points == tuple(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        direction=st.sampled_from(list(QuoteDirection)),
        thresholds=st.lists(st.floats(0.001, 0.3), min_size=2, max_size=2, unique=True),
        step_mode=st.sampled_from(list(StepMode)),
    )
    def test_a_higher_threshold_never_raises_a_day(self, seed, direction, thresholds, step_mode):
        rng = np.random.default_rng(seed)
        dates = weekday_dates(D(2022, 1, 3), 60)
        rates = (1.0 + np.cumsum(rng.normal(0.0, 0.01, 60))).clip(0.05)
        series = PriceSeries("EURUSD", tuple(zip(dates, rates.tolist())), direction)
        near, far = (
            rolling_forecast(
                series,
                Question("q", "EURUSD", dates[10], dates[-1], "relative_depreciation",
                         threshold, float(rates[10])),
                step_mode,
            ).points
            for threshold in sorted(thresholds)
        )
        # a farther barrier resolves no earlier, so it forecasts every day the
        # nearer one does, and none of them higher
        far = dict(far)
        assert all(d in far and far[d] <= p for d, p in near)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        gap=st.integers(1, 2**16),
        step_mode=st.sampled_from(list(StepMode)),
    )
    def test_mirrored_question_prices_the_up_crossing_bit_for_bit(self, seed, gap, step_mode):
        # Rates and barriers are multiples of 2**-20 near 1, so 4 - x is exact
        # and a currency-per-dollar series 4 - r crossing up to 4 - b has the
        # same increments (negated), the same distances and the same outcome
        # as r falling to b: every day must match bit for bit.
        rng = np.random.default_rng(seed)
        dates = weekday_dates(D(2022, 1, 3), 60)
        ticks = 2**20 + np.cumsum(rng.integers(-2**13, 2**13, 60))
        rates = [int(k) / 2**20 for k in ticks]
        level = (int(ticks[10]) - gap) / 2**20

        def forecast(direction, rates, level):
            series = PriceSeries("X", tuple(zip(dates, rates)), direction)
            question = Question("q", "X", dates[10], dates[-1], "absolute_level", level, rates[10])
            return rolling_forecast(series, question, step_mode)

        down = forecast(QuoteDirection.USD_PER_CCY, rates, level)
        up = forecast(QuoteDirection.CCY_PER_USD, [4.0 - r for r in rates], 4.0 - level)
        assert len(down) > 0
        assert up.points == down.points
