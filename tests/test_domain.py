"""Domain types, threshold arithmetic, and resolution semantics."""

from __future__ import annotations

import dataclasses
import datetime as dt
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxbarrier import (
    ForecastSeries,
    PriceSeries,
    Question,
    QuoteDirection,
    Resolution,
    ScoreSeries,
    barrier_rate,
    resolve,
    rolling_forecast,
    score_series,
)
from fxbarrier.domain import resolve_closed

from conftest import random_walk_series, weekday_dates

D = dt.date


def make_question(**kwargs) -> Question:
    defaults = dict(
        question_id="q",
        pair_id="EURUSD",
        open_date=D(2022, 6, 1),
        close_date=D(2022, 12, 30),
        baseline_rate=1.0,
        threshold_kind="relative_depreciation",
        threshold_value=0.15,
    )
    defaults.update(kwargs)
    return Question(**defaults)


def series_from(rates: list[float], start: D = D(2022, 6, 1), **kwargs) -> PriceSeries:
    dates = weekday_dates(start, len(rates))
    return PriceSeries(kwargs.pop("pair_id", "EURUSD"), tuple(zip(dates, rates)), **kwargs)


# empty series that carry only a quote direction, for barriers with a baseline
USD_QUOTE = PriceSeries("P", (), QuoteDirection.USD_PER_CCY)
CCY_QUOTE = PriceSeries("P", (), QuoteDirection.CCY_PER_USD)


class TestThresholdRate:
    def test_relative_fifteen_percent(self):
        q = make_question(baseline_rate=1.0, threshold_value=0.15)
        assert barrier_rate(q, USD_QUOTE) == 0.85

    def test_relative_half(self):
        q = make_question(baseline_rate=2.0, threshold_value=0.5)
        assert barrier_rate(q, USD_QUOTE) == 1.0

    def test_absolute_parity(self):
        q = make_question(
            pair_id="GBPUSD",
            baseline_rate=1.3,
            threshold_kind="absolute_level",
            threshold_value=1.0,
        )
        assert barrier_rate(q, USD_QUOTE) == 1.0

    def test_relative_threshold_below_baseline(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = make_question(
                baseline_rate=float(rng.uniform(0.1, 200.0)),
                threshold_value=float(rng.uniform(0.01, 0.99)),
            )
            assert barrier_rate(q, USD_QUOTE) < q.baseline_rate

    def test_ccy_per_usd_barrier_is_reciprocal_loss(self):
        q = make_question(baseline_rate=130.0, threshold_value=0.15)
        assert barrier_rate(q, CCY_QUOTE) == pytest.approx(130.0 / 0.85)
        assert barrier_rate(q, USD_QUOTE) == pytest.approx(130.0 * 0.85)


def two_function_barrier(question: Question, direction) -> float:
    """The barrier as the dollar-terms `threshold_rate` plus `barrier_rate` once gave it."""
    direction = QuoteDirection(direction)
    relative = question.threshold_kind.value == "relative_depreciation"
    if direction is QuoteDirection.USD_PER_CCY:
        if relative:
            return question.baseline_rate * (1.0 - question.threshold_value)
        return question.threshold_value
    if relative:
        return question.baseline_rate / (1.0 - question.threshold_value)
    return question.threshold_value


class TestBarrierRate:
    @settings(max_examples=300, deadline=None)
    @given(
        direction=st.sampled_from(list(QuoteDirection) + [d.value for d in QuoteDirection]),
        relative=st.booleans(),
        baseline=st.floats(1e-300, 1e300),
        value=st.floats(1e-300, 1e300),
        fraction=st.floats(5e-324, 1.0, exclude_max=True),
    )
    def test_same_bits_as_the_two_functions_it_replaced(
        self, direction, relative, baseline, value, fraction
    ):
        q = make_question(
            baseline_rate=baseline,
            threshold_kind="relative_depreciation" if relative else "absolute_level",
            threshold_value=fraction if relative else value,
        )
        got = barrier_rate(q, PriceSeries("P", (), direction))
        assert got.hex() == two_function_barrier(q, direction).hex()

    @settings(max_examples=200, deadline=None)
    @given(
        direction=st.sampled_from(list(QuoteDirection)),
        rates=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=8),
        index=st.integers(0, 7),
        days_before=st.integers(0, 3),
        fraction=st.floats(5e-324, 1.0, exclude_max=True),
    )
    def test_a_derived_baseline_is_the_first_rate_on_or_after_the_open(
        self, direction, rates, index, days_before, fraction
    ):
        series = series_from(rates, quote_direction=direction)
        open_date = series.dates[index % len(series)] - dt.timedelta(days=days_before)
        derived = make_question(open_date=open_date, baseline_rate=None, threshold_value=fraction)
        explicit = dataclasses.replace(
            derived, baseline_rate=series.first_rate_on_or_after(open_date)
        )
        assert barrier_rate(derived, series).hex() == barrier_rate(explicit, series).hex()

    def test_no_rate_on_or_after_the_open_is_insufficient_data(self):
        series = series_from([1.0, 1.01, 0.99], start=D(2022, 5, 2))
        with pytest.raises(
            ValueError, match="^insufficient data: no observation on or after 2022-06-01$"
        ):
            barrier_rate(make_question(baseline_rate=None), series)

    def test_bad_direction_is_an_error_for_every_kind(self):
        # a barrier reads its direction from the series, which checks it
        with pytest.raises(ValueError, match="'down' is not a valid QuoteDirection"):
            PriceSeries("P", (), "down")


class TestOpenQuestion:
    """Data that ends before the close leaves a question open unless it crossed."""

    # a week of history before the open on 2022-06-01, then data to Tuesday 06-07
    history = [1.0, 1.01, 0.99, 1.0, 1.02]

    def test_no_crossing_before_the_data_ends_is_open(self):
        series = series_from(self.history + [1.0, 0.95, 0.90, 0.92, 0.91], start=D(2022, 5, 25))
        q = make_question(close_date=D(2022, 6, 30))
        assert resolve(series, q) == Resolution("q", None, D(2022, 6, 30))
        with pytest.raises(ValueError) as info:
            resolve_closed(series, q)
        assert str(info.value) == (
            "q: open: EURUSD data ends 2022-06-07, before close 2022-06-30, without a crossing"
        )
        # the forecast still runs through the last observed day
        assert rolling_forecast(series, q).dates == series.dates[5:]
        forecast = ForecastSeries("q", "random_walk", ((D(2022, 6, 1), 0.3),))
        with pytest.raises(ValueError, match="^q: an open question has no outcome to score$"):
            score_series(forecast, resolve(series, q))

    def test_a_crossing_before_the_data_ends_resolves_yes(self):
        series = series_from(self.history + [1.0, 0.95, 0.80, 0.90], start=D(2022, 5, 25))
        q = make_question(close_date=D(2022, 6, 30))
        crossed = Resolution("q", 1, series.dates[7])
        assert resolve(series, q) == resolve_closed(series, q) == crossed
        assert rolling_forecast(series, q).dates == series.dates[5:7]

    def test_the_close_counts_from_its_last_weekday(self):
        series = series_from([1.0, 0.95, 0.90, 0.92, 0.91])  # ends Tuesday 2022-06-07
        for close, outcome in [
            (D(2022, 6, 7), 0),
            (D(2022, 6, 5), 0),  # a Sunday: data after it reached the close
            (D(2022, 6, 8), None),  # Wednesday has no close yet, or is a holiday
        ]:
            assert resolve(series, make_question(close_date=close)).outcome == outcome
        friday = series_from([1.0, 0.95, 0.90], start=D(2022, 6, 8))  # Wed .. Fri 06-10
        for sunday_or_saturday in (D(2022, 6, 11), D(2022, 6, 12)):
            q = make_question(open_date=D(2022, 6, 8), close_date=sunday_or_saturday)
            assert resolve(friday, q).outcome == 0

    def test_resolution_takes_an_open_outcome_and_nothing_else(self):
        assert Resolution("q", None, D(2022, 6, 30)).outcome is None
        with pytest.raises(ValueError, match="outcome must be 0, 1 or None"):
            Resolution("q", 2, D(2022, 6, 30))


class TestResolve:
    def test_crossing_resolves_on_first_dip(self):
        series = series_from([1.0, 0.95, 0.80, 0.70, 0.90])
        res = resolve(series, make_question())
        assert res.outcome == 1
        assert res.resolve_date == series.dates[2]

    def test_no_crossing_resolves_no_at_close(self):
        series = series_from([1.0, 0.95, 0.90, 0.92, 0.91])
        q = make_question(close_date=series.dates[-1])
        res = resolve(series, q)
        assert res.outcome == 0
        assert res.resolve_date == q.close_date

    def test_crossing_on_open_date_does_not_count(self):
        series = series_from([0.80, 0.90, 0.95])
        q = make_question(open_date=series.dates[0], close_date=series.dates[-1])
        assert resolve(series, q).outcome == 0

    def test_no_overlap_is_an_error(self):
        series = series_from([1.0, 1.0, 1.0], start=D(2023, 6, 1))
        with pytest.raises(ValueError, match="insufficient data"):
            resolve(series, make_question())

    def test_pair_mismatch_is_an_error(self):
        series = series_from([1.0, 1.0], pair_id="OTHER")
        with pytest.raises(ValueError, match="pair mismatch"):
            resolve(series, make_question())

    def test_ccy_per_usd_crosses_upward(self):
        series = series_from([130.0, 140.0, 155.0, 160.0], quote_direction="ccy_per_usd")
        q = make_question(
            baseline_rate=130.0,
            threshold_value=0.15,
            open_date=series.dates[0],
            close_date=series.dates[-1],
        )
        res = resolve(series, q)
        # barrier 130 / 0.85 = 152.94, first touched at 155.0
        assert res.outcome == 1
        assert res.resolve_date == series.dates[2]

    def test_lower_barrier_never_crosses_earlier(self):
        for seed in range(25):
            series = random_walk_series(seed=seed, n=80, sigma=0.02)
            q_hi = make_question(
                open_date=series.dates[0],
                close_date=series.dates[-1],
                threshold_value=0.02,
            )
            q_lo = make_question(
                open_date=series.dates[0],
                close_date=series.dates[-1],
                threshold_value=0.06,
            )
            hi, lo = resolve(series, q_hi), resolve(series, q_lo)
            if lo.outcome == 1:
                assert hi.outcome == 1
                assert hi.resolve_date <= lo.resolve_date

    def test_resolution_ignores_data_after_resolve_date(self):
        series = series_from([1.0, 0.95, 0.80, 0.70, 0.90, 0.84])
        q = make_question(close_date=series.dates[-1])
        res = resolve(series, q)
        truncated = series.window(end=res.resolve_date)
        assert resolve(truncated, q) == res


def scan_resolve(series: PriceSeries, question: Question):
    """Reference resolution: scan every point of the series."""
    sign = series.quote_direction.sign
    barrier = sign * barrier_rate(question, series)
    seen = False
    for d, r in series.points:
        if question.open_date <= d <= question.close_date:
            seen = True
            if d > question.open_date and sign * r <= barrier:
                return 1, d
    # open while the data stops before the close's last weekday (Mon-Fri)
    weekdays = [question.close_date - dt.timedelta(days=i) for i in range(7)]
    last_weekday = next(d for d in weekdays if d.weekday() < 5)
    outcome = None if series.dates[-1] < last_weekday else 0
    return (outcome, question.close_date) if seen else None


class TestResolveWindow:
    def test_bisected_window_matches_a_full_scan(self):
        # open and close dates on and off trading days, before, inside and
        # after the data, in both quote directions
        rng = np.random.default_rng(31)
        for seed in range(40):
            direction = ["usd_per_ccy", "ccy_per_usd"][seed % 2]
            series = random_walk_series(seed=seed, n=60, sigma=0.02, quote_direction=direction)
            first = series.dates[0]
            for _ in range(10):
                open_date = first + dt.timedelta(days=int(rng.integers(-10, 85)))
                close_date = open_date + dt.timedelta(days=int(rng.integers(1, 40)))
                q = make_question(
                    open_date=open_date,
                    close_date=close_date,
                    baseline_rate=series.rates[0],
                    threshold_value=float(rng.uniform(0.005, 0.05)),
                )
                want = scan_resolve(series, q)
                if want is None:
                    with pytest.raises(ValueError, match="insufficient data"):
                        resolve(series, q)
                else:
                    got = resolve(series, q)
                    assert (got.outcome, got.resolve_date) == want


class TestPriceSeriesCache:
    def test_cached_arrays_do_not_change_identity(self):
        a = random_walk_series(seed=5, n=30)
        b = random_walk_series(seed=5, n=30)
        before = (repr(a), hash(a))
        diffs = np.diff(np.asarray(a.rates)).tolist()
        assert a.diff_sums[1][-1] == int(sum(map(Fraction, diffs)) * 2 ** a.diff_sums[0])
        assert a.dates[0] == D(2022, 1, 3) and a.rate_on(a.dates[7]) == a.points[7][1]
        assert "diff_sums" in vars(a) and "diff_sums" not in vars(b)
        assert (repr(a), hash(a)) == before == (repr(b), hash(b))
        assert a == b and b == a

    def test_diff_sums_are_read_only(self):
        series = random_walk_series(seed=5, n=30)
        with pytest.raises(TypeError):
            series.diff_sums[1][0] = 1


class TestValidation:
    def test_price_series_rejects_nonpositive_rates(self):
        for bad in (-0.5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-positive"):
                series_from([1.0, bad])

    def test_price_series_rejects_unsorted_dates(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PriceSeries("X", ((D(2022, 1, 4), 1.0), (D(2022, 1, 3), 1.0)))

    def test_price_series_rejects_duplicate_dates(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PriceSeries("X", ((D(2022, 1, 3), 1.0), (D(2022, 1, 3), 1.1)))

    def test_question_requires_open_before_close(self):
        with pytest.raises(ValueError, match="must precede"):
            make_question(open_date=D(2022, 12, 30), close_date=D(2022, 6, 1))

    def test_relative_threshold_range(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            make_question(threshold_value=1.5)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            make_question(threshold_value=0.0)

    def test_absolute_threshold_positive(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive"):
                make_question(threshold_kind="absolute_level", threshold_value=bad)

    def test_baseline_rate_positive_and_finite(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="baseline_rate must be positive and finite"):
                make_question(baseline_rate=bad)

    def test_scoring_start_inside_window(self):
        q = make_question(scoring_start_date=D(2022, 7, 1))
        assert q.scoring_start == D(2022, 7, 1)
        assert make_question().scoring_start == D(2022, 6, 1)
        with pytest.raises(ValueError, match="scoring_start_date"):
            make_question(scoring_start_date=D(2021, 1, 1))

    def test_forecast_series_probability_range(self):
        with pytest.raises(ValueError, match="outside"):
            ForecastSeries("q", "random_walk", ((D(2022, 6, 1), 1.5),))

    def test_score_series_range_and_order(self):
        with pytest.raises(ValueError, match="outside"):
            ScoreSeries("q", "crowd", ((D(2022, 6, 1), -0.1),))
        with pytest.raises(ValueError, match="strictly increasing"):
            ScoreSeries(
                "q", "crowd", ((D(2022, 6, 2), 0.1), (D(2022, 6, 1), 0.1))
            )

    def test_window_and_lookup(self):
        series = series_from([1.0, 1.1, 1.2, 1.3])
        cut = series.window(start=series.dates[1], end=series.dates[2])
        assert cut.rates == (1.1, 1.2)
        assert series.rate_on(series.dates[2]) == 1.2
        with pytest.raises(KeyError):
            series.rate_on(D(2021, 1, 1))
        assert series.first_rate_on_or_after(D(2021, 1, 1)) == 1.0
        assert series.first_rate_on_or_after(D(2030, 1, 1)) is None
