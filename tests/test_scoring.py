"""Brier scoring identities, propriety, and mean-score curves."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from fxbarrier import (
    ForecastSeries,
    Resolution,
    ScoreSeries,
    brier,
    mean_score_curve,
    score_series,
)

from conftest import weekday_dates

D = dt.date


class TestBrier:
    def test_maximally_uncertain_forecast_scores_quarter(self):
        assert brier(0.5, 0) == 0.25
        assert brier(0.5, 1) == 0.25

    def test_perfect_forecast_scores_zero(self):
        assert brier(1.0, 1) == 0.0
        assert brier(0.0, 0) == 0.0

    def test_expected_score_arithmetic(self):
        # perfectly calibrated p = 0.75 under a true rate of 0.75
        expected = 0.75 * brier(0.75, 1) + 0.25 * brier(0.75, 0)
        assert expected == 0.1875

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            brier(1.5, 1)
        with pytest.raises(ValueError):
            brier(-0.1, 0)
        with pytest.raises(ValueError):
            brier(0.5, 2)

    def test_equals_squared_distance_to_outcome(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            p = float(rng.uniform())
            k = int(rng.integers(0, 2))
            assert brier(p, k) == pytest.approx((p - k) ** 2, abs=1e-15)

    def test_label_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            p = float(rng.uniform())
            k = int(rng.integers(0, 2))
            assert brier(p, k) == pytest.approx(brier(1.0 - p, 1 - k), abs=1e-15)

    def test_propriety_on_probability_grid(self):
        # expected score is minimised by reporting the true rate
        grid = [i / 1000 for i in range(1001)]
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            expected = [q * brier(p, 1) + (1 - q) * brier(p, 0) for p in grid]
            best = grid[int(np.argmin(expected))]
            assert abs(best - q) <= 0.001


class TestScoreSeries:
    def make_forecast(self, probs, qid="q", source="random_walk"):
        dates = weekday_dates(D(2022, 6, 1), len(probs))
        return ForecastSeries(qid, source, tuple(zip(dates, probs)))

    def test_zero_forecast_zero_outcome_scores_zero(self):
        f = self.make_forecast([0.0, 0.0, 0.0])
        s = score_series(f, Resolution("q", 0, D(2022, 12, 30)))
        assert s.values == (0.0, 0.0, 0.0)

    def test_constant_half_scores_quarter(self):
        f = self.make_forecast([0.5] * 4)
        s = score_series(f, Resolution("q", 1, D(2022, 12, 30)))
        assert s.values == (0.25,) * 4

    def test_pointwise_reevaluation_oracle(self):
        rng = np.random.default_rng(3)
        probs = [float(p) for p in rng.uniform(size=30)]
        f = self.make_forecast(probs)
        for k in (0, 1):
            s = score_series(f, Resolution("q", k, D(2022, 12, 30)))
            for (d, got), p in zip(s.points, probs):
                assert got == (1 - k) * p**2 + k * (1 - p) ** 2

    def test_question_mismatch_is_an_error(self):
        f = self.make_forecast([0.5])
        with pytest.raises(ValueError, match="question mismatch"):
            score_series(f, Resolution("other", 0, D(2022, 12, 30)))

    def test_preserves_dates_and_source(self):
        f = self.make_forecast([0.2, 0.4], source="crowd")
        s = score_series(f, Resolution("q", 0, D(2022, 12, 30)))
        assert s.dates == f.dates
        assert s.source == f.source


def score(qid, dates, values, source="crowd"):
    return ScoreSeries(qid, source, tuple(zip(dates, values)))


class TestMeanScoreCurve:
    def test_single_question_equals_its_series(self):
        dates = weekday_dates(D(2022, 6, 1), 3)
        s = score("a", dates, [0.1, 0.2, 0.3])
        curve = mean_score_curve([s])
        assert [(d, m) for d, m, _ in curve.points] == list(s.points)
        assert all(n == 1 for _, _, n in curve.points)

    def test_two_questions_average(self):
        dates = weekday_dates(D(2022, 6, 1), 1)
        curve = mean_score_curve([score("a", dates, [0.1]), score("b", dates, [0.3])])
        assert curve.points == ((dates[0], 0.2, 2),)

    def test_early_resolution_drops_out(self):
        dates = weekday_dates(D(2022, 6, 1), 3)
        a = score("a", dates, [0.1, 0.1, 0.1])
        b = score("b", dates[:1], [0.3])
        curve = mean_score_curve([a, b])
        assert curve.points[0] == (dates[0], pytest.approx(0.2), 2)
        assert curve.points[1] == (dates[1], pytest.approx(0.1), 1)
        assert curve.points[2] == (dates[2], pytest.approx(0.1), 1)

    def test_mean_within_contributing_bounds(self):
        rng = np.random.default_rng(4)
        dates = weekday_dates(D(2022, 6, 1), 20)
        series = [
            score(f"q{i}", dates[:n], [float(v) for v in rng.uniform(size=n)])
            for i, n in enumerate(int(v) for v in rng.integers(5, 20, size=4))
        ]
        curve = mean_score_curve(series)
        maps = [dict(s.points) for s in series]
        for d, m, n in curve.points:
            vals = [mp[d] for mp in maps if d in mp]
            assert len(vals) == n
            assert min(vals) <= m <= max(vals)

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError, match="at least one"):
            mean_score_curve([])

    def test_mixed_sources_are_an_error(self):
        dates = weekday_dates(D(2022, 6, 1), 1)
        with pytest.raises(ValueError, match="mixed sources"):
            mean_score_curve(
                [score("a", dates, [0.1]), score("b", dates, [0.2], source="random_walk")]
            )
