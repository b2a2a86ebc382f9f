"""Crowd record handling and consensus aggregation."""

from __future__ import annotations

import datetime as dt
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxbarrier import (
    ConsensusMethod,
    ConsensusParams,
    CrowdRecord,
    Question,
    SnapshotEntry,
    combine_logit,
    community_prediction,
    crowd_series,
    latest_per_forecaster,
    load_crowd_csv,
)

from conftest import write_crowd_csv

D = dt.date
UTC = dt.timezone.utc


def ts(day: int, hour: int = 12) -> dt.datetime:
    return dt.datetime(2022, 6, day, hour, tzinfo=UTC)


def rec(fid: str, at: dt.datetime, p: float, qid: str = "q") -> CrowdRecord:
    return CrowdRecord(qid, fid, at, p)


def weighted_median_oracle(snapshot: list[SnapshotEntry], shape: float) -> float:
    """Exhaustive re-evaluation: for each candidate value, sum weights from scratch."""
    total = sum(math.exp(shape * math.sqrt(e.age_rank)) for e in snapshot)
    for candidate in sorted(e.p for e in snapshot):
        mass = sum(
            math.exp(shape * math.sqrt(e.age_rank))
            for e in snapshot
            if e.p <= candidate
        )
        if mass >= total / 2.0:
            return candidate
    return max(e.p for e in snapshot)


class TestLatestPerForecaster:
    def test_latest_submission_wins(self):
        records = [rec("a", ts(1), 0.3), rec("a", ts(3), 0.6)]
        snap = latest_per_forecaster(records, ts(5))
        assert snap == [SnapshotEntry("a", 0.6, 1)]

    def test_no_records_before_cutoff(self):
        assert latest_per_forecaster([rec("a", ts(10), 0.3)], ts(5)) == []

    def test_age_ranks_follow_submission_order(self):
        records = [rec("c", ts(3), 0.9), rec("a", ts(1), 0.2), rec("b", ts(2), 0.8)]
        snap = latest_per_forecaster(records, ts(5))
        assert [(e.forecaster_id, e.age_rank) for e in snap] == [
            ("a", 1),
            ("b", 2),
            ("c", 3),
        ]

    def test_updating_moves_a_forecaster_to_newest(self):
        records = [rec("a", ts(1), 0.2), rec("b", ts(2), 0.8), rec("a", ts(4), 0.25)]
        snap = latest_per_forecaster(records, ts(5))
        assert [(e.forecaster_id, e.age_rank) for e in snap] == [("b", 1), ("a", 2)]

    def test_time_ties_break_by_forecaster_id(self):
        records = [rec("b", ts(1), 0.8), rec("a", ts(1), 0.2)]
        snap = latest_per_forecaster(records, ts(5))
        assert [e.forecaster_id for e in snap] == ["a", "b"]

    def test_future_records_excluded(self):
        records = [rec("a", ts(1), 0.2), rec("a", ts(9), 0.9)]
        snap = latest_per_forecaster(records, ts(5))
        assert snap == [SnapshotEntry("a", 0.2, 1)]


class TestCommunityPrediction:
    def test_single_forecast(self):
        params = ConsensusParams()
        assert community_prediction([SnapshotEntry("a", 0.7, 1)], params) == 0.7

    def test_plain_median_with_zero_shape(self):
        params = ConsensusParams(recency_shape=0.0)
        snap = [
            SnapshotEntry("a", 0.2, 1),
            SnapshotEntry("b", 0.5, 2),
            SnapshotEntry("c", 0.9, 3),
        ]
        assert community_prediction(snap, params) == 0.5

    def test_weighted_example_matches_oracle(self):
        snap = [
            SnapshotEntry("a", 0.2, 1),
            SnapshotEntry("b", 0.8, 2),
            SnapshotEntry("c", 0.9, 3),
        ]
        params = ConsensusParams(recency_shape=1.0)
        got = community_prediction(snap, params)
        assert got == weighted_median_oracle(snap, 1.0)
        assert got == 0.8

    def test_random_snapshots_match_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            size = int(rng.integers(1, 62))
            shape = float(rng.uniform(0.0, 2.0))
            ranks = rng.permutation(size) + 1
            snap = [
                SnapshotEntry(f"f{i}", float(rng.uniform()), int(ranks[i]))
                for i in range(size)
            ]
            params = ConsensusParams(recency_shape=shape)
            assert community_prediction(snap, params) == weighted_median_oracle(snap, shape)

    def test_stays_within_snapshot_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            size = int(rng.integers(1, 30))
            snap = [
                SnapshotEntry(f"f{i}", float(rng.uniform()), i + 1) for i in range(size)
            ]
            got = community_prediction(snap, ConsensusParams(recency_shape=0.7))
            ps = [e.p for e in snap]
            assert min(ps) <= got <= max(ps)

    def test_raising_a_forecast_never_lowers_the_median(self):
        rng = np.random.default_rng(11)
        params = ConsensusParams(recency_shape=0.8)
        for _ in range(100):
            size = int(rng.integers(2, 20))
            snap = [
                SnapshotEntry(f"f{i}", float(rng.uniform()), i + 1) for i in range(size)
            ]
            base = community_prediction(snap, params)
            j = int(rng.integers(0, size))
            bumped = list(snap)
            bumped[j] = bumped[j]._replace(p=min(1.0, bumped[j].p + float(rng.uniform(0, 0.5))))
            assert community_prediction(bumped, params) >= base

    def test_empty_snapshot_is_an_error(self):
        with pytest.raises(ValueError, match="no forecasts"):
            community_prediction([], ConsensusParams())

    def test_large_shapes_match_high_precision_oracle(self):
        # with 60 forecasters, exp(shape * sqrt(60)) overflows a float from shape 92 up
        rng = np.random.default_rng(12)
        ranks = rng.permutation(60) + 1
        snap = [SnapshotEntry(f"f{i}", float(rng.uniform()), int(ranks[i])) for i in range(60)]
        for shape in (1.0, 50.0, 92.0, 100.0, 1000.0):
            with mpmath.workdps(60):
                weights = [mpmath.exp(shape * mpmath.sqrt(e.age_rank)) for e in snap]
                half = mpmath.fsum(weights) / 2
                acc = mpmath.mpf(0)
                for w, e in sorted(zip(weights, snap), key=lambda we: we[1].p):
                    acc += w
                    if acc >= half:
                        want = e.p
                        break
            got = community_prediction(snap, ConsensusParams(recency_shape=shape))
            assert got == want, shape


def logit_oracle(ps, a, dps=60):
    """Arbitrary-precision evaluation of the extremized mean-logit pool."""
    with mpmath.workdps(dps):
        eps = mpmath.mpf("1e-6")
        logits = []
        for p in ps:
            clamped = min(max(mpmath.mpf(repr(p)), eps), 1 - eps)
            logits.append(mpmath.log(clamped / (1 - clamped)))
        pooled = mpmath.mpf(repr(a)) * mpmath.fsum(logits) / len(logits)
        return float(1 / (1 + mpmath.exp(-pooled)))


class TestCombineLogit:
    def test_all_half_is_half(self):
        for a in (0.5, 1.0, 2.0, 7.0):
            assert combine_logit([0.5, 0.5, 0.5], a) == 0.5

    def test_identity_for_single_input_unit_a(self):
        for p in (0.01, 0.3, 0.657, 0.99):
            assert combine_logit([p], 1.0) == pytest.approx(p, abs=1e-12)

    def test_two_values_match_high_precision_oracle(self):
        got = combine_logit([0.6, 0.8], 2.0)
        assert got == pytest.approx(logit_oracle([0.6, 0.8], 2.0), abs=1e-12)
        assert got == pytest.approx(6.0 / 7.0, abs=1e-12)

    def test_random_pools_match_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            size = int(rng.integers(1, 12))
            ps = [float(p) for p in rng.uniform(size=size)]
            a = float(rng.uniform(0.2, 4.0))
            assert combine_logit(ps, a) == pytest.approx(logit_oracle(ps, a), abs=1e-12)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            ps = [float(p) for p in rng.uniform(0.001, 0.999, size=5)]
            a = float(rng.uniform(0.5, 3.0))
            flipped = combine_logit([1.0 - p for p in ps], a)
            assert flipped == pytest.approx(1.0 - combine_logit(ps, a), abs=1e-9)

    def test_permutation_symmetry(self):
        ps = [0.1, 0.4, 0.9, 0.65]
        a = 1.7
        assert combine_logit(ps, a) == combine_logit(list(reversed(ps)), a)

    def test_raising_an_input_never_lowers_the_pool(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            ps = [float(p) for p in rng.uniform(size=4)]
            a = float(rng.uniform(0.5, 3.0))
            base = combine_logit(ps, a)
            ps[2] = min(1.0, ps[2] + 0.2)
            assert combine_logit(ps, a) >= base

    def test_extremization_pushes_away_from_half(self):
        mild = combine_logit([0.6, 0.7], 1.0)
        strong = combine_logit([0.6, 0.7], 3.0)
        assert strong > mild > 0.5

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError, match="at least one"):
            combine_logit([], 2.0)


def make_question(dates):
    return Question(
        question_id="q",
        pair_id="EURUSD",
        open_date=dates[0],
        close_date=dates[-1] + dt.timedelta(days=30),
        baseline_rate=1.0,
        threshold_kind="relative_depreciation",
        threshold_value=0.15,
    )


class TestCrowdSeries:
    def test_dates_before_first_record_are_omitted(self):
        dates = [D(2022, 6, d) for d in (1, 2, 3, 4)]
        records = [rec("a", ts(3, 9), 0.4)]
        series = crowd_series(records, make_question(dates), dates, ConsensusParams())
        assert series.dates == (D(2022, 6, 3), D(2022, 6, 4))
        assert series.values == (0.4, 0.4)

    def test_static_records_give_constant_series(self):
        dates = [D(2022, 6, d) for d in range(2, 10)]
        records = [rec("a", ts(1), 0.35), rec("b", ts(1, 14), 0.55)]
        series = crowd_series(records, make_question(dates), dates, ConsensusParams())
        assert set(series.values) == {0.55}

    def test_frozen_fixture_matches_hand_aggregation(self):
        # three forecasters, staggered updates; audited against both oracles
        dates = [D(2022, 6, d) for d in (2, 3, 6)]
        records = [
            rec("a", ts(1, 9), 0.30),
            rec("b", ts(1, 15), 0.60),
            rec("c", ts(2, 10), 0.20),
            rec("a", ts(3, 11), 0.70),
        ]
        params = ConsensusParams(recency_shape=1.0)
        series = crowd_series(records, make_question(dates), dates, params)
        expected = []
        for d in dates:
            cutoff = dt.datetime.combine(d, dt.time.max, tzinfo=UTC)
            snap = latest_per_forecaster(records, cutoff)
            expected.append((d, weighted_median_oracle(snap, 1.0)))
        assert list(series.points) == expected
        # Jun 2: ranks a=1 b=2 c=3, cumulative weight reaches half at 0.30;
        # Jun 3 onward: a's update makes it newest, median moves to 0.60.
        assert series.values == (0.3, 0.6, 0.6)

    def test_logit_combine_method(self):
        dates = [D(2022, 6, 2)]
        records = [rec("a", ts(1, 9), 0.6), rec("b", ts(1, 15), 0.8)]
        params = ConsensusParams(method="logit_combine", extremize_a=2.0)
        series = crowd_series(records, make_question(dates), dates, params)
        assert series.values[0] == pytest.approx(6.0 / 7.0, abs=1e-12)

    def test_other_questions_records_are_ignored(self):
        dates = [D(2022, 6, 2)]
        records = [rec("a", ts(1), 0.6), rec("a", ts(1, 13), 0.1, qid="other")]
        series = crowd_series(records, make_question(dates), dates, ConsensusParams())
        assert series.values == (0.6,)


def rescan_latest(records, at: dt.datetime) -> list[SnapshotEntry]:
    """Reference snapshot: rescan every record, keeping each forecaster's
    largest (time, input order) at or before `at`."""
    latest = {}
    for order, r in enumerate(records):
        if r.at <= at and (
            r.forecaster_id not in latest or (r.at, order) >= latest[r.forecaster_id][:2]
        ):
            latest[r.forecaster_id] = (r.at, order, r.p)
    ranked = sorted(latest.items(), key=lambda kv: (kv[1][0], kv[0]))
    return [SnapshotEntry(fid, p, k) for k, (fid, (_, _, p)) in enumerate(ranked, start=1)]


def rescan_series(records, question, sample_dates, params) -> list:
    """Reference crowd series: one full rescan of the records per sample date."""
    mine = [r for r in records if r.question_id == question.question_id]
    points = []
    for d in sorted(set(sample_dates)):
        snap = rescan_latest(mine, dt.datetime.combine(d, dt.time.max, tzinfo=UTC))
        if snap:
            if params.method is ConsensusMethod.WEIGHTED_MEDIAN:
                points.append((d, community_prediction(snap, params)))
            else:
                points.append((d, combine_logit([e.p for e in snap], params.extremize_a)))
    return points


# Few forecasters, days and hours, so same-instant duplicates and equal times
# across forecasters are common; a third of the records belong to another
# question; sample days start before the earliest possible submission.
_records = st.lists(
    st.builds(
        rec,
        st.sampled_from("abcd"),
        st.builds(ts, st.integers(3, 7), st.sampled_from([0, 12, 23])),
        st.integers(0, 20).map(lambda k: k / 20),
        st.sampled_from(["q", "q", "other"]),
    ),
    max_size=40,
)
_days = st.lists(st.integers(1, 9).map(lambda d: D(2022, 6, d)), max_size=12)
_params = st.builds(
    ConsensusParams,
    st.sampled_from(ConsensusMethod),
    st.sampled_from([0.5, 2.0]),
    st.sampled_from([0.0, 1.0]),
)


class TestSweepMatchesRescan:
    @settings(max_examples=300, deadline=None)
    @given(records=_records, days=_days, params=_params)
    def test_crowd_series(self, records, days, params):
        question = make_question([D(2022, 6, 1), D(2022, 6, 9)])
        series = crowd_series(records, question, days, params)
        assert list(series.points) == rescan_series(records, question, days, params)

    @settings(max_examples=300, deadline=None)
    @given(records=_records, day=st.integers(1, 9), hour=st.sampled_from([0, 11, 12, 23]))
    def test_latest_per_forecaster(self, records, day, hour):
        at = dt.datetime(2022, 6, day, hour, tzinfo=UTC)
        assert latest_per_forecaster(records, at) == rescan_latest(records, at)

    def test_same_instant_duplicate_keeps_the_later_record(self):
        records = [rec("a", ts(2), 0.3), rec("b", ts(2), 0.5), rec("a", ts(2), 0.6)]
        dates = [D(2022, 6, 2)]
        params = ConsensusParams(method="logit_combine", extremize_a=1.0)
        series = crowd_series(records[::-1], make_question(dates), dates, params)
        assert series.values == (combine_logit([0.3, 0.5], 1.0),)
        assert latest_per_forecaster(records, ts(3)) == [
            SnapshotEntry("a", 0.6, 1),
            SnapshotEntry("b", 0.5, 2),
        ]


class TestLoadCrowdCsv:
    def test_rows_sorted_by_timestamp(self, tmp_path):
        path = write_crowd_csv(
            tmp_path / "crowd.csv",
            [
                ("q", "b", "2022-06-03T12:00:00Z", 0.6),
                ("q", "a", "2022-06-01T12:00:00+00:00", 0.3),
            ],
        )
        records = load_crowd_csv(path)
        assert [r.forecaster_id for r in records] == ["a", "b"]
        assert records[0].at.tzinfo is not None

    def test_bad_header_is_an_error(self, tmp_path):
        path = tmp_path / "crowd.csv"
        path.write_text("who,when,what\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected header"):
            load_crowd_csv(path)

    def test_bad_row_reports_line_number(self, tmp_path):
        path = write_crowd_csv(
            tmp_path / "crowd.csv",
            [("q", "a", "2022-06-01T12:00:00Z", 0.3), ("q", "b", "not-a-time", 0.4)],
        )
        with pytest.raises(ValueError, match="crowd.csv:3"):
            load_crowd_csv(path)

    def test_out_of_range_probability_reports_line(self, tmp_path):
        path = write_crowd_csv(
            tmp_path / "crowd.csv", [("q", "a", "2022-06-01T12:00:00Z", 1.3)]
        )
        with pytest.raises(ValueError, match="crowd.csv:2"):
            load_crowd_csv(path)

    def test_params_validation(self):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="extremize_a"):
                ConsensusParams(extremize_a=bad)
            with pytest.raises(ValueError, match="a must be positive"):
                combine_logit([0.2, 0.3], bad)
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="recency_shape"):
                ConsensusParams(recency_shape=bad)
