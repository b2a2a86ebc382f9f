"""Crowd record handling and consensus aggregation."""

from __future__ import annotations

import copy
import datetime as dt
import math
import pickle

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

    def test_shapes_interleaved_with_gapped_ranks_match_oracle(self):
        # crowd_series caches weights per (shape, newest rank) for ranks 1..N;
        # community_prediction takes any ranks, and neither may mix up shapes
        rng = np.random.default_rng(19)
        shapes = [0.0, 0.35, 1.0, 2.5]
        for trial in range(200):
            size = int(rng.integers(1, 40))
            ranks = rng.choice(np.arange(1, 400), size=size, replace=False)
            snap = [
                SnapshotEntry(f"f{i}", float(rng.uniform()), int(ranks[i]))
                for i in range(size)
            ]
            shape = shapes[trial % len(shapes)]
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

    def test_pool_past_the_float_range_saturates(self):
        # below a pooled logit of about -709.8, exp(-pooled) overflows a
        # float; the logistic there is exp(pooled), which may be subnormal
        assert combine_logit([0.0, 1e-9], 60.0) == logit_oracle([0.0, 1e-9], 60.0) == 0.0
        assert combine_logit([1.0, 1.0 - 1e-9], 60.0) == 1.0
        for a in (51.3, 51.5, 53.0):
            got = combine_logit([0.0], a)
            assert 0.0 < got == pytest.approx(logit_oracle([0.0], a), rel=1e-9), a


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

    def test_logit_combine_saturates_for_a_large_extremize_a(self):
        dates = [D(2022, 6, 2)]
        records = [rec("a", ts(1, 9), 0.0), rec("b", ts(1, 15), 1e-9)]
        params = ConsensusParams(method="logit_combine", extremize_a=60.0)
        series = crowd_series(records, make_question(dates), dates, params)
        assert series.values == (0.0,)

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

    def test_many_forecasters_and_shapes_match_rescan(self):
        # enough forecasters and updates that ranks move on most records
        rng = np.random.default_rng(23)
        records = [
            rec(
                f"f{int(rng.integers(0, 30)):02d}",
                ts(int(rng.integers(1, 9)), int(rng.integers(0, 24))),
                float(rng.integers(0, 101)) / 100,
            )
            for _ in range(400)
        ]
        days = [D(2022, 6, d) for d in range(1, 10)]
        question = make_question([D(2022, 6, 1), D(2022, 6, 9)])
        for shape in [0.0, 1.0, 0.35, 0.0, 2.5, 1.0]:
            params = ConsensusParams(recency_shape=shape)
            series = crowd_series(records, question, days, params)
            assert list(series.points) == rescan_series(records, question, days, params)

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



class TestRecordTimes:
    def test_naive_times_are_utc(self):
        # 23:30 on Jun 1 counts for Jun 1's end of day, as it does in UTC
        stamps = [
            dt.datetime(2022, 6, 1, 9),
            dt.datetime(2022, 6, 1, 23, 30),
            dt.datetime(2022, 6, 3, 0, 15),
        ]
        naive = [rec(fid, at, p) for fid, at, p in zip("aba", stamps, (0.3, 0.6, 0.2))]
        aware = [rec(r.forecaster_id, at.replace(tzinfo=UTC), r.p) for r, at in zip(naive, stamps)]
        assert naive == aware
        dates = [D(2022, 6, d) for d in (1, 2, 3)]
        question = make_question(dates)
        for params in (ConsensusParams(), ConsensusParams(method="logit_combine")):
            got = crowd_series(naive, question, dates, params)
            assert got == crowd_series(aware, question, dates, params)
        for cutoff in (ts(1, 23), ts(2), ts(3, 23)):
            assert latest_per_forecaster(naive, cutoff) == latest_per_forecaster(aware, cutoff)
            # a naive cutoff is UTC as well
            naive_cutoff = cutoff.replace(tzinfo=None)
            assert latest_per_forecaster(naive, naive_cutoff) == latest_per_forecaster(aware, cutoff)

    def test_aware_times_are_converted_to_utc(self):
        tokyo = dt.timezone(dt.timedelta(hours=9))
        r = rec("a", dt.datetime(2022, 6, 2, 8, tzinfo=tokyo), 0.4)
        assert r.at.tzinfo is UTC
        assert (r.at.day, r.at.hour) == (1, 23)


_TOKYO = dt.timezone(dt.timedelta(hours=9))
_PLUS_FIVE = dt.timezone(dt.timedelta(hours=5))
# Each way of building a record from (at, p) for question "q", forecaster "a".
_BUILDS = {
    "constructor": lambda at, p: CrowdRecord("q", "a", at, p),
    "make": lambda at, p: CrowdRecord._make(["q", "a", at, p]),
    "replace": lambda at, p: rec("a", ts(1), 0.5)._replace(at=at, p=p),
}


class TestRecordContract:
    @pytest.mark.parametrize("build", list(_BUILDS.values()), ids=list(_BUILDS))
    def test_every_way_of_building_checks_the_record(self, build):
        record = build(dt.datetime(2022, 6, 2, 8, tzinfo=_TOKYO), 1)
        assert type(record) is CrowdRecord
        assert record.at == ts(1, 23) and record.at.tzinfo is UTC
        assert type(record.p) is float and record.p == 1.0
        with pytest.raises(ValueError, match=r"^q/a: probability 1.5 outside \[0, 1\]$"):
            build(ts(1), 1.5)
        with pytest.raises(
            ValueError, match=r"^q/a: time 0001-01-01 00:00:00\+05:00 is out of range in UTC$"
        ):
            build(dt.datetime(1, 1, 1, tzinfo=_PLUS_FIVE), 0.4)

    def test_pickle_and_copy_round_trip_through_the_check(self):
        record = rec("a", dt.datetime(2022, 6, 2, 8, tzinfo=_TOKYO), 0.4)
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert clone == record and type(clone) is CrowdRecord and clone.at.tzinfo is UTC
        # a record that skipped the check cannot be unpickled or copied
        unchecked = tuple.__new__(CrowdRecord, ("q", "a", ts(1), 1.5))
        with pytest.raises(ValueError, match="probability 1.5"):
            pickle.loads(pickle.dumps(unchecked))
        with pytest.raises(ValueError, match="probability 1.5"):
            copy.copy(unchecked)

    def test_equal_records_compare_and_hash_as_their_fields(self):
        a = rec("a", dt.datetime(2022, 6, 2, 8, tzinfo=_TOKYO), 0.4)
        b = rec("a", ts(1, 23), 0.4)
        assert a == b and hash(a) == hash(b) == hash(("q", "a", ts(1, 23), 0.4))
        assert len({a, b}) == 1
        assert a != rec("a", ts(1, 23), 0.5) and a != rec("b", ts(1, 23), 0.4)


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

    def test_one_instant_written_five_ways_reads_as_one_utc_time(self, tmp_path):
        stamps = [
            "2022-06-01T12:00:00Z",
            "2022-06-01T12:00:00z",
            "2022-06-01T12:00:00+00:00",
            "2022-06-01T14:00:00+02:00",
            "2022-06-01T12:00:00",  # naive: taken to be UTC
        ]
        path = write_crowd_csv(tmp_path / "crowd.csv", [("q", "a", s, 0.3) for s in stamps])
        records = load_crowd_csv(path)
        assert records == [rec("a", dt.datetime(2022, 6, 1, 12, tzinfo=UTC), 0.3)] * 5
        assert all(r.at.tzinfo is dt.timezone.utc for r in records)

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
