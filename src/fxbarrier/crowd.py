"""Individual crowd forecasts and their consensus aggregates.

Two consensus rules are provided: a recency-weighted median of each
forecaster's latest probability (the community-style aggregate) and an
extremized mean-logit pool.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import functools
import math
import operator
from bisect import bisect_right
from enum import Enum
from itertools import repeat, tee
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .domain import _PROBABILITY, ForecastSeries, Question, Source, _checked_make, _obeys
from .io import _read_rows

_LOGIT_EPS = 1e-6
_SEPARATORS = {"", "T", "t", " "}  # what may follow a date such as "2022-01-05" in a time
_CROWD_HEADER = ["question_id", "forecaster_id", "timestamp_rfc3339", "probability"]


class ConsensusMethod(str, Enum):
    WEIGHTED_MEDIAN = "weighted_median"
    LOGIT_COMBINE = "logit_combine"


def _as_utc(at: dt.datetime) -> dt.datetime:
    """`at` in UTC: a naive time is taken to be UTC, and an aware one is converted."""
    if at.tzinfo is None:
        return at.replace(tzinfo=dt.timezone.utc)
    return at.astimezone(dt.timezone.utc)


class CrowdRecord(
    NamedTuple(
        "CrowdRecord",
        [("question_id", str), ("forecaster_id", str), ("at", dt.datetime), ("p", float)],
    )
):
    """One forecaster's timestamped probability submission on one question.

    `at` is stored in UTC: a naive time is taken to be UTC, and an aware one
    is converted; a time that UTC cannot hold is a ValueError. `p` is stored
    as a float in [0, 1]. Every way of building a record checks it: the
    constructor, `_make`, `_replace`, pickle and copy. As a tuple, a record
    equals a plain tuple of the same fields and orders like one.
    """

    __slots__ = ()

    def __new__(
        cls, question_id: str, forecaster_id: str, at: dt.datetime, p: float
    ) -> CrowdRecord:
        try:
            at = _as_utc(at)
        except OverflowError as exc:
            raise ValueError(
                f"{question_id}/{forecaster_id}: time {at} is out of range in UTC"
            ) from exc
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{question_id}/{forecaster_id}: probability {p} outside [0, 1]")
        return tuple.__new__(cls, (question_id, forecaster_id, at, p))

    _make = classmethod(_checked_make)


class _ConsensusFields(NamedTuple):
    method: ConsensusMethod = ConsensusMethod.WEIGHTED_MEDIAN
    extremize_a: float = 2.0
    recency_shape: float = 1.0


class ConsensusParams(_ConsensusFields):
    """Aggregation settings.

    recency_shape controls the weighted-median weights exp(shape * sqrt(rank));
    zero recovers the plain median. extremize_a scales the pooled logit; values
    above 1 push the combination away from one half. `method` is stored as a
    ConsensusMethod. Every way of building the settings checks them: the
    constructor, `_make`, `_replace`, pickle and copy.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ConsensusParams:
        params = super().__new__(cls, *args, **kwargs)
        method = ConsensusMethod(params.method)
        if not 0.0 < params.extremize_a < math.inf:
            raise ValueError("extremize_a must be positive and finite")
        if not 0.0 <= params.recency_shape < math.inf:
            raise ValueError("recency_shape must be nonnegative and finite")
        return tuple.__new__(cls, (method, *params[1:]))

    _make = classmethod(_checked_make)


class SnapshotEntry(NamedTuple):
    forecaster_id: str
    p: float
    age_rank: int


def _snapshots(
    records: Iterable[CrowdRecord], cutoffs: Iterable[dt.datetime]
) -> Iterator[dict[str, float]]:
    """The latest-per-forecaster snapshot at each of the ascending `cutoffs`,
    as `{forecaster_id: p}` in rank order, oldest first.

    One stable sort of the records by (time, forecaster id), then one cursor
    that bisects to each cutoff: each record pops its forecaster and inserts
    it again, so the dict's order is the rank order and no cutoff re-sorts
    anything. Because the sort is stable, a forecaster's same-instant
    duplicates are visited in input order and the later one wins. The same
    dict is yielded each time, updated in place.
    """
    ordered = sorted(records, key=operator.itemgetter(2, 1))
    times = list(map(operator.itemgetter(2), ordered))
    latest: dict[str, float] = {}
    i = 0
    for cutoff in cutoffs:
        end = bisect_right(times, cutoff, i)
        for _, fid, _, p in ordered[i:end]:
            latest.pop(fid, None)
            latest[fid] = p
        i = end
        yield latest


def latest_per_forecaster(
    records: Iterable[CrowdRecord], at: dt.datetime
) -> list[SnapshotEntry]:
    """Each forecaster's most recent probability at or before `at` (naive is UTC).

    age_rank runs 1..N from the oldest to the newest latest-submission time,
    so higher ranks are fresher opinions. Ties on time break by forecaster id;
    a forecaster's same-instant duplicates keep the later record in input
    order. Forecasters with no submission yet are absent. This is the
    single-cutoff case of the sweep `crowd_series` runs: O(R log R) for R
    records.
    """
    latest = next(_snapshots(records, [_as_utc(at)]))
    return [SnapshotEntry(fid, p, rank) for rank, (fid, p) in enumerate(latest.items(), start=1)]


def _weighted_median(ps: Sequence[float], weights: Sequence[float], half: float) -> float:
    """The smallest p whose cumulative weight, over the ps sorted ascending,
    reaches `half`, or else the largest p. `weights[i]` belongs to `ps[i]` and
    never decreases with i, so a stable sort of the indices by p adds the
    weights in the order of `sorted(zip(ps, weights))`, to the same floats."""
    acc = 0.0
    for i in sorted(range(len(ps)), key=ps.__getitem__):
        acc += weights[i]
        if acc >= half:
            break
    return ps[i]


def _recency_weights(shape: float, ranks: Sequence[int]) -> tuple[tuple[float, ...], float]:
    """exp(shape * (sqrt(rank) - sqrt(newest))) for each rank, newest the
    largest, and half their sum."""
    newest = math.sqrt(max(ranks))
    weights = tuple([math.exp(shape * (math.sqrt(rank) - newest)) for rank in ranks])
    return weights, math.fsum(weights) / 2.0


@functools.lru_cache(maxsize=256)
def _rank_weights(shape: float, newest: int) -> tuple[tuple[float, ...], float]:
    """`_recency_weights` for ranks 1..newest."""
    return _recency_weights(shape, range(1, newest + 1))


def community_prediction(
    snapshot: Iterable[SnapshotEntry], params: ConsensusParams
) -> float:
    """Recency-weighted median of a latest-per-forecaster snapshot.

    Weights are exp(recency_shape * sqrt(age_rank)), each divided by the
    newest rank's weight so that none overflows at any finite shape. The
    result is the smallest probability whose cumulative weight, over
    probabilities sorted ascending, reaches half the total weight; this
    tie-break is deterministic and independent of input order. Ranks need
    not be 1..N.
    """
    entries = sorted(snapshot, key=operator.attrgetter("age_rank"))
    if not entries:
        raise ValueError("no forecasts in snapshot")
    weights, half = _recency_weights(params.recency_shape, [e.age_rank for e in entries])
    return _weighted_median([e.p for e in entries], weights, half)


def combine_logit(ps: Iterable[float], a: float) -> float:
    """Extremized logit pool: logistic(a * mean(logit(p)))."""
    values = list(ps)
    if not values:
        raise ValueError("combine_logit needs at least one probability")
    if not 0.0 < a < math.inf:
        raise ValueError("a must be positive and finite")
    logits = []
    for p in values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        clamped = min(max(p, _LOGIT_EPS), 1.0 - _LOGIT_EPS)
        logits.append(math.log(clamped / (1.0 - clamped)))
    pooled = a * math.fsum(logits) / len(logits)
    try:
        return 1.0 / (1.0 + math.exp(-pooled))
    except OverflowError:  # pooled below about -709.8, where the logistic is exp(pooled)
        return math.exp(pooled)


def _end_of_day(date: dt.date) -> dt.datetime:
    return dt.datetime.combine(date, dt.time.max, tzinfo=dt.timezone.utc)


def crowd_series(
    records: Iterable[CrowdRecord],
    question: Question,
    sample_dates: Iterable[dt.date],
    params: ConsensusParams,
) -> ForecastSeries:
    """Consensus evaluated at each sample date's end of day.

    Each day's snapshot is `latest_per_forecaster` at that end of day, with
    its tie rules, but all days come from one sweep: records of other
    questions are dropped, the question's R records are sorted once and
    walked once across the D sorted dates, keeping the snapshot in rank
    order, so the cost is O(R log R + D N log N) for at most N forecasters,
    not O(R * D). A snapshot of N forecasters holds ranks 1..N, whose weights
    are computed once per (recency_shape, N).

    Dates with no submissions yet are omitted. Callers must pass dates within
    [scoring_start, resolve_date) so the series honours its resolution bound.
    """
    relevant = [r for r in records if r.question_id == question.question_id]
    days = sorted(set(sample_dates))
    points = []
    for d, latest in zip(days, _snapshots(relevant, map(_end_of_day, days))):
        if not latest:
            continue
        if params.method is ConsensusMethod.WEIGHTED_MEDIAN:
            weights, half = _rank_weights(params.recency_shape, len(latest))
            p = _weighted_median(list(latest.values()), weights, half)
        else:
            p = combine_logit(latest.values(), params.extremize_a)
        points.append((d, p))
    return ForecastSeries(question.question_id, Source.CROWD, tuple(points))


def _parse_rfc3339(text: str) -> dt.datetime:
    cleaned = text.strip()
    if cleaned[4:5] == "-" and cleaned[10:11] not in _SEPARATORS:
        raise ValueError(f"bad time {text!r}: no 'T', 't' or ' ' between its date and time")
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    return dt.datetime.fromisoformat(cleaned)


def load_crowd_csv(path: str | Path) -> list[CrowdRecord]:
    """Read crowd records from CSV and sort them by timestamp.

    Expected header: question_id,forecaster_id,timestamp_rfc3339,probability.
    Rows may arrive in any order. Each column is converted in one pass (times
    by `datetime.fromisoformat` up to the first it rejects, such as any `Z` on
    Python 3.10, then by `_parse_rfc3339`) and checked as a whole, and the
    records are built from the columns, each distinct id one string. If a
    column fails, the records are built and checked in file order instead, so
    the first malformed row fails with its line number and the message of its
    time's parser, of `float` or of `CrowdRecord`.
    """
    path = Path(path)
    lines, (question_ids, forecaster_ids, texts, probabilities) = _read_rows(path, _CROWD_HEADER)
    ids: dict[str, str] = {}
    question_ids = list(map(ids.setdefault, *tee(map(str.strip, question_ids))))
    forecaster_ids = list(map(ids.setdefault, *tee(map(str.strip, forecaster_ids))))
    texts = list(map(str.strip, texts))
    times, ps = [], []
    with contextlib.suppress(ValueError):
        times.extend(map(dt.datetime.fromisoformat, texts))
    with contextlib.suppress(ValueError):
        times.extend(map(_parse_rfc3339, texts[len(times) :]))
    with contextlib.suppress(ValueError):
        ps.extend(map(float, probabilities))
    utc = map(operator.is_, map(operator.attrgetter("tzinfo"), times), repeat(dt.timezone.utc))
    if (
        len(times) == len(ps) == len(lines)
        and set(map(operator.getitem, texts, repeat(slice(10, 11)))) <= _SEPARATORS
        and all(utc)
        and _obeys(ps, _PROBABILITY[1])
    ):
        del texts, probabilities
        rows = zip(question_ids, forecaster_ids, times, ps)
        records = list(map(tuple.__new__, repeat(CrowdRecord), rows))
    else:
        records = []
        times, ps = map(_parse_rfc3339, texts), map(float, probabilities)
        try:
            records.extend(map(CrowdRecord, question_ids, forecaster_ids, times, ps))
        except ValueError as exc:  # `records` stops just before the bad row
            raise ValueError(f"{path}:{lines[len(records)]}: {exc}") from exc
    records.sort(key=operator.itemgetter(2))
    return records
