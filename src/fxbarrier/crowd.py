"""Individual crowd forecasts and their consensus aggregates.

Two consensus rules are provided: a recency-weighted median of each
forecaster's latest probability (the community-style aggregate) and an
extremized mean-logit pool.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .domain import ForecastSeries, Question, Source
from .io import _read_rows

_LOGIT_EPS = 1e-6
_CROWD_HEADER = ["question_id", "forecaster_id", "timestamp_rfc3339", "probability"]


class ConsensusMethod(str, Enum):
    WEIGHTED_MEDIAN = "weighted_median"
    LOGIT_COMBINE = "logit_combine"


@dataclass(frozen=True)
class CrowdRecord:
    """One forecaster's timestamped probability submission on one question."""

    question_id: str
    forecaster_id: str
    at: dt.datetime
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", float(self.p))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(
                f"{self.question_id}/{self.forecaster_id}: probability {self.p} "
                "outside [0, 1]"
            )


@dataclass(frozen=True)
class ConsensusParams:
    """Aggregation settings.

    recency_shape controls the weighted-median weights exp(shape * sqrt(rank));
    zero recovers the plain median. extremize_a scales the pooled logit; values
    above 1 push the combination away from one half.
    """

    method: ConsensusMethod = ConsensusMethod.WEIGHTED_MEDIAN
    extremize_a: float = 2.0
    recency_shape: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", ConsensusMethod(self.method))
        if not 0.0 < self.extremize_a < math.inf:
            raise ValueError("extremize_a must be positive and finite")
        if not 0.0 <= self.recency_shape < math.inf:
            raise ValueError("recency_shape must be nonnegative and finite")


class SnapshotEntry(NamedTuple):
    forecaster_id: str
    p: float
    age_rank: int


def _snapshots(
    records: Iterable[CrowdRecord], cutoffs: Iterable[dt.datetime]
) -> Iterator[list[SnapshotEntry]]:
    """The latest-per-forecaster snapshot at each of the ascending `cutoffs`.

    One stable sort of the records by time, then one cursor across them:
    each record is visited once in all, and each cutoff costs a sort of its
    snapshot by (time, forecaster id). Because the sort is stable, a
    forecaster's same-instant duplicates are visited in input order and the
    later one wins.
    """
    ordered = sorted(records, key=lambda r: r.at)
    latest: dict[str, tuple[dt.datetime, float]] = {}
    i = 0
    for cutoff in cutoffs:
        while i < len(ordered) and ordered[i].at <= cutoff:
            rec = ordered[i]
            latest[rec.forecaster_id] = (rec.at, rec.p)
            i += 1
        ranked = sorted(latest.items(), key=lambda kv: (kv[1][0], kv[0]))
        yield [
            SnapshotEntry(fid, p, rank)
            for rank, (fid, (_, p)) in enumerate(ranked, start=1)
        ]


def latest_per_forecaster(
    records: Iterable[CrowdRecord], at: dt.datetime
) -> list[SnapshotEntry]:
    """Each forecaster's most recent probability at or before `at`.

    age_rank runs 1..N from the oldest to the newest latest-submission time,
    so higher ranks are fresher opinions. Ties on time break by forecaster id;
    a forecaster's same-instant duplicates keep the later record in input
    order. Forecasters with no submission yet are absent. This is the
    single-cutoff case of the sweep `crowd_series` runs: O(R log R) for R
    records.
    """
    return next(_snapshots(records, [at]))


def community_prediction(
    snapshot: Iterable[SnapshotEntry], params: ConsensusParams
) -> float:
    """Recency-weighted median of a latest-per-forecaster snapshot.

    Weights are exp(recency_shape * sqrt(age_rank)), each divided by the
    newest rank's weight so that none overflows at any finite shape. The
    result is the smallest probability whose cumulative weight, over
    probabilities sorted ascending, reaches half the total weight; this
    tie-break is deterministic and independent of input order.
    """
    entries = list(snapshot)
    if not entries:
        raise ValueError("no forecasts in snapshot")
    newest = math.sqrt(max(e.age_rank for e in entries))
    weighted = sorted(
        (e.p, math.exp(params.recency_shape * (math.sqrt(e.age_rank) - newest)))
        for e in entries
    )
    total = math.fsum(w for _, w in weighted)
    acc = 0.0
    for p, w in weighted:
        acc += w
        if acc >= total / 2.0:
            return p
    return weighted[-1][0]


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
    return 1.0 / (1.0 + math.exp(-pooled))


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
    questions are dropped, the question's R records are sorted by time once
    and walked once across the D sorted dates, so the cost is
    O(R log R + D * N log N) for at most N forecasters, not O(R * D).

    Dates with no submissions yet are omitted. Callers must pass dates within
    [scoring_start, resolve_date) so the series honours its resolution bound.
    """
    relevant = [r for r in records if r.question_id == question.question_id]
    days = sorted(set(sample_dates))
    points = []
    for d, snapshot in zip(days, _snapshots(relevant, map(_end_of_day, days))):
        if not snapshot:
            continue
        if params.method is ConsensusMethod.WEIGHTED_MEDIAN:
            p = community_prediction(snapshot, params)
        else:
            p = combine_logit([e.p for e in snapshot], params.extremize_a)
        points.append((d, p))
    return ForecastSeries(question.question_id, Source.CROWD, tuple(points))


def _parse_rfc3339(text: str) -> dt.datetime:
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    stamp = dt.datetime.fromisoformat(cleaned)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=dt.timezone.utc)
    return stamp.astimezone(dt.timezone.utc)


def load_crowd_csv(path: str | Path) -> list[CrowdRecord]:
    """Read crowd records from CSV and sort them by timestamp.

    Expected header: question_id,forecaster_id,timestamp_rfc3339,probability.
    Rows may arrive in any order; malformed rows fail with their line number.
    """
    path = Path(path)
    records = []
    for lineno, row in _read_rows(path, _CROWD_HEADER):
        try:
            record = CrowdRecord(
                question_id=row[0].strip(),
                forecaster_id=row[1].strip(),
                at=_parse_rfc3339(row[2]),
                p=float(row[3]),
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        records.append(record)
    records.sort(key=lambda r: r.at)
    return records
