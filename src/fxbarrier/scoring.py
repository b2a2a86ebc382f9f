"""Squared-error (Brier) scoring and mean-error curves over open questions."""

from __future__ import annotations

import datetime as dt
from typing import Iterable

from .domain import ForecastSeries, Resolution, ScoreSeries


def brier(p: float, k: int) -> float:
    """Squared error (1-k) * p^2 + k * (1-p)^2 of probability p against outcome k."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if k not in (0, 1):
        raise ValueError(f"outcome {k} must be 0 or 1")
    return (1 - k) * p * p + k * (1.0 - p) * (1.0 - p)


def score_series(forecast: ForecastSeries, resolution: Resolution) -> ScoreSeries:
    """Pointwise Brier scores of a forecast series against its resolution."""
    if forecast.question_id != resolution.question_id:
        raise ValueError(
            f"question mismatch: forecast {forecast.question_id!r} vs resolution "
            f"{resolution.question_id!r}"
        )
    if resolution.outcome is None:
        raise ValueError(f"{resolution.question_id}: an open question has no outcome to score")
    points = tuple((d, brier(p, resolution.outcome)) for d, p in forecast.points)
    return ScoreSeries(forecast.question_id, forecast.source, points)


def mean_score_curve(scores: Iterable[ScoreSeries]) -> tuple[tuple[dt.date, float, int], ...]:
    """Average the given score series date by date, as `(date, mean, n_open)` points.

    The curve has a point on every date any series scores. At each date the
    mean runs over exactly the questions that have a score that day, so
    resolved questions drop out after their resolve date and the
    open-question count is recorded alongside. All series must share one
    source.
    """
    series = list(scores)
    if not series:
        raise ValueError("mean_score_curve needs at least one score series")
    sources = {s.source for s in series}
    if len(sources) > 1:
        raise ValueError(f"mixed sources: {sorted(s.value for s in sources)}")
    maps = [dict(s.points) for s in series]
    points = []
    for d in sorted({d for m in maps for d in m}):
        vals = [m[d] for m in maps if d in m]
        points.append((d, sum(vals) / len(vals), len(vals)))
    return tuple(points)
