"""Domain types for barrier-event exchange rate questions and their forecasts."""

from __future__ import annotations

import datetime as dt
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate


class QuoteDirection(str, Enum):
    """How a price series quotes the currency against the US dollar.

    USD_PER_CCY: dollars per unit of currency; depreciation pushes the rate down.
    CCY_PER_USD: currency units per dollar; depreciation pushes the rate up.
    """

    USD_PER_CCY = "usd_per_ccy"
    CCY_PER_USD = "ccy_per_usd"

    @property
    def sign(self) -> float:
        """+1.0 or -1.0 such that `sign * rate` falls as the currency depreciates.

        Every question is then a fall to the barrier `sign * barrier_rate`;
        multiplying by +-1.0 is exact, so no rate or barrier changes value.
        """
        return 1.0 if self is QuoteDirection.USD_PER_CCY else -1.0


class Source(str, Enum):
    """Origin of a forecast or score series."""

    RANDOM_WALK = "random_walk"
    CROWD = "crowd"
    COMBINED = "combined"


class ThresholdKind(str, Enum):
    RELATIVE_DEPRECIATION = "relative_depreciation"
    ABSOLUTE_LEVEL = "absolute_level"


# Value rules for dated series, here and in CSV ingest: the value's name, a
# predicate, and the error text it raises.
_PROBABILITY = (
    "probability",
    lambda v: 0.0 <= v <= 1.0,
    "value {value} at {date} outside [0.0, 1.0]",
)
_RATE = (
    "rate",
    lambda v: 0.0 < v < math.inf,
    "non-positive or non-finite rate {value} at {date}",
)


def _check_points(points, label: str, rule) -> tuple:
    _, valid, message = rule
    out = []
    prev = None
    for date, value in points:
        value = float(value)
        if prev is not None and date <= prev:
            raise ValueError(f"{label}: dates must be strictly increasing (at {date})")
        if not valid(value):
            raise ValueError(f"{label}: " + message.format(value=value, date=date))
        out.append((date, value))
        prev = date
    return tuple(out)


@dataclass(frozen=True)
class PriceSeries:
    """Dated daily exchange-rate levels for one currency pair.

    Dates are strictly increasing, every rate is positive and finite, and
    calendar gaps (weekends, holidays) are preserved exactly as observed.
    `dates`, `rate_diffs` and `diff_sums` are computed on first use and kept
    on the instance; they are not fields, so equality, hashing and repr see
    only the points.
    """

    pair_id: str
    points: tuple[tuple[dt.date, float], ...]
    quote_direction: QuoteDirection = QuoteDirection.USD_PER_CCY

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "points", _check_points(self.points, self.pair_id, _RATE)
        )
        object.__setattr__(
            self, "quote_direction", QuoteDirection(self.quote_direction)
        )

    @classmethod
    def _trusted(
        cls, pair_id: str, points: tuple, quote_direction: QuoteDirection
    ) -> PriceSeries:
        """A series from float points already known to be strictly increasing in
        date with every rate positive and finite, built without checking them again."""
        series = object.__new__(cls)
        object.__setattr__(series, "pair_id", pair_id)
        object.__setattr__(series, "points", points)
        object.__setattr__(series, "quote_direction", QuoteDirection(quote_direction))
        return series

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(d for d, _ in self.points)

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(r for _, r in self.points)

    @cached_property
    def rate_diffs(self) -> tuple[float, ...]:
        """First differences: rate_diffs[i] = rate[i+1] - rate[i]."""
        rates = self.rates
        return tuple(b - a for a, b in zip(rates, rates[1:]))

    @cached_property
    def diff_sums(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """`(e, s1, s2)`: exact prefix sums of `rate_diffs` and of their squares.

        Every diff times 2**e is an integer, where 2**e is the largest
        denominator of `float.as_integer_ratio` among the diffs, and
        s1[j] and s2[j] are the sums of the first j of those integers and of
        their squares. Python ints hold them exactly, whatever the rates.
        """
        ratios = [d.as_integer_ratio() for d in self.rate_diffs]
        e = max((q.bit_length() - 1 for _, q in ratios), default=0)
        scaled = [p << (e + 1 - q.bit_length()) for p, q in ratios]
        return (
            e,
            tuple(accumulate(scaled, initial=0)),
            tuple(accumulate((v * v for v in scaled), initial=0)),
        )

    def rate_on(self, date: dt.date) -> float:
        """Rate observed exactly on `date`, or KeyError if not a trading day."""
        i = bisect_left(self.dates, date)
        if i == len(self.points) or self.dates[i] != date:
            raise KeyError(f"{self.pair_id}: no observation on {date}")
        return self.points[i][1]

    def first_rate_on_or_after(self, date: dt.date) -> float | None:
        i = bisect_left(self.dates, date)
        return self.points[i][1] if i < len(self.points) else None

    def window(self, start: dt.date | None = None, end: dt.date | None = None) -> PriceSeries:
        """Sub-series with dates in [start, end] (either bound optional)."""
        lo = 0 if start is None else bisect_left(self.dates, start)
        hi = len(self.points) if end is None else bisect_right(self.dates, end)
        return PriceSeries._trusted(self.pair_id, self.points[lo:hi], self.quote_direction)


@dataclass(frozen=True)
class Question:
    """A barrier event: will the currency hit its depreciation threshold before close?

    `scoring_start_date` marks the first day forecasts are produced and scored;
    it defaults to `open_date` and exists so a harness can skip days before a
    question was actually live.
    """

    question_id: str
    pair_id: str
    open_date: dt.date
    close_date: dt.date
    baseline_rate: float
    threshold_kind: ThresholdKind
    threshold_value: float
    scoring_start_date: dt.date | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold_kind", ThresholdKind(self.threshold_kind))
        object.__setattr__(self, "baseline_rate", float(self.baseline_rate))
        object.__setattr__(self, "threshold_value", float(self.threshold_value))
        if self.open_date >= self.close_date:
            raise ValueError(
                f"{self.question_id}: open_date {self.open_date} must precede "
                f"close_date {self.close_date}"
            )
        if not 0.0 < self.baseline_rate < math.inf:
            raise ValueError(
                f"{self.question_id}: baseline_rate must be positive and finite"
            )
        if self.threshold_kind is ThresholdKind.RELATIVE_DEPRECIATION:
            if not 0.0 < self.threshold_value < 1.0:
                raise ValueError(
                    f"{self.question_id}: relative threshold must lie in (0, 1)"
                )
        elif not 0.0 < self.threshold_value < math.inf:
            raise ValueError(
                f"{self.question_id}: absolute threshold must be positive and finite"
            )
        if self.scoring_start_date is not None and not (
            self.open_date <= self.scoring_start_date < self.close_date
        ):
            raise ValueError(
                f"{self.question_id}: scoring_start_date must lie in "
                "[open_date, close_date)"
            )

    @property
    def scoring_start(self) -> dt.date:
        return self.scoring_start_date or self.open_date


@dataclass(frozen=True)
class Resolution:
    """Binary outcome of a question: k=1 on the crossing day, k=0 at close."""

    question_id: str
    outcome: int
    resolve_date: dt.date

    def __post_init__(self) -> None:
        if self.outcome not in (0, 1):
            raise ValueError(f"{self.question_id}: outcome must be 0 or 1")


@dataclass(frozen=True)
class ForecastSeries:
    """Dated values in [0, 1] from one source for one question.

    Holds forecast probabilities and, as `ScoreSeries`, their Brier scores.
    Producers must not emit points dated after the question's resolve date.
    """

    question_id: str
    source: Source
    points: tuple[tuple[dt.date, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", Source(self.source))
        label = f"series {self.question_id}/{self.source.value}"
        object.__setattr__(
            self, "points", _check_points(self.points, label, _PROBABILITY)
        )

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(d for d, _ in self.points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.points)


# Scores are dated values in [0, 1] like forecasts; one type serves both.
ScoreSeries = ForecastSeries


def threshold_rate(question: Question) -> float:
    """Barrier level implied by the question, in dollars-per-currency terms.

    Relative questions put the barrier at baseline * (1 - threshold_value);
    absolute questions state the level directly.
    """
    if question.threshold_kind is ThresholdKind.RELATIVE_DEPRECIATION:
        return question.baseline_rate * (1.0 - question.threshold_value)
    return question.threshold_value


def barrier_rate(question: Question, direction: QuoteDirection) -> float:
    """Barrier level in the units the price series is quoted in.

    For currency-per-dollar quotes a depreciation means the rate rises, and a
    relative loss of value v maps to baseline / (1 - v) since the quoted rate
    is the reciprocal of the currency's dollar value.
    """
    direction = QuoteDirection(direction)
    if direction is QuoteDirection.USD_PER_CCY:
        return threshold_rate(question)
    if question.threshold_kind is ThresholdKind.RELATIVE_DEPRECIATION:
        return question.baseline_rate / (1.0 - question.threshold_value)
    return question.threshold_value


def resolve(series: PriceSeries, question: Question) -> Resolution:
    """Resolve a question against daily closes.

    k=1 on the first observed date in (open_date, close_date] at which the
    barrier is touched or crossed, else k=0 at close_date. Intraday moves are
    invisible at this data granularity. Data after the resolve date never
    affects the result. The window is found by bisect on `series.dates`.
    """
    if series.pair_id != question.pair_id:
        raise ValueError(
            f"pair mismatch: series {series.pair_id!r} vs question "
            f"{question.pair_id!r}"
        )
    lo = bisect_left(series.dates, question.open_date)
    in_window = series.points[lo : bisect_right(series.dates, question.close_date)]
    if not in_window:
        raise ValueError(
            f"insufficient data: {series.pair_id} has no observations in "
            f"[{question.open_date}, {question.close_date}]"
        )
    sign = series.quote_direction.sign
    barrier = sign * barrier_rate(question, series.quote_direction)
    for d, r in in_window:
        if d > question.open_date and sign * r <= barrier:
            return Resolution(question.question_id, 1, d)
    return Resolution(question.question_id, 0, question.close_date)


def forecast_days(question: Question, resolution: Resolution) -> frozenset[dt.date]:
    """Calendar days in [scoring_start, resolve_date): the days a forecast is scored on.

    Every forecast source, made here or read from a file, keeps only points
    dated on these days, so all sources are compared on the same
    question-days and none is scored once the outcome is known.
    """
    start = question.scoring_start
    return frozenset(
        start + dt.timedelta(days=i)
        for i in range((resolution.resolve_date - start).days)
    )
