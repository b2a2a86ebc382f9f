"""Domain types for barrier-event exchange rate questions and their forecasts."""

from __future__ import annotations

import contextlib
import datetime as dt
import math
import operator
from bisect import bisect_left, bisect_right
from enum import Enum
from functools import cached_property
from itertools import accumulate, repeat
from typing import Iterable, NamedTuple


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
# predicate, and the error text it raises. Each predicate accepts an interval,
# so CSV ingest checks a whole column by its smallest and largest values.
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


def _checked_make(cls, iterable: Iterable):
    """`_make` for a record whose `__new__` checks it (`_replace` calls it too)."""
    return cls(*iterable)


def _obeys(values: list[float], valid) -> bool:
    """Whether every value satisfies `valid`, a domain rule's predicate.

    Each rule accepts an interval, so a column with no NaN obeys it when its
    smallest and largest values do. The sum is NaN exactly when the column
    holds a NaN, or both infinities, which no rule accepts.
    """
    total = sum(values)
    return not values or (total == total and valid(min(values)) and valid(max(values)))


def _check_points(points, label: str, rule) -> tuple:
    """`points` as (date, float) pairs, checked by columns, else in order."""
    _, valid, message = rule
    points = tuple(points)
    with contextlib.suppress(Exception):  # the loop below raises it again, at its point
        dates, values = zip(*points, strict=True)
        values = list(map(float, values))
        if all(map(operator.lt, dates, dates[1:])) and _obeys(values, valid):
            return tuple(zip(dates, map(operator.add, values, repeat(0.0))))  # -0.0 is 0.0
    out = []
    prev = None
    for date, value in points:
        value = float(value)
        if prev is not None and date <= prev:
            raise ValueError(f"{label}: dates must be strictly increasing (at {date})")
        if not valid(value):
            raise ValueError(f"{label}: " + message.format(value=value, date=date))
        out.append((date, value + 0.0))  # -0.0 + 0.0 is 0.0: no "-0.000000" is written
        prev = date
    return tuple(out)


class _Series:
    """Equality, hashing, repr, pickling and immutability over the three
    fields a series names in `__match_args__` and holds in its `__slots__`.

    Pickle and copy rebuild a series through its constructor, so its checks
    run again. Setting or deleting any attribute raises AttributeError.
    """

    __slots__ = ()
    __match_args__: tuple[str, str, str]

    def _set(self, *values) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class PriceSeries(_Series):
    """Dated daily exchange-rate levels for one currency pair.

    Dates are strictly increasing, every rate is positive and finite, and
    calendar gaps (weekends, holidays) are preserved exactly as observed.
    `dates` and `diff_sums` are computed on first use and kept on the
    instance; they are not fields, so equality, hashing and repr see
    only the points.
    """

    __match_args__ = ("pair_id", "points", "quote_direction")
    __slots__ = (*__match_args__, "__dict__")  # `__dict__` holds the cached properties

    def __init__(
        self,
        pair_id: str,
        points: tuple[tuple[dt.date, float], ...],
        quote_direction: QuoteDirection = QuoteDirection.USD_PER_CCY,
    ) -> None:
        points = _check_points(points, pair_id, _RATE)
        self._set(pair_id, points, QuoteDirection(quote_direction))

    @classmethod
    def _trusted(
        cls, pair_id: str, points: tuple, quote_direction: QuoteDirection
    ) -> PriceSeries:
        """A series from float points already known to be strictly increasing in
        date with every rate positive and finite, built without checking them again."""
        series = object.__new__(cls)
        series._set(pair_id, points, QuoteDirection(quote_direction))
        return series

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(map(operator.itemgetter(0), self.points))

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(map(operator.itemgetter(1), self.points))

    @cached_property
    def diff_sums(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """`(e, s1, s2)`: exact prefix sums of the daily diffs and of their squares.

        The diffs rate[i+1] - rate[i] are taken from `rates` in one pass.
        Every diff times 2**e is an integer, where 2**e is the largest
        denominator of `float.as_integer_ratio` among the diffs, and
        s1[j] and s2[j] are the sums of the first j of those integers and of
        their squares. Python ints hold them exactly, whatever the rates.
        """
        rates = self.rates
        ratios = [(b - a).as_integer_ratio() for a, b in zip(rates, rates[1:])]
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


class _QuestionFields(NamedTuple):
    question_id: str
    pair_id: str
    open_date: dt.date
    close_date: dt.date
    threshold_kind: ThresholdKind
    threshold_value: float
    baseline_rate: float | None = None
    scoring_start_date: dt.date | None = None
    history_start: dt.date | None = None
    non_floating: bool = False


class Question(_QuestionFields):
    """A barrier event: will the currency hit its depreciation threshold before close?

    Without a `baseline_rate`, a relative barrier is measured from the first
    observed rate on or after the open date (`barrier_rate`).
    `scoring_start_date` marks the first day forecasts are produced and scored;
    it defaults to `open_date` and exists so a harness can skip days before a
    question was actually live. `history_start` drops earlier rates from
    volatility estimation (`rolling_forecast`), and `non_floating` marks
    pegged currencies the random walk cannot forecast. `threshold_kind` is
    stored as a ThresholdKind, and `threshold_value` and `baseline_rate` as
    floats. Every way of building a question checks it: the constructor,
    `_make`, `_replace`, pickle and copy.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Question:
        q = super().__new__(cls, *args, **kwargs)
        # a truthy string such as "false" would silently drop the random walk
        if not isinstance(q.non_floating, bool):
            raise ValueError(
                f"{q.question_id}: non_floating must be a bool, got {q.non_floating!r}"
            )
        kind = ThresholdKind(q.threshold_kind)
        value = float(q.threshold_value)
        if q.open_date >= q.close_date:
            raise ValueError(
                f"{q.question_id}: open_date {q.open_date} must precede "
                f"close_date {q.close_date}"
            )
        baseline = q.baseline_rate
        if baseline is not None:
            baseline = float(baseline)
            if not 0.0 < baseline < math.inf:
                raise ValueError(f"{q.question_id}: baseline_rate must be positive and finite")
        if kind is ThresholdKind.RELATIVE_DEPRECIATION:
            if not 0.0 < value < 1.0:
                raise ValueError(f"{q.question_id}: relative threshold must lie in (0, 1)")
        elif not 0.0 < value < math.inf:
            raise ValueError(
                f"{q.question_id}: absolute threshold must be positive and finite"
            )
        if q.scoring_start_date is not None and not (
            q.open_date <= q.scoring_start_date < q.close_date
        ):
            raise ValueError(
                f"{q.question_id}: scoring_start_date must lie in "
                "[open_date, close_date)"
            )
        if q.history_start is not None and q.history_start > q.open_date:
            raise ValueError(
                f"{q.question_id}: history_start {q.history_start} is "
                f"after open_date {q.open_date}"
            )
        # threshold_kind, threshold_value and baseline_rate are fields 4 to 6
        return tuple.__new__(cls, (*q[:4], kind, value, baseline, *q[7:]))

    _make = classmethod(_checked_make)

    @property
    def scoring_start(self) -> dt.date:
        return self.scoring_start_date or self.open_date


class Resolution(
    NamedTuple(
        "Resolution",
        [("question_id", str), ("outcome", int | None), ("resolve_date", dt.date)],
    )
):
    """Outcome of a question: k=1 on the crossing day, k=0 at close, None while open.

    An integer outcome, a numpy one included, is stored as an int; a bool or
    a non-integer is a ValueError. Every way of building a resolution checks
    it: the constructor, `_make`, `_replace`, pickle and copy.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Resolution:
        r = super().__new__(cls, *args, **kwargs)
        outcome = r.outcome
        # a bool or a float is no outcome; a numpy integer is stored as an int
        if outcome is not None and not isinstance(outcome, bool) and hasattr(outcome, "__index__"):
            outcome = operator.index(outcome)
        if not (outcome is None or type(outcome) is int and outcome in (0, 1)):
            raise ValueError(f"{r.question_id}: outcome must be 0, 1 or None")
        return tuple.__new__(cls, (r.question_id, outcome, r.resolve_date))

    _make = classmethod(_checked_make)


class ForecastSeries(_Series):
    """Dated values in [0, 1] from one source for one question.

    Holds forecast probabilities and, as `ScoreSeries`, their Brier scores.
    Producers must not emit points dated after the question's resolve date.
    """

    __match_args__ = ("question_id", "source", "points")
    __slots__ = __match_args__

    def __init__(
        self, question_id: str, source: Source, points: tuple[tuple[dt.date, float], ...]
    ) -> None:
        source = Source(source)
        label = f"series {question_id}/{source.value}"
        self._set(question_id, source, _check_points(points, label, _PROBABILITY))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(map(operator.itemgetter(0), self.points))

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(map(operator.itemgetter(1), self.points))


# Scores are dated values in [0, 1] like forecasts; one type serves both.
ScoreSeries = ForecastSeries


def barrier_rate(question: Question, series: PriceSeries) -> float:
    """Barrier level in the units `series` is quoted in.

    An absolute question states it. A relative loss of value v puts it at
    baseline * (1 - v) in dollars per currency, and at baseline / (1 - v) in
    currency per dollar, the reciprocal quote, where a depreciation raises the
    rate. The baseline is `question.baseline_rate`, or else the series' first
    rate on or after the open date.
    """
    if question.threshold_kind is ThresholdKind.ABSOLUTE_LEVEL:
        return question.threshold_value
    baseline = question.baseline_rate
    if baseline is None:
        baseline = series.first_rate_on_or_after(question.open_date)
        if baseline is None:
            raise ValueError(
                f"insufficient data: no observation on or after {question.open_date}"
            )
    if series.quote_direction is QuoteDirection.USD_PER_CCY:
        return baseline * (1.0 - question.threshold_value)
    return baseline / (1.0 - question.threshold_value)


def resolve(series: PriceSeries, question: Question) -> Resolution:
    """Resolve a question against daily closes.

    k=1 on the first observed date in (open_date, close_date] at which the
    barrier is touched or crossed. Without a crossing the question is open,
    outcome None at close_date, if the series ends before the last weekday on
    or before close_date (a holiday there included), and else k=0 at close_date.
    Intraday moves are invisible at this data granularity. No rate after the
    resolve date affects the result. The window is found by bisect on `series.dates`.
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
    barrier = sign * barrier_rate(question, series)
    for d, r in in_window:
        if d > question.open_date and sign * r <= barrier:
            return Resolution(question.question_id, 1, d)
    close = question.close_date
    last_weekday = close - dt.timedelta(days=max(0, close.weekday() - 4))
    outcome = None if series.dates[-1] < last_weekday else 0
    return Resolution(question.question_id, outcome, close)


def resolve_closed(series: PriceSeries, question: Question) -> Resolution:
    """`resolve`, with an open question a ValueError naming the series' last date."""
    resolution = resolve(series, question)
    if resolution.outcome is None:
        raise ValueError(
            f"{question.question_id}: open: {series.pair_id} data ends "
            f"{series.dates[-1]}, before close {question.close_date}, without a crossing"
        )
    return resolution


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
