"""Rolling-volatility random-walk engine for barrier-crossing probabilities.

The model is a driftless random walk on daily exchange-rate levels,
x[t+1] = x[t] + e[t] with e[t] ~ Normal(0, sigma_h^2), where sigma_h is the
sample standard deviation of historical daily increments. Forecasts are
pseudo-out-of-sample: the estimate for day d uses price data up to d only,
and a forecast reads nothing but the price series, the question and how
remaining steps are counted (`StepMode`). Each day's forecast is the
closed-form first-passage probability 2 * Phi(-d / (sigma_h sqrt(n)))
(`analytic_barrier_probability`), with
2 * Phi(-u) taken as the standard library's `math.erfc(u / sqrt(2))`; the
bridge-corrected Monte Carlo (`simulate_barrier_probability`) estimates the
same number without bias and is kept as the reference it is tested against:
a plain loop that moves every path one step at a time on one Philox stream.
"""

from __future__ import annotations

import datetime as dt
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum

from .domain import (
    ForecastSeries,
    PriceSeries,
    Question,
    Source,
    barrier_rate,
    resolve,
)


class StepMode(str, Enum):
    """How remaining forecast steps are counted.

    TRADING_DAYS counts weekdays only, since rates are not observed on
    weekends and a barrier cannot be touched on a day with no close.
    CALENDAR_DAYS counts every day, over-counting across weekends.
    """

    TRADING_DAYS = "trading_days"
    CALENDAR_DAYS = "calendar_days"


def as_integer(name: str, value) -> int:
    """`value` as an int; numpy integers pass, a bool or any float is a ValueError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class VolatilityEstimate:
    """Sample standard deviation of daily increments up to `as_of`."""

    as_of: dt.date
    sigma_h: float
    n_obs: int

    def __post_init__(self) -> None:
        if self.sigma_h < 0:
            raise ValueError("sigma_h must be nonnegative")
        if self.n_obs < 2:
            raise ValueError("need at least 2 increments")


def estimate_volatility(series: PriceSeries, as_of: dt.date) -> VolatilityEstimate:
    """Volatility of daily first differences using data on or before `as_of`.

    Increments are taken between consecutive observations (a weekend gap is
    one increment) and sigma_h is their n-1 sample standard deviation, so the
    estimate is in rate units per step. Raises on fewer than 3 observations.
    The increments are a prefix of `series.rate_diffs`, whose exact prefix
    sums `series.diff_sums` the first call on a series builds in one O(n)
    pass; each call after that costs one bisect and one division of Python
    ints, which rounds correctly, so sigma_h is the square root of the exact
    sample variance rounded once to a float. A variance that is not zero but
    rounds to 0.0 or overflows a float is a ValueError naming the pair and
    `as_of`, never a sigma_h of 0.0 or inf.
    """
    k = bisect_right(series.dates, as_of)
    if k < 3:
        raise ValueError(
            f"insufficient history: need at least 3 observations on or before "
            f"{as_of}, have {k}"
        )
    m = k - 1
    e, s1, s2 = series.diff_sums
    # m * (m - 1) * 2**(2e) times the sample variance, exactly
    spread = m * s2[m] - s1[m] ** 2
    try:
        variance = spread / ((m * (m - 1)) << 2 * e)
    except OverflowError:
        variance = math.inf
    if spread and not 0.0 < variance < math.inf:
        raise ValueError(
            f"{series.pair_id}: the variance of daily increments up to {as_of} "
            f"{'overflows' if variance else 'underflows'} a float"
        )
    return VolatilityEstimate(as_of=as_of, sigma_h=math.sqrt(variance), n_obs=m)


def _crossing_probability(d_over_sigma: float, n_steps: int, n_paths: int, seed: int) -> float:
    """Monte Carlo estimate of hitting a barrier `d_over_sigma` step-sigmas below start.

    All paths advance together: step k draws the k-th `n_paths` unit normals
    from one Philox generator keyed by `seed`, so a path's first k increments
    do not depend on `n_steps`, and memory is a few arrays of `n_paths` floats.
    Between consecutive levels a, c above the barrier, a continuous bridge
    touches it with probability exp(-2ac), so each path contributes
    1 - prod(1 - p_step) instead of a raw indicator: unbiased for the
    continuous walk's first-passage probability, with less variance. A level
    clipped at the barrier makes its step's factor 0, so the clip changes no
    survival. numpy is imported here, not by the package, so only a caller of
    the reference pays for it.
    """
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=seed))
    level = np.full(n_paths, d_over_sigma)
    survival = np.ones(n_paths)
    for _ in range(n_steps):
        nxt = np.maximum(level + rng.standard_normal(n_paths), 0.0)
        survival *= 1.0 - np.exp(-2.0 * level * nxt)
        level = nxt
    # survival.mean()'s pairwise sum and division, without its Python wrapper
    return 1.0 - float(np.add.reduce(survival) / n_paths)


def simulate_barrier_probability(
    x0: float,
    sigma: float,
    barrier: float,
    n_steps: int,
    *,
    n_paths: int = 10_000,
    seed: int = 0,
) -> float:
    """Probability that the simulated walk falls to `barrier` within `n_steps`.

    Returns exactly 1.0 when the start is already at or below the barrier and
    0.0 when the walk cannot move (zero volatility or no steps remaining).
    `n_paths` and `seed` must be integers (numpy integers pass; a float, even
    an integral one, or a bool is rejected); the seed is a fixed Philox key,
    never entropy. Deterministic for fixed (seed, n_paths, inputs), on any
    thread. It estimates `analytic_barrier_probability`, the forecast
    `rolling_forecast` uses, without bias, and is the reference that forecast
    is tested against; no forecast or report reads it. The result depends on
    x0, barrier and sigma only through the float (x0 - barrier) / sigma, so
    negating both x0 and barrier is exact. Inputs equal only in decimal (up
    0.15 from 1.0 versus down 0.15 from 1.0) round to different distances and
    can differ at about 1e-16.
    """
    seed, n_paths = as_integer("seed", seed), as_integer("n_paths", n_paths)
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if x0 <= barrier:
        return 1.0
    if sigma == 0.0 or n_steps == 0:
        return 0.0
    return _crossing_probability((x0 - barrier) / sigma, int(n_steps), n_paths, seed)


def analytic_barrier_probability(
    x0: float, sigma: float, barrier: float, n_steps: int
) -> float:
    """Closed-form first-passage probability for the driftless walk.

    Treats the walk as a Brownian motion with per-step variance sigma^2 and
    applies the reflection principle: 2 * Phi((barrier - x0) / (sigma sqrt(n))),
    computed as erfc((x0 - barrier) / (sigma sqrt(n)) / sqrt(2)).
    This is each day's forecast in `rolling_forecast`. Negating both x0 and
    barrier is exact, which is how ccy_per_usd questions are priced as
    up-crossings.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if x0 <= barrier:
        return 1.0
    if sigma == 0.0 or n_steps == 0:
        return 0.0
    return math.erfc((x0 - barrier) / (sigma * math.sqrt(n_steps)) / math.sqrt(2.0))


def _weekdays_through(ordinal: int) -> int:
    """Weekdays among date ordinals 1..ordinal; ordinal 1 (0001-01-01) is a Monday."""
    weeks, days = divmod(ordinal, 7)
    return 5 * weeks + min(days, 5)


def _steps_to_close(dates, close_date: dt.date, step_mode: StepMode) -> list[int]:
    """Simulation steps left in (d, close_date] for each date d of `dates`."""
    if StepMode(step_mode) is StepMode.CALENDAR_DAYS:
        return [max(0, (close_date - d).days) for d in dates]
    end = _weekdays_through(close_date.toordinal())
    return [max(0, end - _weekdays_through(d.toordinal())) for d in dates]


def remaining_steps(date: dt.date, close_date: dt.date, step_mode: StepMode) -> int:
    """Number of simulation steps left in (date, close_date]."""
    return _steps_to_close([date], close_date, step_mode)[0]


def rolling_forecast(
    series: PriceSeries, question: Question, step_mode: StepMode = StepMode.TRADING_DAYS
) -> ForecastSeries:
    """Pseudo-out-of-sample barrier forecasts for every observed day.

    For each observed date d from the question's scoring start up to (but not
    including) its resolve date: volatility is re-estimated from data up to d,
    the remaining steps to close are counted under `step_mode`, and the
    crossing probability from the day-d close is the closed form
    `analytic_barrier_probability`, so a forecast depends only on information
    available on that day. The days are found by bisect on `series.dates`,
    and their steps are counted in one call.
    """
    resolution = resolve(series, question)
    # the observed days among forecast_days(question, resolution)
    lo = bisect_left(series.dates, question.scoring_start)
    hi = bisect_left(series.dates, resolution.resolve_date)
    steps = _steps_to_close(series.dates[lo:hi], question.close_date, step_mode)
    sign = series.quote_direction.sign
    barrier = sign * barrier_rate(question, series.quote_direction)
    days = []
    for (d, rate), n_steps in zip(series.points[lo:hi], steps):
        sigma = estimate_volatility(series, d).sigma_h
        days.append((d, analytic_barrier_probability(sign * rate, sigma, barrier, n_steps)))
    return ForecastSeries(question.question_id, Source.RANDOM_WALK, tuple(days))
