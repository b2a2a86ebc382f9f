"""Rolling-volatility random-walk engine for barrier-crossing probabilities.

The model is a driftless random walk on daily exchange-rate levels,
x[t+1] = x[t] + e[t] with e[t] ~ Normal(0, sigma_h^2), where sigma_h is the
sample standard deviation of historical daily increments. Forecasts are
pseudo-out-of-sample: the estimate for day d uses price data up to d only.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import math
import operator
import os
import threading
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtr, ndtri

from .domain import (
    ForecastSeries,
    PriceSeries,
    Question,
    Source,
    barrier_rate,
    resolve,
)

# Philox-4x64 emits four 64-bit words per counter block; per-path strides are
# rounded up to whole blocks so any path's draws sit at fixed counter offsets.
_WORDS_PER_BLOCK = 4
# Each of a kernel thread's three working arrays holds at most this many bytes
# (for a path longer than that, one path), so a block's arrays stay in cache.
_BLOCK_BYTES = 256 * 1024


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# One thread per usable CPU for `rolling_forecast`'s independent days; numpy and
# scipy release the GIL in the kernel's array loops, so days run in parallel.
# The executor starts its threads on first use, not at import.
_POOL = ThreadPoolExecutor(_usable_cpus(), "fxbarrier-day") if _usable_cpus() > 1 else None
# Each kernel thread's one Philox generator and its `random` (`_philox_random`).
_THREAD_STATE = threading.local()


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
class SimulationParams:
    """Monte Carlo settings. The seed is explicit: no entropy-seeded default.

    `seed` and `n_paths` must be integers (numpy integers are accepted and
    stored as int); a float, even an integral one, or a bool is rejected.
    """

    seed: int
    n_paths: int = 10_000
    step_mode: StepMode = StepMode.TRADING_DAYS

    def __post_init__(self) -> None:
        object.__setattr__(self, "step_mode", StepMode(self.step_mode))
        for name in ("seed", "n_paths"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


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
    The increments are a prefix of `series.rate_diffs`, which the first call
    on a series builds in one O(n) pass; each call after that costs one
    bisect plus the standard deviation of the prefix, computed as `np.std`
    computes it (mean, deviations, squares, pairwise sums), so every bit
    matches `np.std(prefix, ddof=1)`.
    """
    k = bisect_right(series.dates, as_of)
    if k < 3:
        raise ValueError(
            f"insufficient history: need at least 3 observations on or before "
            f"{as_of}, have {k}"
        )
    # np.std(diffs, ddof=1)'s arithmetic, in its order, without its wrapper
    diffs = series.rate_diffs[: k - 1]
    dev = diffs - np.add.reduce(diffs) / (k - 1)
    sigma = math.sqrt(np.add.reduce(dev * dev) / (k - 2))
    return VolatilityEstimate(as_of=as_of, sigma_h=sigma, n_obs=k - 1)


def derive_seed(seed: int, question_id: str, date: dt.date) -> int:
    """Stable 64-bit substream seed for one (run seed, question, day) cell."""
    msg = f"{operator.index(seed)}:{question_id}:{date.isoformat()}".encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=8).digest(), "big")


def _philox_random(seed: int, counter: int):
    """This thread's Philox `random`, set to the stream `np.random.Philox(key=seed)`
    gives after `advance(counter)`: key [seed, 0], counter [counter, 0, 0, 0]
    and no buffered words.

    Each thread builds one generator, on its first kernel call, and sets its
    state from then on: that takes about a tenth of the time of building a
    generator, most of which goes to an entropy-seeded SeedSequence that a key
    leaves unused, and half that of `advance`. Every field of the state is
    set, so nothing an earlier call on the thread left behind, even one that
    raised mid-block, reaches these draws.
    """
    try:
        bitgen, draw = _THREAD_STATE.philox
    except AttributeError:
        bitgen = np.random.Philox(key=0)
        draw = np.random.Generator(bitgen).random
        _THREAD_STATE.philox = bitgen, draw
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": [counter, 0, 0, 0], "key": [seed, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return draw


def _stride(n_steps: int) -> int:
    """Counter words per path: `n_steps` rounded up to whole Philox blocks (at least one)."""
    return max(1, -(-n_steps // _WORDS_PER_BLOCK)) * _WORDS_PER_BLOCK


def _block_paths(n_steps: int) -> int:
    """Paths per kernel block, so each of its three working arrays holds at most
    `_BLOCK_BYTES` (one path when a path is longer than that)."""
    return max(1, _BLOCK_BYTES // (8 * _stride(n_steps)))


def _crossing_probability(d_over_sigma: float, n_steps: int, n_paths: int, seed: int) -> float:
    """Monte Carlo estimate of hitting a barrier `d_over_sigma` step-sigmas below start.

    Paths are built from unit-normal daily increments via inverse-CDF draws on
    a Philox counter stream: path i consumes the words at offsets
    [i*stride, i*stride + n_steps), so results are independent of chunking and
    of any parallel scheduling around this call. A path's hit probability is
    accumulated analytically between closes: conditional on consecutive levels
    a, c above the barrier, a continuous bridge touches it with probability
    exp(-2ac), so each path contributes 1 - prod(1 - p_step) instead of a
    raw indicator. This keeps the estimator unbiased for the first-passage
    probability of the underlying continuous walk and tightens the variance.

    The paths are filled on the calling thread in blocks of `_block_paths`
    paths, reusing three working arrays; each block writes only its own slice
    of `survival`, and the mean is taken over the whole array, so the block
    size changes no bit. Each block sets the thread's one generator to the
    block's first counter (`_philox_random`).
    """
    stride = _stride(n_steps)
    block = _block_paths(n_steps)
    rows = min(block, n_paths)
    arrays = (np.empty((rows, stride)), *np.empty((2, rows, n_steps)))
    survival = np.empty(n_paths, dtype=np.float64)
    for start in range(0, n_paths, block):
        stop = min(start + block, n_paths)
        uniforms, levels, hit = (a[: stop - start] for a in arrays)
        # a block's paths start on a whole counter block
        _philox_random(seed, start * stride // _WORDS_PER_BLOCK)(out=uniforms)
        ndtri(uniforms[:, :n_steps], out=levels)
        np.cumsum(levels, axis=1, out=levels)
        levels += d_over_sigma
        np.maximum(levels, 0.0, out=levels)
        # (-2a)c per step, a being the previous level: taken along the
        # flattened block (contiguous, so one loop, not one per path),
        # then column 0, whose previous level is d, is overwritten.
        flat, flat_hit = levels.reshape(-1), hit.reshape(-1)
        np.multiply(flat[:-1], -2.0, out=flat_hit[1:])
        np.multiply(flat_hit[1:], flat[1:], out=flat_hit[1:])
        np.multiply(-2.0 * d_over_sigma, levels[:, 0], out=hit[:, 0])
        np.exp(hit, out=hit)
        np.subtract(1.0, hit, out=hit)
        np.prod(hit, axis=1, out=survival[start:stop])
    # survival.mean()'s pairwise sum and division, without its Python wrapper
    return 1.0 - float(np.add.reduce(survival) / n_paths)


def simulate_barrier_probability(
    x0: float,
    sigma: float,
    barrier: float,
    n_steps: int,
    params: SimulationParams,
) -> float:
    """Probability that the simulated walk falls to `barrier` within `n_steps`.

    Returns exactly 1.0 when the start is already at or below the barrier and
    0.0 when the walk cannot move (zero volatility or no steps remaining).
    Deterministic for fixed (seed, n_paths, inputs). The result depends on
    x0, barrier and sigma only through the float (x0 - barrier) / sigma, so
    negating both x0 and barrier is exact; that is how ccy_per_usd questions
    are priced as up-crossings. Inputs equal only in decimal (up 0.15 from 1.0
    versus down 0.15 from 1.0) round to different distances and can differ at
    about 1e-16.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if x0 <= barrier:
        return 1.0
    if sigma == 0.0 or n_steps == 0:
        return 0.0
    return _crossing_probability(
        (x0 - barrier) / sigma, int(n_steps), params.n_paths, params.seed
    )


def analytic_barrier_probability(
    x0: float, sigma: float, barrier: float, n_steps: int
) -> float:
    """Closed-form first-passage probability for the driftless walk.

    Treats the walk as a Brownian motion with per-step variance sigma^2 and
    applies the reflection principle: 2 * Phi((barrier - x0) / (sigma sqrt(n))).
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if x0 <= barrier:
        return 1.0
    if sigma == 0.0 or n_steps == 0:
        return 0.0
    return float(2.0 * ndtr((barrier - x0) / (sigma * np.sqrt(n_steps))))


def _steps_to_close(dates, close_date: dt.date, step_mode: StepMode) -> list[int]:
    """Simulation steps left in (d, close_date] for each date d of `dates`."""
    if StepMode(step_mode) is StepMode.CALENDAR_DAYS:
        return [max(0, (close_date - d).days) for d in dates]
    begin = np.array(dates, dtype="datetime64[D]") + 1
    # busday_count is negative when begin is after the end
    return np.maximum(np.busday_count(begin, np.datetime64(close_date) + 1), 0).tolist()


def remaining_steps(date: dt.date, close_date: dt.date, step_mode: StepMode) -> int:
    """Number of simulation steps left in (date, close_date]."""
    return _steps_to_close([date], close_date, step_mode)[0]


def rolling_forecast(
    series: PriceSeries, question: Question, params: SimulationParams
) -> ForecastSeries:
    """Pseudo-out-of-sample barrier forecasts for every observed day.

    For each observed date d from the question's scoring start up to (but not
    including) its resolve date: volatility is re-estimated from data up to d,
    the remaining steps to close are counted under `params.step_mode`, and the
    crossing probability is simulated from the day-d close. Each day draws
    from a fresh substream derived from (seed, question_id, d), so a forecast
    depends only on information available on that day. The days are found by
    bisect on `series.dates`, and their steps are counted in one call.

    Days are independent, so when a day's simulation is more than one kernel
    block (`n_paths > _block_paths` at the longest day), they run on the
    shared `_POOL`; `Executor.map` keeps their order, raises the earliest
    failing day's error and cancels the days not yet started. Otherwise, or
    with one usable CPU, they run on the calling thread. No bit depends on
    which thread runs which day.
    """
    resolution = resolve(series, question)
    # the observed days among forecast_days(question, resolution)
    lo = bisect_left(series.dates, question.scoring_start)
    hi = bisect_left(series.dates, resolution.resolve_date)
    steps = _steps_to_close(series.dates[lo:hi], question.close_date, params.step_mode)
    sign = series.quote_direction.sign
    barrier = sign * barrier_rate(question, series.quote_direction)

    def forecast_day(point: tuple[dt.date, float], n_steps: int) -> tuple[dt.date, float]:
        d, rate = point
        vol = estimate_volatility(series, d)
        day_params = SimulationParams(
            seed=derive_seed(params.seed, question.question_id, d),
            n_paths=params.n_paths,
            step_mode=params.step_mode,
        )
        p = simulate_barrier_probability(sign * rate, vol.sigma_h, barrier, n_steps, day_params)
        return d, p

    pooled = _POOL is not None and params.n_paths > _block_paths(max(steps, default=0))
    days = (_POOL.map if pooled else map)(forecast_day, series.points[lo:hi], steps)
    return ForecastSeries(question.question_id, Source.RANDOM_WALK, tuple(days))
