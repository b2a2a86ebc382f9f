"""OLS calibration of random-walk predictions on crowd predictions.

Fits x = beta0 + beta1 * crowd by least squares over daily paired samples
pooled across questions, with classical standard errors and t tests against
the unbiasedness null (intercept 0, slope 1).

The two-sided Student-t p-value is the regularized incomplete beta
I_x(df/2, 1/2) at x = df / (df + t^2), computed here from the standard
library: a continued fraction (modified Lentz) on whichever side of the
symmetry I_x(a, b) = 1 - I_(1-x)(b, a) converges fast, with 1 - x taken as
t^2 / (df + t^2) rather than by subtraction, and log B(df/2, 1/2) from
`math.lgamma` or, past df = 40, its asymptotic series.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Iterable

from .domain import ForecastSeries


@dataclass(frozen=True)
class PairedSample:
    """One (question, date) pair of random-walk and crowd probabilities."""

    question_id: str
    date: dt.date
    x: float
    crowd: float

    def __post_init__(self) -> None:
        for name in ("x", "crowd"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} value {v} outside [0, 1]")


@dataclass(frozen=True)
class RegressionResult:
    """Simple-regression estimates with classical errors and null-based t tests.

    t statistics are computed against the declared nulls: t_i = (beta_i -
    null_i) / se_i. On a perfect noiseless fit the standard errors collapse to
    zero and t is reported as signed infinity (zero when the estimate equals
    its null), with the corresponding p-value 0 (or 1).
    """

    beta0: float
    beta1: float
    se0: float
    se1: float
    t0: float
    t1: float
    p0: float
    p1: float
    r_squared: float
    n: int
    null0: float
    null1: float
    residuals: tuple[float, ...]


def align_series(
    rw: Iterable[ForecastSeries], crowd: Iterable[ForecastSeries]
) -> list[PairedSample]:
    """Inner-join two forecast sets on (question_id, date), pooled across questions."""
    rw_by_q: dict[str, ForecastSeries] = {}
    for s in rw:
        if s.question_id in rw_by_q:
            raise ValueError(f"duplicate random-walk series for {s.question_id!r}")
        rw_by_q[s.question_id] = s
    crowd_by_q: dict[str, ForecastSeries] = {}
    for s in crowd:
        if s.question_id in crowd_by_q:
            raise ValueError(f"duplicate crowd series for {s.question_id!r}")
        crowd_by_q[s.question_id] = s
    samples = []
    for qid in sorted(set(rw_by_q) & set(crowd_by_q)):
        crowd_map = dict(crowd_by_q[qid].points)
        for d, x in rw_by_q[qid].points:
            if d in crowd_map:
                samples.append(PairedSample(qid, d, x, crowd_map[d]))
    if not samples:
        raise ValueError("no overlapping (question, date) pairs to align")
    return samples


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2); past a = 20 lgamma's difference cancels, so use the series.

    At a = 5e5 (df = 10^6) the lgamma difference is 7e-10 off, and the
    p-value 1.6e-9 relative; the series is within 1e-15.
    """
    if a < 20.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    # log(Gamma(a + 1/2) / Gamma(a)) = 1/2 log a - 1/(8a) + 1/(192a^3) - ...
    r = 1.0 / (a * a)
    series = 0.5 * math.log(a) - (1 / 8 - r * (1 / 192 - r * (1 / 640 - r * 17 / 14336))) / a
    return 0.5 * math.log(math.pi) - series


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300

    def clamp(v: float) -> float:
        return v if abs(v) >= tiny else tiny

    c = 1.0
    d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / clamp(1.0 + num * d)
            c = clamp(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t on df degrees of freedom."""
    t2 = t * t
    x, q = df / (df + t2), t2 / (df + t2)
    if x == 0.0:
        return 0.0
    if q == 0.0:
        return 1.0
    a, b = 0.5 * df, 0.5
    log_x = math.log(x) if x < 0.5 else math.log1p(-q)
    front = math.exp(a * log_x + b * math.log(q) - _log_beta_half(a))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, q) / b


def t_test(estimate: float, se: float, null: float, df: int) -> tuple[float, float]:
    """t statistic against a null value and its two-sided Student-t p-value."""
    for name, v in (("estimate", estimate), ("se", se), ("null", null), ("df", df)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    if se <= 0:
        raise ValueError("standard error must be positive")
    if df < 1:
        raise ValueError("degrees of freedom must be at least 1")
    t = (estimate - null) / se
    return t, _t_two_sided_p(t, df)


def _degenerate_t(estimate: float, null: float) -> tuple[float, float]:
    if estimate == null:
        return 0.0, 1.0
    return math.copysign(math.inf, estimate - null), 0.0


def ols_fit(
    samples: Iterable[PairedSample], null0: float = 0.0, null1: float = 1.0
) -> RegressionResult:
    """Least-squares fit of x on crowd with classical (homoskedastic) errors.

    Coefficients come from the centered closed form, standard errors from the
    usual residual-variance expressions with n-2 degrees of freedom, and
    p-values from the two-sided Student-t distribution. The pooled daily panel
    is serially correlated, so these errors are descriptive. A non-finite
    null is a ValueError, whether or not the fit is noiseless.
    """
    for name, null in (("null0", null0), ("null1", null1)):
        if not math.isfinite(null):
            raise ValueError(f"{name} must be finite, got {null!r}")
    data = list(samples)
    n = len(data)
    if n < 3:
        raise ValueError(f"need at least 3 samples, have {n}")
    z = [s.crowd for s in data]
    y = [s.x for s in data]
    z_bar = math.fsum(z) / n
    y_bar = math.fsum(y) / n
    szz = math.fsum((c - z_bar) ** 2 for c in z)
    if szz == 0.0:
        raise ValueError("singular design: crowd values are all identical")
    szy = math.fsum((c - z_bar) * (x - y_bar) for c, x in zip(z, y))
    beta1 = szy / szz
    beta0 = y_bar - beta1 * z_bar
    resid = tuple(x - beta0 - beta1 * c for c, x in zip(z, y))
    sse = math.fsum(r * r for r in resid)
    syy = math.fsum((x - y_bar) ** 2 for x in y)
    s2 = sse / (n - 2)
    se1 = math.sqrt(s2 / szz)
    se0 = math.sqrt(s2 * (1.0 / n + z_bar**2 / szz))
    if se0 > 0 and se1 > 0:
        t0, p0 = t_test(beta0, se0, null0, n - 2)
        t1, p1 = t_test(beta1, se1, null1, n - 2)
    else:
        t0, p0 = _degenerate_t(beta0, null0)
        t1, p1 = _degenerate_t(beta1, null1)
    r_squared = 1.0 if syy == 0.0 else 1.0 - sse / syy
    r_squared = min(max(r_squared, 0.0), 1.0)
    return RegressionResult(
        beta0=beta0,
        beta1=beta1,
        se0=se0,
        se1=se1,
        t0=t0,
        t1=t1,
        p0=p0,
        p1=p1,
        r_squared=r_squared,
        n=n,
        null0=null0,
        null1=null1,
        residuals=resid,
    )
