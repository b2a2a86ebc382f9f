"""Independent checks of the program's answers.

Nothing here imports the program. The random-walk reference is the closed-form
first passage 2*Phi(-d / (sigma * sqrt(n))) of a driftless Brownian walk, for
which the program's bridge-corrected Monte Carlo estimator is unbiased (Broadie,
Glasserman & Kou, Math. Finance 1997). sigma and n are rebuilt here from the
same generated history: the n-1 sample deviation of daily first differences up
to the forecast day, and the weekdays left until close. The crowd reference is
a brute-force recency-weighted median of each forecaster's latest submission.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from gen import CROWD_LEAD_DAYS, USD_PER_CCY, Pair, PlannedQuestion, Workload

# Each path contributes a value in [0, 1] with mean p, so its variance is at
# most p(1-p). Bernstein's inequality then bounds |estimate - p| for n paths
# by (L/3 + sqrt(L^2/9 + 2 n p(1-p) L)) / n, except with probability
# 2 exp(-L). L = 23.7 makes that 1e-10 per forecast-day.
BERNSTEIN_L = 23.7
RECENCY_SHAPE = 1.0  # the program's default consensus setting
CROWD_SAMPLE = 40  # crowd days per repetition re-derived by brute force


@dataclass
class Check:
    """Operation counts and closed-form errors for one repetition's output."""

    attempted: int = 0
    failed: int = 0
    sq_errors: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 5:
            self.notes.append(note)


def closed_form(x0: float, sigma: float, barrier: float, n: int) -> float:
    """Probability that a driftless walk from x0 falls to `barrier` within n steps."""
    if x0 <= barrier:
        return 1.0
    if sigma == 0.0 or n == 0:
        return 0.0
    return math.erfc((x0 - barrier) / (sigma * math.sqrt(n)) / math.sqrt(2.0))


def bernstein_tolerance(p: float, n_paths: int) -> float:
    L = BERNSTEIN_L
    return (L / 3.0 + math.sqrt(L * L / 9.0 + 2.0 * n_paths * p * (1.0 - p) * L)) / n_paths


def weekdays_after(a: dt.date, b: dt.date) -> int:
    """Number of weekdays in (a, b]."""
    weeks, rest = divmod((b - a).days, 7)
    return 5 * weeks + sum((a.weekday() + k) % 7 < 5 for k in range(1, rest + 1))


class Sigmas:
    """sigma_h on each day of one pair, from running sums of first differences."""

    def __init__(self, rates: list[float]):
        self.s1, self.s2 = [0.0], [0.0]
        for prev, cur in zip(rates, rates[1:]):
            d = cur - prev
            self.s1.append(self.s1[-1] + d)
            self.s2.append(self.s2[-1] + d * d)

    def at(self, idx: int) -> float:
        m = idx  # differences among rates[0..idx]
        var = (self.s2[m] - self.s1[m] ** 2 / m) / (m - 1)
        return math.sqrt(max(var, 0.0))


def _expected_rw(w: Workload, q: PlannedQuestion, sigmas: Sigmas, n_paths: int):
    """(date, closed form, tolerance) for each day the program should forecast."""
    pair: Pair = w.pairs[q.pair_id]
    base = pair.rates[q.open_idx]
    close = pair.dates[q.close_idx]
    sign = 1.0 if pair.direction == USD_PER_CCY else -1.0
    barrier = base * (1.0 - q.threshold) if sign > 0 else base / (1.0 - q.threshold)
    out = []
    for i in range(q.open_idx, q.resolve_idx):
        d = pair.dates[i]
        p = closed_form(
            sign * pair.rates[i], sigmas.at(i), sign * barrier, weekdays_after(d, close)
        )
        tol = bernstein_tolerance(p, n_paths) + 1e-6  # plus the six-decimal rounding
        out.append((d.isoformat(), p, tol))
    return out


def _read_series(path: Path) -> list[tuple[str, str]] | None:
    if not path.exists():
        return None
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [(r[0], r[1]) for r in rows[1:] if len(r) == 2]


def check_rw(check: Check, rows, expected, label: str) -> None:
    """Compare emitted `date,p` rows with the closed form, day by day."""
    check.attempted += len(expected)
    got = dict(rows or [])
    for date, p_ref, tol in expected:
        if date not in got:
            check.fail(1, f"{label}: no random-walk forecast on {date}")
            continue
        try:
            err = float(got[date]) - p_ref
        except ValueError:
            err = math.inf
        if math.isfinite(err):
            check.sq_errors.append(err * err)
        if not abs(err) <= tol:
            check.fail(1, f"{label} {date}: {got[date]} vs closed form {p_ref:.6f}")
    extra = len(set(got) - {d for d, _, _ in expected})
    if extra:
        check.fail(extra, f"{label}: {extra} forecasts outside [open, resolve)")


def weighted_median(records, cutoff: dt.datetime) -> float:
    """Recency-weighted median of each forecaster's latest submission at `cutoff`.

    `records` are in the loader's order. Ranks run from the oldest latest
    submission (1) to the newest, weights are exp(shape * sqrt(rank)), and the
    answer is the smallest probability whose cumulative weight reaches half.
    """
    latest = {}
    for fid, at, p in records:
        if at <= cutoff:
            latest[fid] = (at, p)
    ranked = sorted(latest.items(), key=lambda kv: (kv[1][0], kv[0]))
    weights = [(p, math.exp(RECENCY_SHAPE * math.sqrt(k))) for k, (_, (_, p)) in enumerate(ranked, 1)]
    total = math.fsum(wt for _, wt in weights)
    for v in sorted({p for p, _ in weights}):
        if math.fsum(wt for p, wt in weights if p <= v) >= total / 2.0:
            return v
    raise AssertionError("unreachable: the largest value carries all the weight")


def check_pipeline(w: Workload, out_dir: Path, rep: int, n_paths: int, sigmas) -> Check:
    """Check one repetition's report directory against the generated plan."""
    check = Check()
    resolutions = {}
    path = out_dir / "resolutions.csv"
    if path.exists():
        with path.open(newline="", encoding="utf-8") as fh:
            resolutions = {r["question_id"]: r for r in csv.DictReader(fh)}
    crowd_days = []
    for q in w.questions:
        pair = w.pairs[q.pair_id]
        check.attempted += 1
        row = resolutions.get(q.question_id)
        want = (str(q.outcome), pair.dates[q.resolve_idx].isoformat(), "")
        if row is None or (row["outcome"], row["resolve_date"], row["error"]) != want:
            check.fail(1, f"{q.question_id}: resolution {row} != {want}")
        if not q.non_floating:
            rows = _read_series(out_dir / f"forecast_{q.question_id}_random_walk.csv")
            check_rw(check, rows, _expected_rw(w, q, sigmas[q.pair_id], n_paths), q.question_id)

        # Days before the first submission have no consensus and are skipped.
        first, stop = pair.dates[q.open_idx] + dt.timedelta(days=CROWD_LEAD_DAYS), pair.dates[q.resolve_idx]
        dates = [(first + dt.timedelta(days=k)).isoformat() for k in range((stop - first).days)]
        got = dict(_read_series(out_dir / f"forecast_{q.question_id}_crowd.csv") or [])
        check.attempted += len(dates)
        missing = sum(d not in got for d in dates)
        if missing:
            check.fail(missing, f"{q.question_id}: {missing} crowd days missing")
        extra = len(set(got) - set(dates))
        if extra:
            check.fail(extra, f"{q.question_id}: {extra} crowd days before the first submission or after resolve")
        crowd_days += [(q, d, got[d]) for d in dates if d in got]

    sample = random.Random(f"{w.seed}:{rep}").sample(crowd_days, min(CROWD_SAMPLE, len(crowd_days)))
    for q, d, p in sample:
        cutoff = dt.datetime.combine(
            dt.date.fromisoformat(d), dt.time.max, tzinfo=dt.timezone.utc
        )
        want = f"{weighted_median(q.records, cutoff):.6f}"
        if p != want:
            check.fail(1, f"{q.question_id} {d}: crowd {p} vs brute force {want}")
    return check


def check_cli(w: Workload, stdout_path: Path, rep: int, n_paths: int, sigmas) -> Check:
    """Check one `fxbarrier forecast` repetition's stdout."""
    check = Check()
    q = w.questions[rep % len(w.questions)]
    rows = _read_series(stdout_path)
    check.attempted += 1
    if rows is None:
        check.fail(1, f"{q.question_id}: no output")
    check_rw(check, rows, _expected_rw(w, q, sigmas[q.pair_id], n_paths), q.question_id)
    return check


def sigmas_for(w: Workload) -> dict[str, Sigmas]:
    return {pid: Sigmas(pair.rates) for pid, pair in w.pairs.items()}
