"""Seeded synthetic inputs for the benchmark workloads.

Everything the program reads is generated here from the workload seed with
the standard-library Mersenne Twister, so one seed gives the same bytes on any
numpy version. The work in one repetition (questions, forecast-days, steps,
crowd records per question) is fixed by the workload shape; the seed moves
only the values. Each question's outcome is built into its price path: an
"early" question gets its first barrier touch forced onto a chosen day and a
"close" question gets a barrier just beyond the worst depreciation in its
window. The resolve date, and with it the number of forecast-days, is
therefore known before the program runs, and the checker can compare it.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

ONE_DAY = dt.timedelta(days=1)
FIRST_DAY = dt.date(2010, 1, 4)  # a Monday
WEEKDAYS_PER_YEAR = 261
HISTORY_DAYS = 2 * WEEKDAYS_PER_YEAR  # price history before the first question
EARLY_FRACTION = 0.6  # an early question resolves this far into its horizon
CROWD_LEAD_DAYS = 2  # days after open before the first crowd submission
PROGRAM_SEEDS = 64  # program seeds per workload, one per repetition, cycled

# Sizes chosen so one repetition takes about 1.5 seconds on a 2-core box; the
# comments name the layer each size drives.
SHAPES = {
    "batch_mc": {
        "kind": "pipeline",
        "pairs": 6,
        "years": 4,
        "questions": 12,  # against workers=2, so question-level threads matter
        "horizon": 25,  # trading days; sets kernel steps per forecast-day
        "n_paths": None,  # the program's default (10,000)
        "workers": 2,
        "forecasters": 10,
        "submissions": 4,  # 480 crowd records in all
        "peg": False,
    },
    "crowd_heavy": {
        "kind": "pipeline",
        "pairs": 8,
        "years": 10,  # long history: volatility re-estimation is O(history)
        "questions": 24,
        "horizon": 60,
        "n_paths": 100,  # kernel cost is almost all fixed cost per call
        "workers": 1,
        "forecasters": 50,
        "submissions": 15,  # 750 records per question for crowd_series
        "peg": True,  # one non-floating question feeds the crowd-only curve
    },
    "single_question": {
        "kind": "cli",
        "pairs": 1,
        "years": 10,
        "questions": 32,  # one per repetition, cycled; each runs to close
        "horizon": 60,
        "n_paths": None,
        "workers": 1,
        "forecasters": 0,
        "submissions": 0,
        "peg": False,
    },
}

USD_PER_CCY = "usd_per_ccy"
CCY_PER_USD = "ccy_per_usd"


@dataclass
class Pair:
    pair_id: str
    direction: str
    dates: list[dt.date]
    rates: list[float]  # already rounded to the six decimals written to disk
    path: Path | None = None


@dataclass
class PlannedQuestion:
    question_id: str
    pair_id: str
    open_idx: int
    close_idx: int
    resolve_idx: int  # index of the first touch, or close_idx
    threshold: float
    outcome: int
    non_floating: bool = False
    records: list[tuple[str, dt.datetime, float]] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    shape: dict
    seed: int
    program_seeds: list[int]  # one per repetition
    pairs: dict[str, Pair]
    questions: list[PlannedQuestion]
    config_path: Path | None = None


def _weekdays(start: dt.date, count: int) -> list[dt.date]:
    out, d = [], start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += ONE_DAY
    return out


def _dep(rate: float, baseline: float, direction: str) -> float:
    """Relative depreciation of the currency against its baseline."""
    if direction == USD_PER_CCY:
        return 1.0 - rate / baseline
    return 1.0 - baseline / rate


def _rate_for_dep(dep: float, baseline: float, direction: str) -> float:
    if direction == USD_PER_CCY:
        return baseline * (1.0 - dep)
    return baseline / (1.0 - dep)


def _walk(rng: random.Random, n: int, level: float, vol: float) -> list[float]:
    rates = [level]
    for _ in range(n - 1):
        rates.append(rates[-1] * math.exp(vol * rng.gauss(0.0, 1.0)))
    return rates


def _round(x: float) -> float:
    return float(f"{x:.6f}")


def _windows(n: int, count: int, horizon: int) -> list[tuple[int, int]]:
    """`count` disjoint (open, close) index windows spread after the history."""
    lo, hi = HISTORY_DAYS, n - 5
    step = (hi - lo - horizon) // count
    if step <= horizon:
        raise ValueError("series too short for its questions")
    return [(lo + k * step, lo + k * step + horizon) for k in range(count)]


def _worst(rates: list[float], lo: int, hi: int, direction: str) -> float:
    """Largest depreciation (at least 0) over rates[lo:hi] against rates[lo - 1]."""
    base = rates[lo - 1]
    return max(0.0, max(_dep(r, base, direction) for r in rates[lo:hi]))


def _touch_index(o: int, c: int) -> int:
    return o + round(EARLY_FRACTION * (c - o))


def _make_pair(rng, pair_id, direction, n, windows, early, peg=False):
    """A price path with each window's outcome built in.

    `early[k]` says whether window k resolves at EARLY_FRACTION of its horizon.
    The forced touch multiplies the rest of the path by one factor, so the
    later windows, which are disjoint and come after, keep their own shape.
    """
    if peg:
        level, vol = 3.75, 5e-5
    elif direction == USD_PER_CCY:
        level, vol = rng.uniform(0.5, 1.5), rng.uniform(0.003, 0.008)
    else:
        level, vol = rng.uniform(5.0, 150.0), rng.uniform(0.003, 0.008)
    rates = _walk(rng, n, level, vol)
    for (o, c), is_early in zip(windows, early):
        if not is_early:
            continue
        j = _touch_index(o, c)
        want = _worst(rates, o + 1, j, direction) + 2.0 * vol
        if _dep(rates[j], rates[o], direction) < want:
            factor = _rate_for_dep(want, rates[o], direction) / rates[j]
            rates[j:] = [r * factor for r in rates[j:]]
    return Pair(pair_id, direction, _weekdays(FIRST_DAY, n), [_round(r) for r in rates]), vol


def _plan(pair: Pair, qid: str, o: int, c: int, is_early: bool, vol: float, non_floating=False):
    rates, direction = pair.rates, pair.direction
    if is_early:
        j = _touch_index(o, c)
        worst = _worst(rates, o + 1, j, direction)
        touch = _dep(rates[j], rates[o], direction)
        if not touch > worst + 0.5 * vol:
            raise AssertionError(f"{qid}: forced touch lost in rounding")
        return PlannedQuestion(qid, pair.pair_id, o, c, j, (worst + touch) / 2.0, 1)
    threshold = 0.15 if non_floating else _worst(rates, o + 1, c + 1, direction) + vol
    return PlannedQuestion(qid, pair.pair_id, o, c, c, threshold, 0, non_floating)


def _crowd(rng: random.Random, q: PlannedQuestion, pair: Pair, forecasters: int, submissions: int):
    """Submissions spread over [open + CROWD_LEAD_DAYS, resolve).

    Forecaster 0 submits within the first hour of that window, so the crowd
    series skips exactly the first CROWD_LEAD_DAYS days of every question.
    """
    start = dt.datetime.combine(pair.dates[q.open_idx], dt.time(), tzinfo=dt.timezone.utc)
    resolve = dt.datetime.combine(pair.dates[q.resolve_idx], dt.time(), tzinfo=dt.timezone.utc)
    lead = CROWD_LEAD_DAYS * 86_400
    offsets = rng.sample(range(lead, int((resolve - start).total_seconds())), forecasters * submissions)
    offsets[0] = lead + rng.randrange(3600)
    while offsets.count(offsets[0]) > 1:
        offsets[0] = lead + rng.randrange(3600)
    centre = rng.uniform(0.05, 0.95)
    for i, off in enumerate(offsets):
        fid = f"f{i % forecasters:03d}"
        p = min(max(centre + rng.gauss(0.0, 0.15), 0.001), 0.999)
        q.records.append((fid, start + dt.timedelta(seconds=off), float(f"{p:.3f}")))


def generate(name: str, seed: int, out: Path) -> Workload:
    """Build workload `name` from `seed` and write its files under `out`."""
    shape = SHAPES[name]
    rng = random.Random(f"{name}:{seed}")
    n = shape["years"] * WEEKDAYS_PER_YEAR
    horizon = shape["horizon"]
    n_q = shape["questions"]
    pairs: dict[str, Pair] = {}
    questions: list[PlannedQuestion] = []

    if shape["kind"] == "cli":
        direction = USD_PER_CCY if seed % 2 == 0 else CCY_PER_USD
        windows = _windows(n, n_q, horizon)
        pair, vol = _make_pair(rng, "SQUSD", direction, n, windows, [False] * n_q)
        pairs[pair.pair_id] = pair
        for k, (o, c) in enumerate(windows):
            questions.append(_plan(pair, f"sq-{k:02d}", o, c, False, vol))
    else:
        for p in range(shape["pairs"]):
            qidx = range(p, n_q, shape["pairs"])
            direction = USD_PER_CCY if p % 2 == 0 else CCY_PER_USD
            windows = _windows(n, len(qidx), horizon)
            # Alternate outcomes along each pair and across pairs, so both quote
            # directions get early and close questions.
            early = [(k + k // shape["pairs"]) % 2 == 0 for k in qidx]
            pair, vol = _make_pair(rng, f"P{p:02d}USD", direction, n, windows, early)
            pairs[pair.pair_id] = pair
            for k, (o, c), is_early in zip(qidx, windows, early):
                questions.append(_plan(pair, f"q{k:03d}", o, c, is_early, vol))
        if shape["peg"]:
            (o, c), = _windows(n, 1, horizon)
            pair, vol = _make_pair(rng, "PEGUSD", CCY_PER_USD, n, [(o, c)], [False], peg=True)
            pairs[pair.pair_id] = pair
            questions.append(_plan(pair, "peg", o, c, False, vol, non_floating=True))
        for q in questions:
            _crowd(rng, q, pairs[q.pair_id], shape["forecasters"], shape["submissions"])

    workload = Workload(
        name=name,
        shape=shape,
        seed=seed,
        program_seeds=[rng.getrandbits(62) for _ in range(PROGRAM_SEEDS)],
        pairs=pairs,
        questions=questions,
    )
    _write(workload, rng, out)
    return workload


def _write(w: Workload, rng: random.Random, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for pair in w.pairs.values():
        pair.path = out / f"{pair.pair_id.lower()}.csv"
        rows = "".join(f"{d.isoformat()},{r:.6f}\n" for d, r in zip(pair.dates, pair.rates))
        pair.path.write_text("date,rate\n" + rows, encoding="utf-8")
    if w.shape["kind"] == "cli":
        return

    rows = [
        f"{q.question_id},{fid},{at.strftime('%Y-%m-%dT%H:%M:%SZ')},{p:.3f}\n"
        for q in w.questions
        for fid, at, p in q.records
    ]
    rng.shuffle(rows)
    crowd_path = out / "crowd.csv"
    crowd_path.write_text(
        "question_id,forecaster_id,timestamp_rfc3339,probability\n" + "".join(rows),
        encoding="utf-8",
    )
    # Timestamps are unique within a question, so the loader's stable sort by
    # time puts each question's records in this order whatever the file order.
    for q in w.questions:
        q.records.sort(key=lambda r: r[1])

    config = {
        "seed": w.program_seeds[0],
        "workers": w.shape["workers"],
        "crowd_file": crowd_path.name,
        "price_files": [
            {"pair_id": p.pair_id, "path": p.path.name, "quote_direction": p.direction}
            for p in w.pairs.values()
        ],
        "questions": [],
    }
    if w.shape["n_paths"] is not None:
        config["n_paths"] = w.shape["n_paths"]
    for q in w.questions:
        dates = w.pairs[q.pair_id].dates
        entry = {
            "question_id": q.question_id,
            "pair_id": q.pair_id,
            "open_date": dates[q.open_idx].isoformat(),
            "close_date": dates[q.close_idx].isoformat(),
            "threshold_kind": "relative_depreciation",
            "threshold_value": q.threshold,
        }
        if q.non_floating:
            entry["non_floating"] = True
        config["questions"].append(entry)
    w.config_path = out / "config.json"
    w.config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")


def cli_argv(w: Workload, rep: int) -> list[str]:
    """`fxbarrier forecast` arguments for repetition `rep` of a cli workload."""
    q = w.questions[rep % len(w.questions)]
    pair = w.pairs[q.pair_id]
    return [
        "forecast",
        "--prices", str(pair.path),
        "--pair-id", pair.pair_id,
        "--quote-direction", pair.direction,
        "--question-id", q.question_id,
        "--open", pair.dates[q.open_idx].isoformat(),
        "--close", pair.dates[q.close_idx].isoformat(),
        "--threshold-value", repr(q.threshold),
        "--seed", str(w.program_seeds[rep % len(w.program_seeds)]),
    ]
