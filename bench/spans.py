"""In-memory spans around the program's public functions, and the layer
metrics derived from them.

The tracer replaces each traced function, in every fxbarrier module that binds
it, with a wrapper that records (name, start, end, parent, thread, run id) and
a few counts read from the arguments and result. The program's source is not
touched. Spans stay in memory until the repetition ends.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

_WORDS_PER_BLOCK = 4  # Philox block size; rows of uniforms are padded to it


def _kernel_counts(args, kwargs, result):
    x0, sigma, barrier, n_steps, params = args
    if x0 <= barrier or sigma == 0.0 or n_steps == 0:
        return {}
    stride = -(-n_steps // _WORDS_PER_BLOCK) * _WORDS_PER_BLOCK
    # Arrays the kernel materialises per path: the padded uniforms, then six
    # n_steps-long float64 arrays (normals, bridge left ends, two products,
    # exp, 1 - hit). Computed from sizes; caches and temporaries reused by
    # numpy are ignored.
    return {
        "path_steps": params.n_paths * n_steps,
        "bytes": 8 * params.n_paths * (stride + 6 * n_steps),
    }


def _crowd_counts(args, kwargs, result):
    records, question, sample_dates, _ = args
    return {
        "qid": question.question_id,
        "records_ref": records,
        "dates": len(set(sample_dates)),
        "days": len(result),
    }


# (module, function, span name, counts from (args, kwargs, result))
TARGETS = [
    ("io", "ingest_price_csv", "io.ingest", lambda a, k, r: {"rows": len(r)}),
    ("domain", "resolve", "domain.resolve", None),
    ("engine", "rolling_forecast", "engine.forecast", None),
    ("engine", "estimate_volatility", "engine.volatility", lambda a, k, r: {"obs": len(a[0])}),
    ("engine", "simulate_barrier_probability", "engine.simulate", _kernel_counts),
    ("crowd", "load_crowd_csv", "crowd.load", lambda a, k, r: {"records": len(r)}),
    ("crowd", "crowd_series", "crowd.series", _crowd_counts),
    ("scoring", "score_series", "scoring.score", lambda a, k, r: {"points": len(r)}),
    ("scoring", "mean_score_curve", "scoring.mean_curve", None),
    ("calibration", "align_series", "calibration.align", lambda a, k, r: {"samples": len(r)}),
    ("calibration", "ols_fit", "calibration.ols", None),
    ("pipeline", "load_config", "pipeline.load_config", None),
    ("pipeline", "run_pipeline", "pipeline.run", None),
    ("pipeline", "_run_question", "pipeline.question", None),
    (
        "pipeline",
        "emit_report",
        "pipeline.emit",
        lambda a, k, r: {"files": len(r), "bytes": sum(p.stat().st_size for p in r)},
    ),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """Records spans for one repetition (`run_id`)."""

    def __init__(self, run_id: int, track_alloc: bool = False):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.peak_alloc = 0
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._track_alloc = track_alloc

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # A pool thread's first span belongs to whatever the main thread is in.
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            alloc0 = None
            if self._track_alloc and name == "engine.simulate":
                alloc0 = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if alloc0 is not None:
                self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1] - alloc0)
            extra = counts(args, kwargs, result) if counts else {}
            self.spans.append(
                {
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "thread": threading.get_ident(),
                    "run": self.run_id,
                    **extra,
                }
            )
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in each loaded fxbarrier module that binds it."""
        modules = [m for n, m in sys.modules.items() if n == "fxbarrier" or n.startswith("fxbarrier.")]
        for mod_name, fn_name, span_name, counts in TARGETS:
            owner = sys.modules.get(f"fxbarrier.{mod_name}")
            if owner is None:
                continue
            original = getattr(owner, fn_name)
            wrapper = self.wrap(span_name, original, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def export(self) -> list[dict]:
        """Spans as JSON-ready dicts; crowd record lists become per-question counts."""
        per_q = None
        out = []
        for s in self.spans:
            s = dict(s)
            records = s.pop("records_ref", None)
            if records is not None:
                if per_q is None:
                    per_q = Counter(r.question_id for r in records)
                s["relevant"] = per_q[s["qid"]]
            out.append(s)
        return out


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[dict], workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (peak alloc and overhead excluded)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def busy(name):
        return math.fsum(s["end"] - s["start"] for s in by_name[name])

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    def self_time(name):
        out = 0.0
        for s in by_name[name]:
            kids = [(max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]]
            out += (s["end"] - s["start"]) - _union([k for k in kids if k[1] > k[0]])
        return out

    simulate_s = busy("engine.simulate")
    path_steps = total("engine.simulate", "path_steps")
    dates = total("crowd.series", "dates")
    run_wall = busy("pipeline.run")
    question_busy = busy("pipeline.question")
    return {
        "engine.simulate_s": simulate_s,
        "engine.simulate_calls": len(by_name["engine.simulate"]),
        "engine.path_steps": path_steps,
        "engine.path_steps_per_s": path_steps / simulate_s if simulate_s else 0.0,
        "engine.bytes_computed": total("engine.simulate", "bytes"),
        "engine.volatility_s": busy("engine.volatility"),
        "engine.volatility_obs": total("engine.volatility", "obs"),
        "engine.forecast_self_s": self_time("engine.forecast"),
        "crowd.series_s": busy("crowd.series"),
        "crowd.record_scans": sum(s["relevant"] * s["dates"] for s in by_name["crowd.series"]),
        "crowd.days": total("crowd.series", "days"),
        "crowd.useful_ratio": total("crowd.series", "days") / dates if dates else 0.0,
        "crowd.load_s": busy("crowd.load"),
        "crowd.records": total("crowd.load", "records"),
        "io.ingest_s": busy("io.ingest"),
        "io.rows": total("io.ingest", "rows"),
        "domain.resolve_s": busy("domain.resolve"),
        "domain.resolve_calls": len(by_name["domain.resolve"]),
        "scoring.score_s": busy("scoring.score"),
        "scoring.mean_curve_s": busy("scoring.mean_curve"),
        "scoring.points": total("scoring.score", "points"),
        "calibration.align_s": busy("calibration.align"),
        "calibration.ols_s": busy("calibration.ols"),
        "calibration.samples": total("calibration.align", "samples"),
        "pipeline.load_config_s": busy("pipeline.load_config"),
        "pipeline.emit_s": busy("pipeline.emit"),
        "pipeline.emit_bytes": total("pipeline.emit", "bytes"),
        "pipeline.files": total("pipeline.emit", "files"),
        "pipeline.parallel_eff": question_busy / (workers * run_wall) if run_wall else 0.0,
        "pipeline.idle_s": workers * run_wall - question_busy if run_wall else 0.0,
        "cli.main_s": busy("cli.main"),
        "cli.self_s": self_time("cli.main"),
    }
