"""The fxbarrier benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (bench/gen.py), checks the
frozen golden run byte for byte at workers=1 and workers=2, then runs
repetitions back to back (a closed loop, one client) for S seconds. Each
repetition is a fresh interpreter (bench/child.py) driving the program's
public API; its outputs are checked against independent references
(bench/oracle.py). With --trace 0 every repetition is untraced and the last
line of stdout carries the end-to-end metrics. With --trace 1 untraced and
traced repetitions alternate, one more repetition measures allocation under
tracemalloc, and the last line carries the per-layer metrics
(bench/spans.py). Every per-repetition value is summarised by its trimmed mean
(see `trimmed_mean`). Metric names and units come from BENCHMARK.json; which
end-to-end metric each layer metric should move is in bench/interactions.json.

An operation is a question, a random-walk forecast-day, a crowd forecast-day
or one golden comparison; it fails if the program errors on it or its answer
fails a check. `failed / attempted` is the run's failure ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import gen
import oracle
import spans

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden_run"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150
MAX_MEASURE_S = 120  # keeps a whole invocation inside three minutes
MIN_SAMPLES = 3  # untraced repetitions, and traced ones with --trace 1
TRIM = 0.1  # share of repetitions dropped from each end before averaging


def _run_child(spec: dict, spec_path: Path) -> str | None:
    """Run one child process; return an error message or None."""
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return None


def golden_gate(work: Path) -> oracle.Check:
    """Byte-compare the golden run at workers=1 and workers=2 with the frozen files."""
    check = oracle.Check()
    outs = {str(n): work / "golden" / f"workers{n}" for n in (1, 2)}
    spec = {
        "src": str(SRC),
        "mode": "plain",
        "kind": "golden",
        "config": str(GOLDEN / "config.json"),
        "outs": {k: str(v) for k, v in outs.items()},
    }
    error = _run_child(spec, work / "golden.json")
    expected = {p.name: p.read_bytes() for p in (GOLDEN / "expected").iterdir()}
    for workers, out in outs.items():
        check.attempted += 1
        got = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
        if error or got != expected:
            differ = sorted(n for n in set(got) | set(expected) if got.get(n) != expected.get(n))
            check.fail(1, f"golden workers={workers}: {error or 'differs in ' + ', '.join(differ)}")
    return check


def _schedule(trace: bool, plain: int, traced: int, elapsed: float, seconds: int) -> str | None:
    """Mode of the next repetition, or None when measuring is over."""
    if elapsed >= MAX_MEASURE_S:
        return None
    if elapsed >= seconds and plain >= MIN_SAMPLES and (not trace or traced >= MIN_SAMPLES):
        return None
    if trace and traced < plain:
        return "trace"
    return "plain"


def trimmed_mean(values) -> float:
    """Mean of the values left after dropping the lowest and highest TRIM of them.

    On a shared host one repetition's time tends to fall near one of a few
    levels, far apart, as neighbours come and go. The sample median jumps
    between levels from run to run; a mean of the middle values moves smoothly
    with the share of slow repetitions, and the trim drops single stalls.
    """
    values = sorted(values)
    k = int(len(values) * TRIM)
    return statistics.fmean(values[k : len(values) - k])


def _stats(values: list[float]) -> dict:
    out = {
        "n": len(values),
        "trimmed_mean": trimmed_mean(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "values": values,
    }
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def machine_info(seed: int) -> dict:
    def read(path: Path) -> str | None:
        try:
            return path.read_text().strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fxbarrier").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    mapped = json.loads((BENCH / "interactions.json").read_text(encoding="utf-8"))["per_layer"]
    unmapped = {m["name"] for m in declared["per_layer"]} - set(mapped)
    if unmapped:
        raise SystemExit(f"bench/interactions.json lacks {sorted(unmapped)}")
    if not (SRC / "fxbarrier" / "__init__.py").is_file() or not (GOLDEN / "expected").is_dir():
        print(f"error: {ROOT} holds no fxbarrier source or golden run", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t_setup = time.perf_counter()
    w = gen.generate(args.workload, args.seed, work / "inputs")
    sigmas = oracle.sigmas_for(w)
    gen_s = time.perf_counter() - t_setup
    total = golden_gate(work)
    shape = w.shape
    n_paths = shape["n_paths"] or 10_000

    samples: dict[str, dict[str, list[float]]] = {"plain": {}, "trace": {}}
    layer_runs: list[dict] = []
    all_spans: list[dict] = []
    peak_alloc_mb = None
    counts = {"plain": 0, "trace": 0}
    start = time.perf_counter()
    rep = 0
    while True:
        mode = _schedule(bool(args.trace), counts["plain"], counts["trace"], time.perf_counter() - start, args.seconds)
        if mode is None:
            if args.trace and peak_alloc_mb is None:
                mode = "alloc"
            else:
                break
        rep_dir = work / f"rep{rep}"
        rep_dir.mkdir()
        out = rep_dir / ("stdout.csv" if shape["kind"] == "cli" else "out")
        spec = {
            "src": str(SRC),
            "mode": mode,
            "run_id": rep,
            "kind": shape["kind"],
            "out": str(out),
            "result": str(rep_dir / "result.json"),
        }
        if shape["kind"] == "cli":
            spec["argv"] = gen.cli_argv(w, rep)
        else:
            spec["config"] = str(w.config_path)
            spec["program_seed"] = w.program_seeds[rep % len(w.program_seeds)]
        error = _run_child(spec, rep_dir / "spec.json")

        if shape["kind"] == "cli":
            check = oracle.check_cli(w, out, rep, n_paths, sigmas)
        else:
            check = oracle.check_pipeline(w, out, rep, n_paths, sigmas)
        if error:
            check.notes.insert(0, f"repetition {rep}: {error}")
        total.attempted += check.attempted
        total.failed += check.failed
        total.sq_errors += check.sq_errors
        total.notes += check.notes

        if not error:
            result = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
            if mode == "alloc":
                peak_alloc_mb = result["peak_alloc_mb"]
            else:
                counts[mode] += 1
                for key in ("setup_s", "run_s", "cpu_s", "peak_rss_mb"):
                    samples[mode].setdefault(key, []).append(result[key])
            if mode == "trace":
                layer_runs.append(spans.layer_metrics(result["spans"], shape["workers"]))
                all_spans += result["spans"]
        elif mode == "alloc":
            print(f"error: {error}", file=sys.stderr)
            return 1
        shutil.rmtree(rep_dir)
        rep += 1

    if not samples["plain"] or (args.trace and not layer_runs):
        print(f"error: no repetition completed: {total.notes[:10]}", file=sys.stderr)
        return 1

    plain = {k: _stats(v) for k, v in samples["plain"].items()}
    rmse = math.sqrt(statistics.fmean(total.sq_errors)) if total.sq_errors else math.nan
    if args.trace:
        traced_run = trimmed_mean(samples["trace"]["run_s"])
        metrics = {name: trimmed_mean(run[name] for run in layer_runs) for name in layer_runs[0]}
        metrics["engine.peak_alloc_mb"] = peak_alloc_mb
        metrics["trace.overhead_s"] = traced_run - plain["run_s"]["trimmed_mean"]
        wanted = declared["per_layer"]
        with (work / "spans.jsonl").open("w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in all_spans)
    else:
        metrics = {key: plain[key]["trimmed_mean"] for key in ("run_s", "cpu_s", "setup_s", "peak_rss_mb")}
        metrics["rw_rmse_vs_closed_form"] = rmse
        wanted = declared["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    summary = {
        "workload": args.workload,
        "shape": shape,
        "machine": machine_info(args.seed),
        "generate_s": gen_s,
        "repetitions": counts,
        "untraced": plain,
        "traced_run_s": _stats(samples["trace"]["run_s"]) if args.trace else None,
        "failed_ratio": total.failed / total.attempted,
        "rw_rmse_vs_closed_form": rmse,
        "rw_days_checked": len(total.sq_errors),
        "failures": total.notes[:10],
    }
    print(json.dumps(summary))
    print(
        json.dumps(
            {
                "correct": total.failed == 0,
                "attempted": total.attempted,
                "failed": total.failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
