"""One repetition of a workload, in a fresh interpreter.

Usage: python3 bench/child.py SPEC_JSON

The spec names the program's source directory, the workload kind and its
inputs, where to write outputs and where to write this process's result. A
fresh process per repetition makes `setup_s` include the real `import
fxbarrier` and lets the process's peak resident memory belong to this one run.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    tracer = None
    if spec["mode"] != "plain":
        import tracemalloc

        from spans import Tracer

        tracer = Tracer(spec["run_id"], track_alloc=spec["mode"] == "alloc")

    t0 = time.perf_counter()
    import fxbarrier

    if not Path(fxbarrier.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported fxbarrier from {fxbarrier.__file__}, not {src}")
    if spec["kind"] == "golden":
        return _golden(fxbarrier, spec)
    if spec["kind"] == "cli":
        import fxbarrier.cli as cli

        if tracer:
            tracer.install()
        cli.build_parser().parse_args(spec["argv"])
    else:
        if tracer:
            tracer.install()
        config = fxbarrier.load_config(
            spec["config"], seed=spec["program_seed"], output_dir=Path(spec["out"]).resolve()
        )
    t1 = time.perf_counter()

    if spec["mode"] == "alloc":
        tracemalloc.start()
    errors = 0
    c1 = _cpu()
    t2 = time.perf_counter()
    if spec["kind"] == "cli":
        with open(spec["out"], "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            status = cli.main(spec["argv"])
            fh.flush()
    else:
        report = fxbarrier.run_pipeline(config)
        fxbarrier.emit_report(report, config.output_dir)
        status = 0
        errors = len(report.errors)
    t3 = time.perf_counter()
    c2 = _cpu()

    result = {
        "status": status,
        "errors": errors,
        "setup_s": t1 - t0,
        "run_s": t3 - t2,
        "cpu_s": c2 - c1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["spans"] = tracer.export()
        result["peak_alloc_mb"] = tracer.peak_alloc / 2**20
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _golden(fxbarrier, spec) -> int:
    """Run the frozen golden inputs once per worker count."""
    for workers, out in spec["outs"].items():
        config = fxbarrier.load_config(
            spec["config"], workers=int(workers), output_dir=Path(out).resolve()
        )
        fxbarrier.emit_report(fxbarrier.run_pipeline(config), config.output_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
