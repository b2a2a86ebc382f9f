"""What `import fxbarrier` loads, starts and exports.

What it loads and starts, and what a run loads after it, is checked in a
fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest

GOLDEN_CONFIG = Path(__file__).parent / "data" / "golden_run" / "config.json"

# numpy and scipy are test tools. dataclasses, with the inspect it imports,
# would be about a third of the import's cost. The program needs none of
# them, to import or to run.
PROBE = """
import gc, json, os, sys
environ = dict(os.environ)
import fxbarrier, fxbarrier.cli
task = "/proc/self/task"

def loaded():
    # None is how a test run blocks a module; it means "not loaded" too
    return {m: sys.modules.get(m) is not None for m in ("dataclasses", "inspect")}

got = {
    "scipy": sys.modules.get("scipy") is not None,
    "numpy": sys.modules.get("numpy") is not None,
    "environ_changed": dict(os.environ) != environ,
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
    "after_import": loaded(),
}
config, out = sys.argv[1:]
got["run_status"] = fxbarrier.cli.main(["run", "--config", config, "--out", out])
got["after_run"] = loaded()
got["gc_enabled_after_run"] = gc.isenabled()
got["utf_8_sig_after_run"] = sys.modules.get("encodings.utf_8_sig") is not None
print(json.dumps(got))
"""


def probe(**env_changes: str | None) -> dict:
    """What PROBE saw, importing fxbarrier and then running the golden config."""
    env = dict(os.environ)
    for key, value in env_changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-c", PROBE, str(GOLDEN_CONFIG), out]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])  # after the run's own output


def test_import_does_not_load_scipy():
    assert probe()["scipy"] is False


def test_import_starts_no_thread():
    got = probe(OPENBLAS_NUM_THREADS=None)
    if got["threads"] is None:
        pytest.skip("/proc/self/task is not available")
    assert got["threads"] == 1
    assert got["numpy"] is False
    assert got["environ_changed"] is False


def test_neither_the_import_nor_a_run_loads_dataclasses_or_inspect():
    got = probe()
    assert got["run_status"] == 0
    assert got["after_import"] == {"dataclasses": False, "inspect": False}
    assert got["after_run"] == {"dataclasses": False, "inspect": False}


def test_a_run_turns_the_gc_back_on_and_loads_no_bom_codec():
    # the run pauses the cyclic collector, and takes a byte-order mark off
    # without the utf-8-sig codec, whose import was about 0.4 ms of a forecast
    got = probe()
    assert got["run_status"] == 0
    assert got["gc_enabled_after_run"] is True
    assert got["utf_8_sig_after_run"] is False


def test_all_names_every_public_attribute():
    import fxbarrier

    public = {
        name
        for name, value in vars(fxbarrier).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(fxbarrier.__all__) == public
