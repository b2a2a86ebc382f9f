"""What `import fxbarrier` loads, starts and exports.

What it loads and starts is checked in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types

import pytest

PROBE = """
import json, os, sys
environ = dict(os.environ)
import fxbarrier, fxbarrier.cli
task = "/proc/self/task"
print(json.dumps({
    # None is how a test run blocks scipy; it means "not loaded" too
    "scipy": sys.modules.get("scipy") is not None,
    "numpy": sys.modules.get("numpy") is not None,
    "environ_changed": dict(os.environ) != environ,
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
}))
"""


def probe(**env_changes: str | None) -> dict:
    env = dict(os.environ)
    for key, value in env_changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_import_does_not_load_scipy():
    assert probe()["scipy"] is False


def test_import_starts_no_thread():
    got = probe(OPENBLAS_NUM_THREADS=None)
    if got["threads"] is None:
        pytest.skip("/proc/self/task is not available")
    assert got["threads"] == 1
    assert got["numpy"] is False
    assert got["environ_changed"] is False


def test_all_names_every_public_attribute():
    import fxbarrier

    public = {
        name
        for name, value in vars(fxbarrier).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(fxbarrier.__all__) == public
