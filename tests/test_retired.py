"""Retired inputs: seed, n_paths and workers change no byte and are checked as before.

They once set the Monte Carlo forecast and the question threads. Every surface
that took them still does: the config keys, the `load_config` overrides, and
the `forecast` and `run` flags. A valid value gives the same bytes as leaving
it out, and a value that was rejected fails with the message it always had.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from fxbarrier import cli, emit_report, ingest_price_csv, load_config, run_pipeline

from conftest import build_config

RETIRED = ("seed", "n_paths", "workers")
SEED_RANGE = "seed must be a 64-bit unsigned integer"

# (surface, key or flag, value, message); a message of None means the value is
# accepted, and "{config}" stands for the config file's path.
ROWS = [
    ("config", "seed", 2022, None),
    ("config", "seed", 2**64 - 1, None),
    ("config", "seed", None, None),  # null counts as absent
    ("config", "seed", -1, f"{{config}}: {SEED_RANGE}"),
    ("config", "seed", 2**64, f"{{config}}: {SEED_RANGE}"),
    ("config", "seed", 1.5, "{config}: 'seed' must be an integer, got 1.5"),
    ("config", "seed", 7.9, "{config}: 'seed' must be an integer, got 7.9"),
    ("config", "seed", True, "{config}: 'seed' must be an integer, got True"),
    ("config", "seed", "5", "{config}: 'seed' must be an integer, got '5'"),
    ("config", "n_paths", 7, None),
    ("config", "n_paths", 10**30, None),
    ("config", "n_paths", 0, "{config}: n_paths must be at least 1"),
    ("config", "n_paths", 7.9, "{config}: 'n_paths' must be an integer, got 7.9"),
    ("config", "n_paths", 7.0, "{config}: 'n_paths' must be an integer, got 7.0"),
    ("config", "n_paths", True, "{config}: 'n_paths' must be an integer, got True"),
    ("config", "workers", 3, None),
    ("config", "workers", 0, "{config}: workers must be at least 1"),
    ("config", "workers", 1.5, "{config}: 'workers' must be an integer, got 1.5"),
    ("config", "workers", True, "{config}: 'workers' must be an integer, got True"),
    ("override", "seed", 7, None),
    ("override", "seed", -1, f"{{config}}: {SEED_RANGE}"),
    ("override", "seed", 2**64, f"{{config}}: {SEED_RANGE}"),
    ("override", "seed", 1.5, "{config}: 'seed' must be an integer, got 1.5"),
    ("override", "n_paths", 123, None),
    ("override", "n_paths", 0, "{config}: n_paths must be at least 1"),
    ("override", "workers", 3, None),
    ("override", "workers", 0, "{config}: workers must be at least 1"),
    ("override", "workers", True, "{config}: 'workers' must be an integer, got True"),
    ("forecast", "--seed", "5", None),
    ("forecast", "--paths", "800", None),
    ("forecast", "--seed", "-1", f"error: {SEED_RANGE}"),
    ("forecast", "--seed", str(2**64), f"error: {SEED_RANGE}"),
    ("forecast", "--paths", "0", "error: n_paths must be at least 1"),
    ("forecast", "--seed", "1.5", "fxbarrier forecast: error: argument --seed: invalid int value: '1.5'"),
    ("run", "--seed", "999", None),
    ("run", "--paths", "7", None),
    ("run", "--workers", "3", None),
    ("run", "--seed", "-1", f"error: {{config}}: {SEED_RANGE}"),
    ("run", "--paths", "0", "error: {config}: n_paths must be at least 1"),
    ("run", "--workers", "0", "error: {config}: workers must be at least 1"),
    ("run", "--workers", "1.5", "fxbarrier run: error: argument --workers: invalid int value: '1.5'"),
]


def write_config(tmp_path: Path, **keys) -> Path:
    """The small test run's config with no retired key, plus `keys`."""
    tmp_path.mkdir()
    path = build_config(tmp_path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    for key in RETIRED:
        del raw[key]
    path.write_text(json.dumps({**raw, **keys}), encoding="utf-8")
    return path


def attempt(surface: str, path: Path, capsys, *given) -> tuple[str | None, object]:
    """(error, output) of one surface on the run at `path`, with `given` = (name, value) or ().

    The output is the report files' bytes, or for `forecast` its stdout.
    """
    out = path.parent / "out"
    if surface in ("config", "override"):
        try:
            config = load_config(path, output_dir=out, **dict([given] if given else []))
        except ValueError as exc:
            return str(exc), None
        emit_report(run_pipeline(config), out)
        return None, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    if surface == "run":
        argv = ["run", "--config", str(path), "--out", str(out)]
    else:
        series = ingest_price_csv(path.parent / "prices" / "flt.csv", "FLTUSD")
        argv = [
            "forecast", "--prices", str(path.parent / "prices" / "flt.csv"),
            "--open", series.dates[15].isoformat(), "--close", series.dates[-1].isoformat(),
            "--threshold-value", "0.05",
        ]
    try:
        status = cli.main([*argv, *given])
    except SystemExit as exc:  # argparse rejects a flag that is not an integer
        status = exc.code
    stdout, stderr = capsys.readouterr()
    if status:
        assert status == 2
        return stderr.splitlines()[-1], None
    if surface == "forecast":
        return None, stdout
    return None, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def row_id(surface, name, value, message) -> str:
    """`forecast-seed-5` for a flag, `config-seed-'5'` for a JSON string."""
    shown = value if surface in ("forecast", "run") else repr(value)
    return f"{surface}-{name.lstrip('-')}-{shown}"


@pytest.mark.parametrize(
    "surface, name, value, message", [pytest.param(*row, id=row_id(*row)) for row in ROWS]
)
def test_retired_input(tmp_path, capsys, surface, name, value, message):
    bare = write_config(tmp_path / "bare")
    error, expected = attempt(surface, bare, capsys)
    assert error is None
    assert "forecast_q-flt_random_walk.csv" in expected or surface == "forecast"

    if surface == "config":
        path = write_config(tmp_path / "given", **{name: value})
        got = attempt(surface, path, capsys)
    else:
        path = write_config(tmp_path / "given")
        got = attempt(surface, path, capsys, name, value)
    if message is None:
        assert got == (None, expected)
    else:
        assert got == (message.format(config=path), None)
