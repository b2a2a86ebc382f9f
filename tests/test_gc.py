"""The cyclic garbage collector is paused for a whole run and restored after.

`run_pipeline`, `emit_report` and `cli.main` each turn collection off on
entry and back on at exit only if it was on at entry, whichever way they
return: a result, an error, or argparse's SystemExit.
"""

from __future__ import annotations

import gc
import json

import pytest

from fxbarrier import cli, emit_report, load_config, pipeline, run_pipeline

from conftest import build_config


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def gc_state(request):
    """The collector's state at the call; the test's own state is restored after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def record_gc(monkeypatch, owner, name: str) -> list[bool]:
    """Replace `owner.name` with a wrapper that records `gc.isenabled()` at each call."""
    seen: list[bool] = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return seen


def test_run_pipeline_runs_without_gc(tmp_path, monkeypatch, gc_state):
    config = load_config(build_config(tmp_path))
    seen = record_gc(monkeypatch, pipeline, "ingest_price_csv")
    run_pipeline(config)
    assert seen and not any(seen)
    assert gc.isenabled() is gc_state


def test_emit_report_runs_without_gc(tmp_path, monkeypatch, gc_state):
    config = load_config(build_config(tmp_path))
    report = run_pipeline(config)
    seen = record_gc(monkeypatch, pipeline, "format_series")
    emit_report(report, config.output_dir)
    assert seen and not any(seen)
    assert gc.isenabled() is gc_state


def test_cli_main_runs_without_gc(tmp_path, monkeypatch, gc_state):
    config = build_config(tmp_path)
    seen = record_gc(monkeypatch, cli, "build_parser")
    # run_pipeline, nested in main, returns with the collector still off
    between = record_gc(monkeypatch, cli, "emit_report")
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert seen == [False] and between == [False]
    assert gc.isenabled() is gc_state


def test_all_questions_failed_restores_the_state(tmp_path, gc_state):
    path = build_config(tmp_path, with_pegged=False)
    raw = json.loads(path.read_text())
    raw["questions"][0]["open_date"] = "2030-01-01"
    raw["questions"][0]["close_date"] = "2030-12-31"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="all questions failed"):
        run_pipeline(load_config(path))
    assert gc.isenabled() is gc_state


def test_an_emit_error_restores_the_state(tmp_path, gc_state):
    config = load_config(build_config(tmp_path))
    report = run_pipeline(config)
    blocker = tmp_path / "a_file"
    blocker.write_text("", encoding="utf-8")
    with pytest.raises(OSError):
        emit_report(report, blocker / "out")
    assert gc.isenabled() is gc_state


def test_exit_2_restores_the_state(tmp_path, capsys, gc_state):
    assert cli.main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert gc.isenabled() is gc_state


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["run", "--bogus"]])
def test_argparse_exit_restores_the_state(capsys, gc_state, argv):
    with pytest.raises(SystemExit):
        cli.main(argv)
    capsys.readouterr()
    assert gc.isenabled() is gc_state
