"""Command-line surface: subcommands, exit codes, and output formats."""

from __future__ import annotations

import datetime as dt
import json
import subprocess
import sys

import pytest

from fxbarrier import (
    Question,
    ingest_price_csv,
    resolve,
    rolling_forecast,
)

from conftest import build_config, random_walk_series, write_price_csv


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "fxbarrier", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def price_csv(tmp_path_factory):
    series = random_walk_series("FLTUSD", seed=11, n=90)
    return write_price_csv(tmp_path_factory.mktemp("prices") / "flt.csv", series)


def question_args(price_csv, threshold="0.05"):
    series = ingest_price_csv(price_csv, "FLTUSD")
    return [
        "--prices",
        str(price_csv),
        "--pair-id",
        "FLTUSD",
        "--open",
        series.dates[15].isoformat(),
        "--close",
        series.dates[-1].isoformat(),
        "--threshold-value",
        threshold,
    ]


class TestForecast:
    def test_prints_series_matching_library(self, price_csv):
        proc = run_cli("forecast", *question_args(price_csv), "--seed", "5", "--paths", "800")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "date,p"

        series = ingest_price_csv(price_csv, "FLTUSD")
        question = Question(
            question_id="question",
            pair_id="FLTUSD",
            open_date=series.dates[15],
            close_date=series.dates[-1],
            baseline_rate=series.rates[15],
            threshold_kind="relative_depreciation",
            threshold_value=0.05,
        )
        expected = rolling_forecast(series, question)
        assert len(lines) - 1 == len(expected)
        for line, (d, p) in zip(lines[1:], expected.points):
            assert line == f"{d.isoformat()},{p:.6f}"

    def test_deterministic_output(self, price_csv):
        args = ("forecast", *question_args(price_csv), "--seed", "5", "--paths", "500")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_history_start_and_derived_baseline_match_run(self, tmp_path):
        config_path = build_config(tmp_path, n_paths=400, with_crowd=False, with_pegged=False)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        question = config["questions"][0]
        assert "baseline_rate" not in question
        prices = tmp_path / "prices" / "flt.csv"
        question["history_start"] = ingest_price_csv(prices).dates[5].isoformat()
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        proc = run_cli("run", "--config", str(config_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr

        args = [
            "forecast", "--prices", str(prices), "--pair-id", "FLTUSD",
            "--question-id", "q-flt", "--open", question["open_date"],
            "--close", question["close_date"],
            "--threshold-value", str(question["threshold_value"]),
            "--seed", str(config["seed"]), "--paths", "400",
        ]
        trimmed = run_cli(*args, "--history-start", question["history_start"])
        assert trimmed.returncode == 0, trimmed.stderr
        expected = (out / "forecast_q-flt_random_walk.csv").read_text(encoding="utf-8")
        assert trimmed.stdout == expected
        # the window is honoured: the full history gives other volatilities
        assert run_cli(*args).stdout != expected


class TestRun:
    def test_full_run_writes_files(self, tmp_path):
        config = build_config(tmp_path, n_paths=800)
        out = tmp_path / "cli_out"
        proc = run_cli("run", "--config", str(config), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "q-flt: k=" in proc.stdout
        assert "wrote" in proc.stdout
        assert (out / "resolutions.csv").is_file()
        assert (out / "mean_scores_random_walk.csv").is_file()

    def test_missing_config_fails_with_diagnostic(self, tmp_path):
        proc = run_cli("run", "--config", str(tmp_path / "absent.json"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        path = build_config(tmp_path)
        raw = json.loads(path.read_text())
        for key, value, message in [
            ("consensus", "x", "config.json: consensus: expected an object, got 'x'"),
            ("seed", 7.9, "config.json: 'seed' must be an integer, got 7.9"),
        ]:
            path.write_text(json.dumps(dict(raw, **{key: value})))
            proc = run_cli("run", "--config", str(path))
            assert proc.returncode == 2
            assert proc.stderr.startswith("error:") and message in proc.stderr


class TestScore:
    def test_scores_external_forecast(self, price_csv, tmp_path):
        forecast_path = tmp_path / "external.csv"
        series = ingest_price_csv(price_csv, "FLTUSD")
        dates = series.dates[15:20]
        lines = ["date,p"] + [f"{d.isoformat()},0.5" for d in dates]
        forecast_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = run_cli(
            "score", *question_args(price_csv), "--forecast", str(forecast_path)
        )
        assert proc.returncode == 0, proc.stderr
        out_lines = proc.stdout.strip().splitlines()
        assert out_lines[0] == "date,score"
        question = Question(
            question_id="question",
            pair_id="FLTUSD",
            open_date=series.dates[15],
            close_date=series.dates[-1],
            baseline_rate=series.rates[15],
            threshold_kind="relative_depreciation",
            threshold_value=0.05,
        )
        assert resolve(series, question).outcome in (0, 1)
        for line in out_lines[1:]:
            # brier(0.5, k) is 0.25 for either outcome
            assert line.endswith(",0.250000")

    def test_scores_the_same_window_as_run(self, tmp_path):
        config_path = build_config(tmp_path, n_paths=400, with_crowd=False, with_pegged=False)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        question = config["questions"][0]
        prices = tmp_path / "prices" / "flt.csv"
        series = ingest_price_csv(prices, "FLTUSD")
        question["scoring_start_date"] = series.dates[20].isoformat()
        q = Question(
            question_id="q-flt",
            pair_id="FLTUSD",
            open_date=series.dates[15],
            close_date=series.dates[-1],
            baseline_rate=series.rates[15],
            threshold_kind="relative_depreciation",
            threshold_value=question["threshold_value"],
        )
        resolve_date = resolve(series, q).resolve_date
        # before open, after open but before scoring start, inside, on resolution
        dates = [series.dates[10], series.dates[17], *series.dates[20:24], resolve_date]
        assert resolve_date > series.dates[23]
        probs = [0.1 + 0.1 * i for i in range(len(dates))]
        forecast = tmp_path / "forecast.csv"
        forecast.write_text(
            "date,p\n" + "".join(f"{d},{p}\n" for d, p in zip(dates, probs)), encoding="utf-8"
        )
        consensus = tmp_path / "consensus.csv"
        consensus.write_text(
            "question_id,date,probability\n"
            + "".join(f"q-flt,{d},{p}\n" for d, p in zip(dates, probs)),
            encoding="utf-8",
        )
        config["external_consensus_file"] = consensus.name
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        proc = run_cli("run", "--config", str(config_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr

        proc = run_cli(
            "score", "--prices", str(prices), "--pair-id", "FLTUSD",
            "--open", question["open_date"], "--close", question["close_date"],
            "--threshold-value", str(question["threshold_value"]),
            "--scoring-start", question["scoring_start_date"], "--forecast", str(forecast),
        )
        assert proc.returncode == 0, proc.stderr
        assert "dropped 3" in proc.stderr
        assert proc.stdout == (out / "scores_q-flt_crowd.csv").read_text(encoding="utf-8")
        assert len(proc.stdout.splitlines()) == 1 + 4

    def test_points_after_resolution_are_dropped_with_warning(self, price_csv, tmp_path):
        forecast_path = tmp_path / "late.csv"
        series = ingest_price_csv(price_csv, "FLTUSD")
        late = series.dates[-1] + dt.timedelta(days=10)
        forecast_path.write_text(
            f"date,p\n{series.dates[20].isoformat()},0.4\n{late.isoformat()},0.4\n",
            encoding="utf-8",
        )
        proc = run_cli(
            "score", *question_args(price_csv), "--forecast", str(forecast_path)
        )
        assert proc.returncode == 0
        assert "dropped 1" in proc.stderr
        assert len(proc.stdout.strip().splitlines()) == 2


class TestCalibrate:
    def test_regression_table(self, tmp_path):
        x_path = tmp_path / "x.csv"
        crowd_path = tmp_path / "crowd.csv"
        dates = [dt.date(2022, 6, 1) + dt.timedelta(days=i) for i in range(20)]
        crowd_vals = [0.1 + 0.04 * i / 20 for i in range(20)]
        x_vals = [min(1.0, 0.05 + 0.8 * c) for c in crowd_vals]
        x_path.write_text(
            "date,p\n" + "".join(f"{d},{v}\n" for d, v in zip(dates, x_vals)),
            encoding="utf-8",
        )
        crowd_path.write_text(
            "date,p\n" + "".join(f"{d},{v}\n" for d, v in zip(dates, crowd_vals)),
            encoding="utf-8",
        )
        proc = run_cli("calibrate", "--x-file", str(x_path), "--crowd-file", str(crowd_path))
        assert proc.returncode == 0, proc.stderr
        assert "OLS calibration" in proc.stdout
        assert "intercept" in proc.stdout and "crowd" in proc.stdout
        assert "0.800000" in proc.stdout  # slope of the noiseless line
        assert "r_squared: 1.000000" in proc.stdout

    def test_disjoint_series_fail_cleanly(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("date,p\n2022-06-01,0.5\n", encoding="utf-8")
        b.write_text("date,p\n2022-07-01,0.5\n", encoding="utf-8")
        proc = run_cli("calibrate", "--x-file", str(a), "--crowd-file", str(b))
        assert proc.returncode == 2
        assert "error:" in proc.stderr
