"""Command-line surface: subcommands, exit codes, and output formats."""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fxbarrier import (
    Question,
    ingest_price_csv,
    resolve,
    rolling_forecast,
)
from fxbarrier.cli import build_parser

from conftest import build_config, random_walk_series, write_price_csv


def run_cli(*args: str, stdin: str | None = None):
    return subprocess.run(
        [sys.executable, "-m", "fxbarrier", *args],
        input=stdin,
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


@pytest.mark.parametrize("command", ["forecast", "score"])
def test_bad_date_flag_names_the_flag(price_csv, tmp_path, command):
    extra = ["--forecast", str(tmp_path / "unread.csv")] if command == "score" else []
    for flag in ("--open", "--close", "--scoring-start", "--history-start"):
        proc = run_cli(command, *question_args(price_csv), *extra, flag, "2022-13-01")
        assert proc.returncode == 2
        assert proc.stderr.splitlines()[-1] == (
            f"fxbarrier {command}: error: argument {flag}: "
            "expected an ISO date (YYYY-MM-DD), got '2022-13-01'"
        )


@pytest.mark.parametrize("columns", ["50", "120"])
def test_help_is_argparse_default_at_the_terminal_width(monkeypatch, columns):
    # build_parser asks for the terminal width once and hands it to every
    # formatter; argparse's own formatter asks each time, and must agree
    monkeypatch.setenv("COLUMNS", columns)
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for p in [parser, *commands.choices.values()]:
        got = p.format_help(), p.format_usage()
        p.formatter_class = argparse.HelpFormatter
        assert (p.format_help(), p.format_usage()) == got


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

    def test_undecodable_price_file_names_its_line(self, price_csv, tmp_path):
        path = tmp_path / "flt.csv"
        lines = price_csv.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:3]) + b"\xff" + b"".join(lines[3:]))
        proc = run_cli("forecast", *question_args(price_csv)[2:], "--prices", str(path))
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: {path}:4: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
    def test_price_file_may_be_a_pipe(self):
        prices = Path(__file__).parent / "data" / "golden_run" / "prices" / "flt.csv"
        args = [
            "--pair-id", "FLTUSD", "--open", "2022-01-31", "--close", "2022-07-01",
            "--threshold-kind", "relative_depreciation", "--threshold-value", "0.06",
        ]
        from_file = run_cli("forecast", "--prices", str(prices), *args)
        piped = run_cli(
            "forecast", "--prices", "/dev/stdin", *args, stdin=prices.read_text(encoding="utf-8")
        )
        assert piped.returncode == 0, piped.stderr
        assert piped.stdout == from_file.stdout
        digest = hashlib.md5(piped.stdout.encode()).hexdigest()
        assert digest == "007da07f789cdf905747601642c9e80b"

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
    def test_a_piped_file_whose_rows_span_lines_is_an_error(self):
        # numbering such rows reads the file again, which a pipe cannot give;
        # the bad rate on line 4 must not be dropped without a word
        proc = run_cli(
            "forecast", "--prices", "/dev/stdin", "--open", "2022-01-03",
            "--close", "2022-02-01", "--threshold-value", "0.05",
            stdin='date,rate\n"2022-01-03\n",1.0\n2022-01-04,abc\n',
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: /dev/stdin: a quoted field holds a line break, and a second read "
            "to number the rows found 0 of its 2 rows\n"
        )

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
    def test_an_undecodable_piped_file_is_named(self):
        # its line cannot be found in bytes the pipe has already given
        proc = subprocess.run(
            [
                sys.executable, "-m", "fxbarrier", "forecast", "--prices", "/dev/stdin",
                "--open", "2022-01-03", "--close", "2022-02-01", "--threshold-value", "0.05",
            ],
            input=b"date,rate\n2022-01-03,1.0\n2022-01-04,1\xff.0\n",
            capture_output=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error: /dev/stdin: 'utf-8' codec can't decode byte 0xff")

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

    def test_out_of_range_crowd_time_fails_with_its_line(self, tmp_path):
        config = build_config(tmp_path)
        crowd = tmp_path / "crowd.csv"
        with crowd.open("a", encoding="utf-8") as fh:
            fh.write("q-flt,zz,0001-01-01T00:00:00+05:00,0.4\n")
        line = len(crowd.read_text(encoding="utf-8").splitlines())
        proc = run_cli("run", "--config", str(config), "--out", str(tmp_path / "cli_out"))
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: {crowd}:{line}: q-flt/zz: time 0001-01-01 00:00:00+05:00 "
            "is out of range in UTC\n"
        )


    def test_large_extremize_a_saturates_combined(self, tmp_path):
        golden = Path(__file__).parent / "data" / "golden_run"
        shutil.copytree(golden, tmp_path / "golden", ignore=shutil.ignore_patterns("expected"))
        config = tmp_path / "golden" / "config.json"
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["consensus"]["extremize_a"] = 1000.0
        config.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        proc = run_cli("run", "--config", str(config), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        combined = (out / "forecast_gold-flt_combined.csv").read_text(encoding="utf-8")
        values = {float(line.split(",")[1]) for line in combined.splitlines()[1:]}
        assert values and values <= {0.0, 1.0}


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

    def test_non_finite_null_fails_cleanly(self, tmp_path):
        x_path = tmp_path / "x.csv"
        x_path.write_text(
            "date,p\n" + "".join(f"2022-06-{d:02d},{0.1 * d}\n" for d in range(1, 6)),
            encoding="utf-8",
        )
        proc = run_cli(
            "calibrate", "--x-file", str(x_path), "--crowd-file", str(x_path), "--null0", "nan"
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: null0 must be finite, got nan\n"

    def test_disjoint_series_fail_cleanly(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("date,p\n2022-06-01,0.5\n", encoding="utf-8")
        b.write_text("date,p\n2022-07-01,0.5\n", encoding="utf-8")
        proc = run_cli("calibrate", "--x-file", str(a), "--crowd-file", str(b))
        assert proc.returncode == 2
        assert "error:" in proc.stderr


class TestOpenQuestion:
    """Price data that ends on 2022-05-06, before a close on 2022-06-30.

    Without a crossing by then the question is open: `forecast` runs through
    the last observed day, `score` is an error, and `run` reports the open
    question as its error. A crossing before the data ends still resolves it.
    """

    close = "2022-06-30"

    @staticmethod
    def barrier(series):
        """A barrier at the lowest rate in the 24 days after the open, and its first touch."""
        lowest = min(series.rates[16:40])
        return lowest, series.dates[16 + series.rates[16:40].index(lowest)]

    def args(self, price_csv, crossing: bool) -> list[str]:
        series = ingest_price_csv(price_csv, "FLTUSD")
        threshold = ["--threshold-value", "0.5"]
        if crossing:
            threshold = ["--threshold-kind", "absolute_level", "--threshold-value"]
            threshold.append(repr(self.barrier(series)[0]))
        return [
            "--prices", str(price_csv), "--pair-id", "FLTUSD",
            "--open", series.dates[15].isoformat(), "--close", self.close, *threshold,
        ]

    def test_forecast_runs_through_the_last_observed_day(self, price_csv):
        series = ingest_price_csv(price_csv, "FLTUSD")
        assert series.dates[-1] == dt.date(2022, 5, 6)
        proc = run_cli("forecast", *self.args(price_csv, crossing=False))
        assert proc.returncode == 0, proc.stderr
        dates = [line.split(",")[0] for line in proc.stdout.splitlines()[1:]]
        assert dates == [d.isoformat() for d in series.dates[15:]]

    def test_forecast_stops_at_a_crossing(self, price_csv):
        series = ingest_price_csv(price_csv, "FLTUSD")
        crossed = self.barrier(series)[1]
        proc = run_cli("forecast", *self.args(price_csv, crossing=True))
        assert proc.returncode == 0, proc.stderr
        dates = [line.split(",")[0] for line in proc.stdout.splitlines()[1:]]
        assert dates == [d.isoformat() for d in series.dates[15 : series.dates.index(crossed)]]

    def forecast_file(self, tmp_path, series) -> Path:
        path = tmp_path / "forecast.csv"
        crossed = self.barrier(series)[1]
        days = series.dates[15 : series.dates.index(crossed)]
        path.write_text("date,p\n" + "".join(f"{d},0.2\n" for d in days), encoding="utf-8")
        return path

    def test_score_is_an_error_naming_the_last_date_and_the_close(self, price_csv, tmp_path):
        series = ingest_price_csv(price_csv, "FLTUSD")
        forecast = self.forecast_file(tmp_path, series)
        proc = run_cli("score", *self.args(price_csv, crossing=False), "--forecast", str(forecast))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: question: open: FLTUSD data ends 2022-05-06, before close 2022-06-30, "
            "without a crossing\n"
        )

    def test_score_after_a_crossing_uses_k_1(self, price_csv, tmp_path):
        series = ingest_price_csv(price_csv, "FLTUSD")
        forecast = self.forecast_file(tmp_path, series)
        proc = run_cli("score", *self.args(price_csv, crossing=True), "--forecast", str(forecast))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "date,score" and len(lines) > 1
        assert all(line.endswith(",0.640000") for line in lines[1:])  # (1 - 0.2)^2

    def run_past_the_data(self, tmp_path, crossing: bool):
        path = build_config(tmp_path)
        raw = json.loads(path.read_text(encoding="utf-8"))
        flt = raw["questions"][0]
        flt["close_date"] = self.close
        series = ingest_price_csv(tmp_path / "prices" / "flt.csv", "FLTUSD")
        if crossing:
            flt.update(threshold_kind="absolute_level", threshold_value=self.barrier(series)[0])
        else:
            flt["threshold_value"] = 0.5
        path.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "cli_out"
        proc = run_cli("run", "--config", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = (out / "resolutions.csv").read_text(encoding="utf-8").splitlines()
        return proc, out, series, rows

    def test_run_reports_an_open_question_and_scores_nothing_for_it(self, tmp_path):
        proc, out, _, rows = self.run_past_the_data(tmp_path, crossing=False)
        message = (
            "q-flt: open: FLTUSD data ends 2022-05-06, before close 2022-06-30, without a crossing"
        )
        assert rows[1] == f'q-flt,,,"{message}"'
        assert f"q-flt: failed ({message})" in proc.stdout
        assert not [p.name for p in out.iterdir() if "q-flt" in p.name]

    def test_run_resolves_a_crossing_before_the_data_ends(self, tmp_path):
        _, out, series, rows = self.run_past_the_data(tmp_path, crossing=True)
        assert rows[1] == f"q-flt,1,{self.barrier(series)[1]},"
        assert (out / "scores_q-flt_random_walk.csv").is_file()


class TestConfigErrors:
    def test_question_id_with_a_trailing_newline_writes_nothing(self, tmp_path):
        path = build_config(tmp_path)
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["questions"][0]["question_id"] = "q-flt\n"
        path.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "cli_out"
        proc = run_cli("run", "--config", str(path), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: {path}: question_id 'q-flt\\n' must match ^[A-Za-z0-9._-]+$\n"
        )
        assert not out.exists()

    def test_a_static_question_fault_writes_nothing(self, tmp_path):
        path = build_config(tmp_path)
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["questions"][0]["threshold_value"] = 1.5
        path.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "cli_out"
        proc = run_cli("run", "--config", str(path), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: {path}: questions[0]: q-flt: relative threshold must lie in (0, 1)\n"
        )
        assert not out.exists()

    def test_a_config_nested_too_deep_names_the_file(self, tmp_path):
        path = tmp_path / "config.json"
        depth = 100_000  # far past the interpreter's recursion limit
        path.write_text('{"questions": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
        proc = run_cli("run", "--config", str(path), "--out", str(tmp_path / "cli_out"))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {path}: invalid JSON (maximum recursion depth")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "entry, key, digits",
        [
            ("questions", "threshold_value", 401),
            ("consensus", "extremize_a", 401),
            # over Python's 4,300-digit limit for int text, where it has one (3.10.7+)
            ("questions", "threshold_value", 5001),
        ],
    )
    def test_a_number_a_float_cannot_hold_names_the_file(self, tmp_path, entry, key, digits):
        path = build_config(tmp_path)
        raw = json.loads(path.read_text(encoding="utf-8"))
        (raw[entry][0] if entry == "questions" else raw[entry])[key] = "HUGE"
        text = json.dumps(raw).replace('"HUGE"', "1" + "0" * (digits - 1))
        path.write_text(text, encoding="utf-8")
        proc = run_cli("run", "--config", str(path), "--out", str(tmp_path / "cli_out"))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {path}: ")
        assert len(proc.stderr.splitlines()) == 1
        if digits < 4300:
            where = "questions[0]" if entry == "questions" else entry
            assert f"{path}: {where}: bad value for {key!r}: 1000" in proc.stderr
