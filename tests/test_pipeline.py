"""End-to-end pipeline behaviour: determinism, invariances, file emission."""

from __future__ import annotations

import csv
import datetime as dt
import json
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

from fxbarrier import (
    Question,
    Source,
    ThresholdKind,
    brier,
    emit_report,
    load_config,
    load_consensus_csv,
    load_crowd_csv,
    parse_forecast_csv,
    run_pipeline,
)
from fxbarrier import pipeline

from conftest import build_config, random_walk_series

GOLDEN = Path(__file__).parent / "data" / "golden_run"


def run_to_dir(config_path: Path, out: Path, **overrides) -> dict[str, bytes]:
    config = load_config(config_path, output_dir=out, **overrides)
    report = run_pipeline(config)
    emit_report(report, config.output_dir)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestConfig:
    def test_unknown_pair_is_an_error(self, tmp_path):
        path = build_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["questions"][0]["pair_id"] = "GHOST"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="no price file"):
            load_config(path)

    def test_bad_question_id_is_an_error(self, tmp_path):
        path = build_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["questions"][0]["question_id"] = "bad/id"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="question_id"):
            load_config(path)

    def test_paths_resolve_relative_to_config(self, tmp_path):
        path = build_config(tmp_path)
        config = load_config(path)
        assert config.price_files[0].path.is_file()
        assert config.crowd_file.is_file()
        assert config.output_dir == tmp_path / "out"

    def test_overrides_apply(self, tmp_path):
        path = build_config(tmp_path)
        config = load_config(path, n_paths=123, step_mode="calendar_days", workers=3)
        assert config.step_mode.value == "calendar_days"
        # n_paths and workers are retired: accepted, and dropped
        assert config == load_config(path, step_mode="calendar_days")

    def test_undecodable_config_names_its_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"output_dir": "\xff"}')
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == (
            f"{path}: invalid JSON ('utf-8' codec can't decode byte 0xff in position 16: "
            "invalid start byte)"
        )

    def test_unknown_override_is_an_error(self, tmp_path):
        path = build_config(tmp_path)
        with pytest.raises(TypeError, match="n_path"):
            load_config(path, n_path=5)

    def test_non_floating_must_be_a_boolean(self, tmp_path):
        path = build_config(tmp_path)
        text = path.read_text()
        raw = json.loads(path.read_text())
        raw["questions"][0]["non_floating"] = "false"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=r"questions\[0\]: 'non_floating' must be true"):
            load_config(path)
        # Each entry must have its JSON type.
        for edit, message in [
            (lambda raw: raw.update(consensus="x"), r"config.json: consensus: expected an object"),
            (
                lambda raw: raw.update(questions=["q-flt"]),
                r"config.json: questions\[0\]: expected an object",
            ),
            (lambda raw: raw.update(questions="q-flt"), r"'questions' must be a list"),
        ]:
            raw = json.loads(text)
            edit(raw)
            path.write_text(json.dumps(raw))
            with pytest.raises(ValueError, match=message):
                load_config(path)

    @pytest.mark.parametrize("value", ["false", 0, 1, None, np.bool_(True)])
    def test_library_non_floating_must_be_a_bool(self, value):
        # "false" is truthy: accepted, it would drop the random walk silently
        with pytest.raises(ValueError, match=r"^q: non_floating must be a bool, got "):
            Question(
                question_id="q",
                pair_id="FLTUSD",
                open_date=dt.date(2022, 1, 3),
                close_date=dt.date(2022, 3, 1),
                threshold_kind=ThresholdKind.RELATIVE_DEPRECIATION,
                threshold_value=0.05,
                non_floating=value,
            )

    def test_unknown_question_field_is_an_error(self, tmp_path):
        path = build_config(tmp_path)
        text = path.read_text()
        raw = json.loads(path.read_text())
        raw["questions"][0]["baseline"] = 1.0
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=r"config.json: questions\[0\]: .*'baseline'"):
            load_config(path)
        for edit, message in [
            (lambda raw: raw.update(n_path=5), r"config.json: unknown fields \['n_path'\]"),
            (lambda raw: raw.update(sim={"seed": 1}), r"config.json: unknown fields \['sim'\]"),
            (
                lambda raw: raw["consensus"].update(extremise_a=9.0),
                r"config.json: consensus: unknown fields \['extremise_a'\]",
            ),
            (
                lambda raw: raw["price_files"][0].update(file="x.csv"),
                r"config.json: price_files\[0\]: unknown fields \['file'\]",
            ),
        ]:
            raw = json.loads(text)
            edit(raw)
            path.write_text(json.dumps(raw))
            with pytest.raises(ValueError, match=message):
                load_config(path)

    def test_bad_enum_value_names_its_entry(self, tmp_path):
        path = build_config(tmp_path)
        text = path.read_text()
        for edit, message in [
            (
                lambda raw: raw["questions"][1].update(threshold_kind="relative"),
                r"config.json: questions\[1\]: bad value for 'threshold_kind': 'relative'",
            ),
            (
                lambda raw: raw["price_files"][1].update(quote_direction="usd"),
                r"config.json: price_files\[1\]: bad value for 'quote_direction': 'usd'",
            ),
            (
                lambda raw: raw.update(step_mode="weekdays"),
                r"config.json: bad value for 'step_mode': 'weekdays'",
            ),
            (
                lambda raw: raw["consensus"].update(method="mean"),
                r"config.json: consensus: bad value for 'method': 'mean'",
            ),
        ]:
            raw = json.loads(text)
            edit(raw)
            path.write_text(json.dumps(raw))
            with pytest.raises(ValueError, match=message):
                load_config(path)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ({"open_date": "2022-08-01"}, "open_date 2022-08-01 must precede close_date "),
            ({"threshold_value": 1.5}, "relative threshold must lie in (0, 1)"),
            ({"baseline_rate": 0.0}, "baseline_rate must be positive and finite"),
            ({"scoring_start_date": "2021-01-04"}, "scoring_start_date must lie in "),
            ({"history_start": "2022-03-01"}, "history_start 2022-03-01 is after open_date "),
        ],
        ids=["open_date", "threshold_value", "baseline_rate", "scoring_start_date", "history_start"],
    )
    def test_a_static_question_fault_is_a_config_error(self, tmp_path, fault, message):
        path = build_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["questions"][1].update(fault)
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}: questions[1]: q-peg: {message}")

    def test_history_start_after_open_is_an_error(self):
        series = random_walk_series("FLTUSD", seed=11, n=90)
        # Trimming first would derive the baseline from the rate on
        # history_start, not from the first rate on or after open_date.
        assert series.rates[40] != series.rates[15]
        with pytest.raises(ValueError, match="q: history_start .* after open_date"):
            Question(
                question_id="q",
                pair_id="FLTUSD",
                open_date=series.dates[15],
                close_date=series.dates[-1],
                threshold_kind=ThresholdKind.RELATIVE_DEPRECIATION,
                threshold_value=0.05,
                history_start=series.dates[40],
            )


class TestRunPipeline:
    def test_report_covers_every_question_once(self, tmp_path):
        config = load_config(build_config(tmp_path))
        report = run_pipeline(config)
        assert sorted(report.results) == ["q-flt", "q-peg"]
        assert report.errors == {}

    def test_sources_built_as_expected(self, tmp_path):
        config = load_config(build_config(tmp_path))
        report = run_pipeline(config)
        flt = report.results["q-flt"]
        assert {Source.RANDOM_WALK, Source.CROWD, Source.COMBINED} <= set(flt.forecasts)
        peg = report.results["q-peg"]
        assert Source.RANDOM_WALK not in peg.forecasts
        assert Source.CROWD in peg.forecasts
        assert "random_walk" in report.mean_curves
        assert "crowd" in report.mean_curves
        assert "combined" in report.mean_curves
        assert "crowd_only" in report.mean_curves
        assert report.regression is not None

    def test_rerun_is_byte_identical(self, tmp_path):
        path = build_config(tmp_path)
        a = run_to_dir(path, tmp_path / "out_a")
        b = run_to_dir(path, tmp_path / "out_b")
        assert a == b

    def test_a_reused_output_directory_holds_only_the_last_run(self, tmp_path_factory):
        first = build_config(tmp_path_factory.mktemp("first"))
        second = build_config(tmp_path_factory.mktemp("second"), with_crowd=False)
        fresh = run_to_dir(second, tmp_path_factory.mktemp("fresh"))
        out = tmp_path_factory.mktemp("reused")
        (out / "notes.txt").write_text("kept\n", encoding="utf-8")
        assert "calibration.txt" in run_to_dir(first, out)
        config = load_config(second, output_dir=out)
        written = emit_report(run_pipeline(config), out)
        assert written == sorted(out / name for name in fresh)
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        assert files == {**fresh, "notes.txt": b"kept\n"}

    def test_parallelism_does_not_change_bytes(self, tmp_path):
        # workers is retired and accepted as a no-op: it must not alter output
        path = build_config(tmp_path)
        serial = run_to_dir(path, tmp_path / "out_serial", workers=1)
        threaded = run_to_dir(path, tmp_path / "out_threaded", workers=4)
        assert serial == threaded

    def test_questions_run_in_id_order_on_the_calling_thread(self, tmp_path, monkeypatch):
        path = build_config(tmp_path)
        raw = json.loads(path.read_text())
        # q-mid sorts between the other two questions, and its price file is bad
        (tmp_path / "prices" / "bad.csv").write_text("date,rate\n2022-01-03,abc\n")
        raw["price_files"].append({"pair_id": "BADUSD", "path": "prices/bad.csv"})
        flt, peg = raw["questions"]
        raw["questions"] = [peg, dict(flt, question_id="q-mid", pair_id="BADUSD"), flt]
        path.write_text(json.dumps(raw))
        calls = []
        run_question = pipeline._run_question

        def recording(spec, *args):
            calls.append((spec.question_id, threading.current_thread()))
            return run_question(spec, *args)

        monkeypatch.setattr(pipeline, "_run_question", recording)
        report = run_pipeline(load_config(path, workers=3))
        me = threading.current_thread()
        assert calls == [("q-flt", me), ("q-peg", me)]
        assert list(report.results) == ["q-flt", "q-peg"]
        assert list(report.errors) == ["q-mid"]
        assert "bad.csv" in report.errors["q-mid"]

    def test_unparseable_price_file_fails_only_its_questions(self, tmp_path):
        path = build_config(tmp_path)
        raw = json.loads(path.read_text())
        # one field over the csv module's 131,072-character limit, on line 3
        (tmp_path / "prices" / "huge.csv").write_text(
            f"date,rate\n2022-01-03,1.0\n2022-01-04,{'1' * 131_073}\n", encoding="utf-8"
        )
        raw["price_files"].append({"pair_id": "HUGEUSD", "path": "prices/huge.csv"})
        raw["questions"].append(dict(raw["questions"][0], question_id="q-huge", pair_id="HUGEUSD"))
        path.write_text(json.dumps(raw))
        report = run_pipeline(load_config(path))
        assert sorted(report.results) == ["q-flt", "q-peg"]
        assert list(report.errors) == ["q-huge"]
        message = "huge.csv:3: field larger than field limit (131072)"
        assert report.errors["q-huge"].endswith(message)

    def test_config_order_does_not_change_bytes(self, tmp_path_factory):
        dir_a = tmp_path_factory.mktemp("order_a")
        dir_b = tmp_path_factory.mktemp("order_b")
        path_a = build_config(dir_a, question_order=["q-flt", "q-peg"])
        path_b = build_config(dir_b, question_order=["q-peg", "q-flt"])
        raw = json.loads(path_b.read_text())
        raw["price_files"] = list(reversed(raw["price_files"]))
        path_b.write_text(json.dumps(raw))
        a = run_to_dir(path_a, dir_a / "out")
        b = run_to_dir(path_b, dir_b / "out")
        assert a == b

    def test_history_start_changes_volatility_window(self, tmp_path_factory):
        dir_a = tmp_path_factory.mktemp("hist_a")
        dir_b = tmp_path_factory.mktemp("hist_b")
        path_a = build_config(dir_a)
        path_b = build_config(dir_b)
        raw = json.loads(path_b.read_text())
        # trim half the pre-open history: volatility estimates must change
        open_date = raw["questions"][0]["open_date"]
        start = (dt.date.fromisoformat(open_date) - dt.timedelta(days=10)).isoformat()
        raw["questions"][0]["history_start"] = start
        path_b.write_text(json.dumps(raw))
        a = run_to_dir(path_a, dir_a / "out")
        b = run_to_dir(path_b, dir_b / "out")
        name = "forecast_q-flt_random_walk.csv"
        assert a[name] != b[name]
        assert a["resolutions.csv"] == b["resolutions.csv"]

    def test_explicit_baseline_overrides_derived(self, tmp_path):
        path = build_config(tmp_path)
        config = load_config(path)
        derived = run_pipeline(config)
        raw = json.loads(path.read_text())
        # a baseline far below the market makes the barrier unreachable
        raw["questions"][0]["baseline_rate"] = 0.5
        path.write_text(json.dumps(raw))
        pinned = run_pipeline(load_config(path))
        q = pinned.results["q-flt"].question
        assert q.baseline_rate == 0.5
        # the reported question is the configured one: its baseline stays unset
        assert derived.results["q-flt"].question.baseline_rate is None
        flt_rw = pinned.results["q-flt"].forecasts[Source.RANDOM_WALK]
        assert max(flt_rw.values) < 0.01

    def test_removing_crowd_keeps_random_walk_bytes(self, tmp_path_factory):
        dir_a = tmp_path_factory.mktemp("crowd_on")
        dir_b = tmp_path_factory.mktemp("crowd_off")
        with_crowd = run_to_dir(build_config(dir_a), dir_a / "out")
        without = run_to_dir(build_config(dir_b, with_crowd=False), dir_b / "out")
        rw_names = {
            n for n in with_crowd if "random_walk" in n or n == "resolutions.csv"
        }
        for name in rw_names:
            assert with_crowd[name] == without[name], name
        assert not any("crowd" in n for n in without)
        assert "calibration.txt" not in without

    def test_emitted_values_round_trip_within_1e6(self, tmp_path):
        config = load_config(build_config(tmp_path))
        report = run_pipeline(config)
        emit_report(report, config.output_dir)
        for qid, result in report.results.items():
            for source, fs in result.forecasts.items():
                path = config.output_dir / f"forecast_{qid}_{source.value}.csv"
                back = parse_forecast_csv(path, qid, source)
                assert back.dates == fs.dates
                for got, want in zip(back.values, fs.values):
                    assert abs(got - want) <= 1e-6

    def test_scores_match_brier_of_emitted_forecasts(self, tmp_path):
        config = load_config(build_config(tmp_path))
        report = run_pipeline(config)
        emit_report(report, config.output_dir)
        for qid, result in report.results.items():
            k = result.resolution.outcome
            for source, ss in result.scores.items():
                fs = result.forecasts[source]
                for (d, s), (_, p) in zip(ss.points, fs.points):
                    assert s == brier(p, k)

    def test_per_question_failure_recorded_not_fatal(self, tmp_path):
        path = build_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["questions"][1]["open_date"] = "2030-01-01"
        raw["questions"][1]["close_date"] = "2030-12-31"
        path.write_text(json.dumps(raw))
        report = run_pipeline(load_config(path))
        assert "q-flt" in report.results
        assert "q-peg" in report.errors
        assert "insufficient data" in report.errors["q-peg"]

    def test_all_failures_fatal(self, tmp_path):
        path = build_config(tmp_path, with_pegged=False)
        raw = json.loads(path.read_text())
        raw["questions"][0]["open_date"] = "2030-01-01"
        raw["questions"][0]["close_date"] = "2030-12-31"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="all questions failed"):
            run_pipeline(load_config(path))

    def test_empty_crowd_file_warns_and_succeeds(self, tmp_path):
        path = build_config(tmp_path)
        (tmp_path / "crowd.csv").write_text(
            "question_id,forecaster_id,timestamp_rfc3339,probability\n",
            encoding="utf-8",
        )
        config = load_config(path)
        report = run_pipeline(config)
        assert any("no records" in w for w in report.warnings)
        files = emit_report(report, config.output_dir)
        assert not any("crowd" in p.name for p in files)

    def test_external_consensus_replaces_aggregation(self, tmp_path):
        path = build_config(tmp_path)
        config = load_config(path)
        report = run_pipeline(config)
        flt_dates = report.results["q-flt"].forecasts[Source.CROWD].dates
        lines = ["question_id,date,probability"]
        lines += [f"q-flt,{d.isoformat()},0.42" for d in flt_dates[:10]]
        (tmp_path / "consensus.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        raw = json.loads(path.read_text())
        raw["external_consensus_file"] = "consensus.csv"
        path.write_text(json.dumps(raw))
        report2 = run_pipeline(load_config(path))
        crowd = report2.results["q-flt"].forecasts[Source.CROWD]
        assert crowd == load_consensus_csv(tmp_path / "consensus.csv")["q-flt"]
        # the crowd records it replaces are named in a warning
        records = [r for r in load_crowd_csv(tmp_path / "crowd.csv") if r.question_id == "q-flt"]
        assert (
            f"consensus file {tmp_path / 'consensus.csv'}: q-flt: used in place of "
            f"{len(records)} crowd records"
        ) in report2.warnings
        # q-peg has no external series and falls back to record aggregation
        assert Source.CROWD in report2.results["q-peg"].forecasts

    def test_unconfigured_question_ids_warn(self, tmp_path):
        path = build_config(tmp_path)
        crowd = tmp_path / "crowd.csv"
        # a mistyped id drops that question's crowd forecasts
        crowd.write_text(crowd.read_text().replace("q-flt,", "q-fIt,"), encoding="utf-8")
        (tmp_path / "consensus.csv").write_text(
            "question_id,date,probability\nq-zzz,2022-02-01,0.4\n", encoding="utf-8"
        )
        raw = json.loads(path.read_text())
        raw["external_consensus_file"] = "consensus.csv"
        path.write_text(json.dumps(raw))
        report = run_pipeline(load_config(path))
        assert Source.CROWD not in report.results["q-flt"].forecasts
        assert report.warnings == [
            f"crowd file {crowd}: no configured question for ids ['q-fIt']",
            f"consensus file {tmp_path / 'consensus.csv'}: no configured question for ids "
            "['q-zzz']",
        ]

    def test_resolutions_file_lists_all_questions(self, tmp_path):
        path = build_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["questions"][1]["open_date"] = "2030-01-01"
        raw["questions"][1]["close_date"] = "2030-12-31"
        path.write_text(json.dumps(raw))
        config = load_config(path)
        report = run_pipeline(config)
        emit_report(report, config.output_dir)
        text = (config.output_dir / "resolutions.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "question_id,outcome,resolve_date,error"
        assert len(lines) == 3
        assert lines[1].startswith("q-flt,")
        assert lines[2].startswith("q-peg,,,")

    def test_error_with_quote_and_newline_reads_back_as_one_row(self, tmp_path):
        # resolve's "insufficient data" error holds the pair id as it is
        pair = 'PEG"\nUSD'
        path = build_config(tmp_path, with_crowd=False)
        raw = json.loads(path.read_text())
        raw["price_files"][1]["pair_id"] = pair
        raw["questions"][1].update(
            pair_id=pair, open_date="2030-01-01", close_date="2030-12-31", baseline_rate=3.75
        )
        path.write_text(json.dumps(raw))
        config = load_config(path)
        emit_report(run_pipeline(config), config.output_dir)
        with open(config.output_dir / "resolutions.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert [row[0] for row in rows] == ["question_id", "q-flt", "q-peg"]
        assert rows[2] == [
            "q-peg", "", "",
            "insufficient data: PEG'\nUSD has no observations in [2030-01-01, 2030-12-31]",
        ]

    def test_mean_curve_counts_open_questions(self, tmp_path):
        config = load_config(build_config(tmp_path))
        report = run_pipeline(config)
        curve = report.mean_curves["random_walk"]
        scores = [
            r.scores[Source.RANDOM_WALK]
            for r in report.results.values()
            if Source.RANDOM_WALK in r.scores
        ]
        maps = [dict(s.points) for s in scores]
        for d, m, n in curve:
            vals = [mp[d] for mp in maps if d in mp]
            assert n == len(vals)
            assert m == pytest.approx(sum(vals) / len(vals))

    def test_a_source_with_no_forecast_day_is_left_out(self, tmp_path):
        # q-wkd opens on a Saturday and resolves on Monday, so its window holds
        # no trading day: the random walk has no point, the crowd has two
        path = build_config(tmp_path)
        flt = random_walk_series("FLTUSD", seed=11, n=90, x0=1.0, sigma=0.008)
        friday, monday = flt.dates[19], flt.dates[20]
        assert (friday.weekday(), monday.weekday()) == (4, 0)
        weekend = (friday + dt.timedelta(days=1), friday + dt.timedelta(days=2))
        raw = json.loads(path.read_text())
        raw["questions"].append(
            {
                "question_id": "q-wkd",
                "pair_id": "FLTUSD",
                "open_date": weekend[0].isoformat(),
                "close_date": flt.dates[-1].isoformat(),
                "threshold_kind": "absolute_level",
                "threshold_value": flt.rate_on(monday) * 1.0001,
            }
        )
        path.write_text(json.dumps(raw))
        with (tmp_path / "crowd.csv").open("a", encoding="utf-8") as fh:
            fh.write(f"q-wkd,alice,{friday.isoformat()}T12:00:00Z,0.3\n")
        config = load_config(path)
        report = run_pipeline(config)

        wkd = report.results["q-wkd"]
        assert wkd.resolution.resolve_date == monday
        assert set(wkd.forecasts) == set(wkd.scores) == {Source.CROWD}
        paths = emit_report(report, config.output_dir)
        assert set(paths) == set(config.output_dir.iterdir())
        assert {p.name for p in paths if "q-wkd" in p.name} == {
            "forecast_q-wkd_crowd.csv",
            "scores_q-wkd_crowd.csv",
        }
        peg_days = report.results["q-peg"].scores[Source.CROWD].dates
        open_count = {d: n for d, _, n in report.mean_curves["crowd_only"]}
        assert wkd.scores[Source.CROWD].dates == weekend
        for d in weekend:
            assert open_count[d] == 1 + (d in peg_days)

    def test_external_consensus_outside_the_window_writes_no_crowd_file(self, tmp_path):
        path = build_config(tmp_path)
        flt = random_walk_series("FLTUSD", seed=11, n=90, x0=1.0, sigma=0.008)
        # q-flt opens on dates[15] and its window ends at its resolve date
        lines = ["question_id,date,probability"]
        lines += [f"q-flt,{d.isoformat()},0.42" for d in flt.dates[:15]]
        (tmp_path / "consensus.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        raw = json.loads(path.read_text())
        raw["external_consensus_file"] = "consensus.csv"
        path.write_text(json.dumps(raw))
        config = load_config(path)
        report = run_pipeline(config)
        flt_result = report.results["q-flt"]
        assert set(flt_result.forecasts) == set(flt_result.scores) == {Source.RANDOM_WALK}
        start, end = flt.dates[15], flt_result.resolution.resolve_date
        records = [r for r in load_crowd_csv(tmp_path / "crowd.csv") if r.question_id == "q-flt"]
        assert report.warnings == [
            f"consensus file {tmp_path / 'consensus.csv'}: q-flt: used in place of "
            f"{len(records)} crowd records",
            f"consensus file {tmp_path / 'consensus.csv'}: q-flt: dropped 15 points "
            f"outside [{start}, {end})",
        ]
        names = {p.name for p in emit_report(report, config.output_dir)}
        assert {n for n in names if "q-flt" in n} == {
            "forecast_q-flt_random_walk.csv",
            "scores_q-flt_random_walk.csv",
        }
        assert "forecast_q-peg_crowd.csv" in names


class TestNegativeZero:
    """A probability read as -0.0 is stored as 0.0, and never written as
    "-0.000000"."""

    @pytest.fixture
    def golden(self, tmp_path) -> Path:
        """A copy of the golden inputs; returns its config path."""
        shutil.copytree(GOLDEN, tmp_path / "in", ignore=shutil.ignore_patterns("expected"))
        return tmp_path / "in" / "config.json"

    @staticmethod
    def crowd_rows(files: dict[str, bytes]) -> list[str]:
        return files["forecast_gold-flt_crowd.csv"].decode().splitlines()[1:]

    def test_crowd_records(self, golden, tmp_path):
        crowd = golden.parent / "crowd.csv"
        lines = crowd.read_text(encoding="utf-8").splitlines()
        lines[1:] = [
            line.rpartition(",")[0] + ",-0.0" if line.startswith("gold-flt,") else line
            for line in lines[1:]
        ]
        crowd.write_text("\n".join(lines) + "\n", encoding="utf-8")
        files = run_to_dir(golden, tmp_path / "out")
        assert not any(b"-0.000000" in text for text in files.values())
        rows = self.crowd_rows(files)
        assert rows and all(row.endswith(",0.000000") for row in rows)

    def test_external_consensus(self, golden, tmp_path):
        (golden.parent / "consensus.csv").write_text(
            "question_id,date,probability\ngold-flt,2022-02-01,-0\n", encoding="utf-8"
        )
        raw = json.loads(golden.read_text(encoding="utf-8"))
        raw["external_consensus_file"] = "consensus.csv"
        golden.write_text(json.dumps(raw), encoding="utf-8")
        files = run_to_dir(golden, tmp_path / "out")
        assert not any(b"-0.000000" in text for text in files.values())
        assert self.crowd_rows(files) == ["2022-02-01,0.000000"]
