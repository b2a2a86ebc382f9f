"""CSV ingestion: price files, forecast files, consensus files."""

from __future__ import annotations

import datetime as dt

import pytest

from fxbarrier import (
    QuoteDirection,
    ingest_price_csv,
    load_consensus_csv,
    parse_forecast_csv,
)

from conftest import random_walk_series, write_price_csv

D = dt.date


class TestIngestPriceCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "eur.csv"
        path.write_text("date,rate\n2022-01-03,1.05\n2022-01-04,1.04\n", encoding="utf-8")
        series = ingest_price_csv(path)
        assert series.pair_id == "eur"
        assert series.points == ((D(2022, 1, 3), 1.05), (D(2022, 1, 4), 1.04))
        assert series.quote_direction is QuoteDirection.USD_PER_CCY

    def test_explicit_pair_and_direction(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("date,rate\n2022-01-03,130\n", encoding="utf-8")
        series = ingest_price_csv(path, "JPYUSD", QuoteDirection.CCY_PER_USD)
        assert series.pair_id == "JPYUSD"
        assert series.quote_direction is QuoteDirection.CCY_PER_USD

    def test_zero_rate_reports_line(self, tmp_path):
        path = tmp_path / "eur.csv"
        for bad in ("0", "nan", "inf", "-inf"):
            path.write_text(f"date,rate\n2022-01-03,1.05\n2022-01-04,{bad}\n", encoding="utf-8")
            with pytest.raises(ValueError, match="eur.csv:3: non-positive"):
                ingest_price_csv(path)

    def test_unsorted_input_matches_presorted(self, tmp_path):
        series = random_walk_series(seed=6, n=30)
        sorted_path = write_price_csv(tmp_path / "sorted.csv", series)
        shuffled = list(series.points)
        shuffled.reverse()
        lines = ["date,rate"] + [f"{d.isoformat()},{r!r}" for d, r in shuffled]
        unsorted_path = tmp_path / "unsorted.csv"
        unsorted_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        a = ingest_price_csv(sorted_path, "X")
        b = ingest_price_csv(unsorted_path, "X")
        assert a == b

    def test_duplicate_date_is_an_error(self, tmp_path):
        path = tmp_path / "eur.csv"
        path.write_text(
            "date,rate\n2022-01-03,1.05\n2022-01-03,1.06\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="duplicate date 2022-01-03"):
            ingest_price_csv(path)

    def test_malformed_rows_report_lines(self, tmp_path):
        path = tmp_path / "eur.csv"
        path.write_text("date,rate\nnot-a-date,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="eur.csv:2.*bad date"):
            ingest_price_csv(path)
        path.write_text("date,rate\n2022-01-03,abc\n", encoding="utf-8")
        with pytest.raises(ValueError, match="eur.csv:2.*bad rate"):
            ingest_price_csv(path)
        path.write_text("date,rate\n2022-01-03\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 2 fields"):
            ingest_price_csv(path)

    def test_wrong_header_is_an_error(self, tmp_path):
        path = tmp_path / "eur.csv"
        path.write_text("day,price\n2022-01-03,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected header"):
            ingest_price_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest_price_csv(tmp_path / "absent.csv")


class TestParseForecastCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("date,p\n2022-06-01,0.250000\n2022-06-02,0.300000\n", encoding="utf-8")
        series = parse_forecast_csv(path, "q")
        assert series.question_id == "q"
        assert series.points == ((D(2022, 6, 1), 0.25), (D(2022, 6, 2), 0.3))

    def test_out_of_range_probability(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("date,p\n2022-06-01,1.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="f.csv:2"):
            parse_forecast_csv(path, "q")

    def test_duplicate_date_reports_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "date,p\n2022-06-02,0.3\n2022-06-01,0.2\n2022-06-02,0.4\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="f.csv:4: duplicate date 2022-06-02"):
            parse_forecast_csv(path, "q")


class TestLoadConsensusCsv:
    def test_groups_by_question(self, tmp_path):
        path = tmp_path / "consensus.csv"
        path.write_text(
            "question_id,date,probability\n"
            "b,2022-06-02,0.4\n"
            "a,2022-06-01,0.2\n"
            "a,2022-06-02,0.3\n",
            encoding="utf-8",
        )
        series = load_consensus_csv(path)
        assert sorted(series) == ["a", "b"]
        assert series["a"].points == ((D(2022, 6, 1), 0.2), (D(2022, 6, 2), 0.3))

    def test_duplicate_question_date_is_an_error(self, tmp_path):
        path = tmp_path / "consensus.csv"
        path.write_text(
            "question_id,date,probability\na,2022-06-01,0.2\na,2022-06-01,0.3\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="duplicate entry"):
            load_consensus_csv(path)
