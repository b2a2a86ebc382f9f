"""CSV ingestion: price files, forecast files, consensus files."""

from __future__ import annotations

import datetime as dt
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxbarrier import (
    QuoteDirection,
    ingest_price_csv,
    load_consensus_csv,
    parse_forecast_csv,
)
from fxbarrier.domain import _PROBABILITY, _RATE
from fxbarrier.io import _read_dated

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
        # one field over the csv module's 131,072-character limit
        path.write_text(f"date,rate\n2022-01-03,{'1' * 131_073}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"eur.csv:2: field larger than field limit"):
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


    def test_byte_order_mark_is_accepted(self, tmp_path):
        path = tmp_path / "consensus.csv"
        path.write_bytes(b"\xef\xbb\xbfquestion_id,date,probability\r\na,2022-06-01,0.2\r\n")
        assert load_consensus_csv(path)["a"].points == ((D(2022, 6, 1), 0.2),)


# Values on both sides of both rules: 0.0 and 2.0 are a bad rate and a good
# probability or the reverse; the non-finite ones break both rules.
_VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=2.0),
    st.sampled_from([0.0, 2.0, -1.0, math.nan, math.inf, -math.inf]),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.dates(D(2022, 1, 1), D(2022, 1, 10)),
            _VALUES,
        ),
        max_size=12,
    ),
    keyed=st.booleans(),
    bom=st.booleans(),
    eol=st.sampled_from(["\n", "\r\n"]),
)
def test_read_dated_matches_row_by_row_oracle(tmp_path_factory, rows, keyed, bom, eol):
    """Unsorted rows, CRLF, a BOM, duplicate dates and non-finite values.

    Two-column files are read with the rate rule and keyed ones with the
    probability rule, as ingest_price_csv and load_consensus_csv do.
    """
    path = tmp_path_factory.mktemp("dated") / "x.csv"
    if keyed:
        header, rule = ["question_id", "date", "probability"], _PROBABILITY
        lines = [f"{k},{d.isoformat()},{v!r}" for k, d, v in rows]

        def valid(v):
            return 0.0 <= v <= 1.0
    else:
        header, rule = ["date", "rate"], _RATE
        lines = [f"{d.isoformat()},{v!r}" for _, d, v in rows]
        rows = [("", d, v) for _, d, v in rows]

        def valid(v):
            return math.isfinite(v) and v > 0.0
    text = ("\ufeff" if bom else "") + eol.join([",".join(header)] + lines) + eol
    path.write_bytes(text.encode("utf-8"))
    where = re.escape(str(path))

    bad = [i + 2 for i, (_, _, v) in enumerate(rows) if not valid(v)]
    if bad:
        with pytest.raises(ValueError, match=rf"^{where}:{bad[0]}: "):
            _read_dated(path, header, rule)
        return
    lines_of: dict[str, dict[dt.date, list[int]]] = {}
    for i, (k, d, _) in enumerate(rows):
        lines_of.setdefault(k, {}).setdefault(d, []).append(i + 2)
    for by_date in lines_of.values():
        dups = [(d, ls[1]) for d, ls in sorted(by_date.items()) if len(ls) > 1]
        if dups:
            d, line = dups[0]
            with pytest.raises(ValueError, match=rf"^{where}:{line}: duplicate date {d}"):
                _read_dated(path, header, rule)
            return
    expected = {k: tuple(sorted((d, v) for kk, d, v in rows if kk == k)) for k in lines_of}
    assert _read_dated(path, header, rule) == expected
