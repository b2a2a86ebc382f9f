"""CSV ingestion: price files, forecast files, consensus files."""

from __future__ import annotations

import datetime as dt
import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxbarrier import (
    QuoteDirection,
    ingest_price_csv,
    load_consensus_csv,
    load_crowd_csv,
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

    def test_byte_order_mark_before_a_quoted_header(self, tmp_path):
        path = tmp_path / "eur.csv"
        path.write_text('\ufeff"date","rate"\r\n2022-01-03,1.05\r\n', encoding="utf-8")
        assert ingest_price_csv(path).points == ((D(2022, 1, 3), 1.05),)

    def test_byte_order_mark_and_a_quoted_line_break_keep_line_numbers(self, tmp_path):
        # a quoted line break makes the reader number the rows on a second
        # read of the file, which takes the mark off the quoted header too
        path = tmp_path / "eur.csv"
        path.write_text(
            '\ufeff"date\n",rate\n2022-01-03,1.05\n2022-01-04,abc\n', encoding="utf-8"
        )
        with pytest.raises(ValueError, match=r"eur.csv:4: bad rate 'abc'$"):
            ingest_price_csv(path)


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

    def test_negative_zero_is_stored_as_zero(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("date,p\n2022-06-01,-0.0\n2022-06-02,-0\n", encoding="utf-8")
        values = parse_forecast_csv(path, "q").values
        assert values == (0.0, 0.0)
        assert [math.copysign(1.0, v) for v in values] == [1.0, 1.0]


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
# Texts that do not parse: a date past the month's end, a slashed date, an
# empty field; a word, a lone exponent, an empty field.
_BAD_DATE_TEXTS = st.sampled_from(["2022-01-32", "2022/01/02", ""])
_BAD_VALUE_TEXTS = st.sampled_from(["abc", "1e", ""])


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.one_of(st.dates(D(2022, 1, 1), D(2022, 1, 10)), _BAD_DATE_TEXTS),
            st.one_of(_VALUES, _BAD_VALUE_TEXTS),
        ),
        max_size=12,
    ),
    keyed=st.booleans(),
    bom=st.booleans(),
    eol=st.sampled_from(["\n", "\r\n"]),
)
def test_read_dated_matches_row_by_row_oracle(tmp_path_factory, rows, keyed, bom, eol):
    """Unsorted rows, CRLF, a BOM, duplicate dates, non-finite values, and
    date and value texts that do not parse.

    Two-column files are read with the rate rule and keyed ones with the
    probability rule, as ingest_price_csv and load_consensus_csv do. The
    first row in file order with a bad date, then a bad value, then a value
    outside the rule, names the fault.
    """
    path = tmp_path_factory.mktemp("dated") / "x.csv"
    texts = [
        (k, d if isinstance(d, str) else d.isoformat(), v if isinstance(v, str) else repr(v))
        for k, d, v in rows
    ]
    if keyed:
        header, rule = ["question_id", "date", "probability"], _PROBABILITY
        lines = [",".join(t) for t in texts]

        def valid(v):
            return 0.0 <= v <= 1.0
    else:
        header, rule = ["date", "rate"], _RATE
        lines = [f"{d},{v}" for _, d, v in texts]
        rows = [("", d, v) for _, d, v in rows]

        def valid(v):
            return math.isfinite(v) and v > 0.0
    text = ("\ufeff" if bom else "") + eol.join([",".join(header)] + lines) + eol
    path.write_bytes(text.encode("utf-8"))
    where = re.escape(str(path))

    for line, (_, d, v), (_, d_text, v_text) in zip(itertools.count(2), rows, texts):
        if isinstance(d, str):
            fault = f"bad date {d_text!r}"
        elif isinstance(v, str):
            fault = f"bad {rule[0]} {v_text!r}"
        elif not valid(v):
            fault = rule[2].format(value=v, date=d)
        else:
            continue
        with pytest.raises(ValueError, match=rf"^{where}:{line}: {re.escape(fault)}$"):
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


def _forecast(path):
    return parse_forecast_csv(path, "q")


_PRICE = "date,rate\n"
_FORECAST = "date,p\n"
_CONSENSUS = "question_id,date,probability\n"
_CROWD = "question_id,forecaster_id,timestamp_rfc3339,probability\n"
_HUGE = "1" * 131_073  # one field over the csv module's 131,072-character limit
_OVER_LIMIT = "field larger than field limit (131072)"

# One fault per file, for each reader: (reader, file text, exact message).
_SINGLE_FAULTS = {
    "price-empty-file": (ingest_price_csv, "", "{path}: expected header 'date,rate', got None"),
    "price-header": (
        ingest_price_csv,
        "day,price\n2022-01-03,1.0\n",
        "{path}: expected header 'date,rate', got ['day', 'price']",
    ),
    "price-csv-error": (
        ingest_price_csv,
        _PRICE + f"2022-01-03,1.0\n2022-01-04,{_HUGE}\n",
        "{path}:3: " + _OVER_LIMIT,
    ),
    "price-field-count": (
        ingest_price_csv,
        _PRICE + "2022-01-03,1.0\n2022-01-04\n",
        "{path}:3: expected 2 fields, got 1",
    ),
    "price-date": (
        ingest_price_csv,
        _PRICE + "2022-01-03,1.0\n2022-01-32,1.0\n",
        "{path}:3: bad date '2022-01-32'",
    ),
    "price-date-padded": (
        ingest_price_csv,
        _PRICE + " 2022-01-03 ,1.0\n x ,1.0\n",
        "{path}:3: bad date ' x '",
    ),
    "price-value": (
        ingest_price_csv,
        _PRICE + "2022-01-03,1.0\n2022-01-04,abc\n",
        "{path}:3: bad rate 'abc'",
    ),
    "price-rule": (
        ingest_price_csv,
        _PRICE + "2022-01-03,1.0\n2022-01-04,-1.5\n",
        "{path}:3: non-positive or non-finite rate -1.5 at 2022-01-04",
    ),
    "price-rule-nan": (
        ingest_price_csv,
        _PRICE + "2022-01-03,1.0\n2022-01-04,nan\n2022-01-05,1.0\n",
        "{path}:3: non-positive or non-finite rate nan at 2022-01-04",
    ),
    "price-duplicate": (
        ingest_price_csv,
        _PRICE + "2022-01-04,1.0\n2022-01-03,1.1\n2022-01-04,1.2\n",
        "{path}:4: duplicate date 2022-01-04 (duplicate entry of line 2)",
    ),
    "price-blank-then-value": (
        ingest_price_csv,
        _PRICE + "2022-01-03,1.0\n\n2022-01-04,abc\n",
        "{path}:4: bad rate 'abc'",
    ),
    "price-blank-then-field-count": (
        ingest_price_csv,
        _PRICE + "\n2022-01-03,1.0\n\n2022-01-04,1.0,2.0\n",
        "{path}:5: expected 2 fields, got 3",
    ),
    "price-blank-then-duplicate": (
        ingest_price_csv,
        _PRICE + "2022-01-03,1.0\n\n\n2022-01-03,1.1\n",
        "{path}:5: duplicate date 2022-01-03 (duplicate entry of line 2)",
    ),
    "forecast-header": (
        _forecast,
        "date,prob\n2022-06-01,0.2\n",
        "{path}: expected header 'date,p', got ['date', 'prob']",
    ),
    "forecast-csv-error": (
        _forecast,
        _FORECAST + f"2022-06-01,{_HUGE}\n",
        "{path}:2: " + _OVER_LIMIT,
    ),
    "forecast-field-count": (
        _forecast,
        _FORECAST + "2022-06-01,0.2\n2022-06-02,0.3,x\n",
        "{path}:3: expected 2 fields, got 3",
    ),
    "forecast-date": (
        _forecast,
        _FORECAST + "2022-06-01,0.2\n2022/06/02,0.3\n",
        "{path}:3: bad date '2022/06/02'",
    ),
    "forecast-value": (
        _forecast,
        _FORECAST + "2022-06-01,0.2\n2022-06-02,\n",
        "{path}:3: bad probability ''",
    ),
    "forecast-rule": (
        _forecast,
        _FORECAST + "2022-06-01,0.2\n2022-06-02,1.5\n",
        "{path}:3: value 1.5 at 2022-06-02 outside [0.0, 1.0]",
    ),
    "forecast-duplicate": (
        _forecast,
        _FORECAST + "2022-06-02,0.3\n2022-06-01,0.2\n2022-06-02,0.4\n",
        "{path}:4: duplicate date 2022-06-02 (duplicate entry of line 2)",
    ),
    "forecast-blank-then-rule": (
        _forecast,
        _FORECAST + "\n\n2022-06-01,inf\n",
        "{path}:4: value inf at 2022-06-01 outside [0.0, 1.0]",
    ),
    "consensus-header": (
        load_consensus_csv,
        "question_id,date\n",
        "{path}: expected header 'question_id,date,probability', got ['question_id', 'date']",
    ),
    "consensus-csv-error": (
        load_consensus_csv,
        _CONSENSUS + f"a,2022-06-01,0.2\n\nb,{_HUGE},0.2\n",
        "{path}:4: " + _OVER_LIMIT,
    ),
    "consensus-field-count": (
        load_consensus_csv,
        _CONSENSUS + "a,2022-06-01,0.2\na,2022-06-02\n",
        "{path}:3: expected 3 fields, got 2",
    ),
    "consensus-date": (
        load_consensus_csv,
        _CONSENSUS + "a,2022-06-01,0.2\nb,June 2,0.2\n",
        "{path}:3: bad date 'June 2'",
    ),
    "consensus-value": (
        load_consensus_csv,
        _CONSENSUS + "a,2022-06-01,0.2\nb,2022-06-01,1e\n",
        "{path}:3: bad probability '1e'",
    ),
    "consensus-rule": (
        load_consensus_csv,
        _CONSENSUS + "a,2022-06-01,0.2\nb,2022-06-01,-0.1\n",
        "{path}:3: value -0.1 at 2022-06-01 outside [0.0, 1.0]",
    ),
    "consensus-duplicate": (
        load_consensus_csv,
        _CONSENSUS + "a,2022-06-01,0.2\nb,2022-06-01,0.3\n a ,2022-06-01,0.4\n",
        "{path}:4: duplicate date 2022-06-01 (duplicate entry of line 2)",
    ),
    "consensus-blank-then-date": (
        load_consensus_csv,
        _CONSENSUS + "a,2022-06-01,0.2\n\nb,,0.2\n",
        "{path}:4: bad date ''",
    ),
    "crowd-header": (
        load_crowd_csv,
        "who,when,what\n",
        "{path}: expected header "
        "'question_id,forecaster_id,timestamp_rfc3339,probability', got ['who', 'when', 'what']",
    ),
    "crowd-csv-error": (
        load_crowd_csv,
        _CROWD + f"q,a,2022-06-01T12:00:00Z,0.3\nq,{_HUGE},2022-06-01T12:00:00Z,0.3\n",
        "{path}:3: " + _OVER_LIMIT,
    ),
    "crowd-field-count": (
        load_crowd_csv,
        _CROWD + "q,a,2022-06-01T12:00:00Z,0.3\nq,b,2022-06-01T12:00:00Z\n",
        "{path}:3: expected 4 fields, got 3",
    ),
    "crowd-timestamp": (
        load_crowd_csv,
        _CROWD + "q,a,2022-06-01T12:00:00Z,0.3\nq,b,not-a-time,0.4\n",
        "{path}:3: Invalid isoformat string: 'not-a-time'",
    ),
    "crowd-value": (
        load_crowd_csv,
        _CROWD + "q,a,2022-06-01T12:00:00Z,0.3\nq,b,2022-06-01T12:00:00Z,x\n",
        "{path}:3: could not convert string to float: 'x'",
    ),
    "crowd-rule": (
        load_crowd_csv,
        _CROWD + "q,a,2022-06-01T12:00:00Z,0.3\n q , b ,2022-06-01T12:00:00Z,1.3\n",
        "{path}:3: q/b: probability 1.3 outside [0, 1]",
    ),
    "crowd-rule-nan": (
        load_crowd_csv,
        _CROWD + "q,a,2022-06-01T12:00:00Z,0.3\nq,b,2022-06-01T12:00:00Z,nan\n",
        "{path}:3: q/b: probability nan outside [0, 1]",
    ),
    "crowd-blank-then-timestamp": (
        load_crowd_csv,
        _CROWD + "\nq,a,2022-06-01T12:00:00Z,0.3\n\nq,b,2022-06-01,0.4\nq,c,12:00,0.4\n",
        "{path}:6: Invalid isoformat string: '12:00'",
    ),
    "crowd-time-out-of-range": (
        load_crowd_csv,
        _CROWD + "q,a,2022-06-01T12:00:00Z,0.3\nq,b,0001-01-01T00:00:00+05:00,0.4\n",
        "{path}:3: q/b: time 0001-01-01 00:00:00+05:00 is out of range in UTC",
    ),
    # A quoted field may hold a line break; a row's line is its first one.
    "price-value-after-line-break": (
        ingest_price_csv,
        _PRICE + '"2022-01-03\n",1.0\n2022-01-04,abc\n',
        "{path}:4: bad rate 'abc'",
    ),
    "price-duplicate-after-line-break": (
        ingest_price_csv,
        _PRICE + '2022-01-03,1.0\n"2022-01-04\n",1.1\n2022-01-04,1.2\n',
        "{path}:5: duplicate date 2022-01-04 (duplicate entry of line 3)",
    ),
    "crowd-rule-after-line-break": (
        load_crowd_csv,
        _CROWD + 'q,"a\n\n",2022-06-01T12:00:00Z,0.3\nq,b,2022-06-01T12:00:00Z,1.3\n',
        "{path}:5: q/b: probability 1.3 outside [0, 1]",
    ),
    "consensus-key-after-line-break": (
        load_consensus_csv,
        _CONSENSUS + '"a\n",2022-06-01,0.2\nb,2022-06-01,0.3\na,2022-06-01,0.4\n',
        "{path}:5: duplicate date 2022-06-01 (duplicate entry of line 2)",
    ),
}

# Files with two faults, and the one each reports. The csv module and the
# field count see the whole file before any content is checked, so their
# faults win over a content fault on an earlier line. Among content faults
# the earliest line wins, each row is checked date (or time) first, and
# duplicates are checked only once every row is valid.
_TWO_FAULTS = {
    "price-field-count-after-date": (
        ingest_price_csv,
        _PRICE + "x,1.0\n2022-01-04\n",
        "{path}:3: expected 2 fields, got 1",
    ),
    "price-csv-error-after-rule": (
        ingest_price_csv,
        _PRICE + f"2022-01-03,0\n2022-01-04,{_HUGE}\n",
        "{path}:3: " + _OVER_LIMIT,
    ),
    "consensus-csv-error-after-value": (
        load_consensus_csv,
        _CONSENSUS + f"a,2022-06-01,x\n\nb,2022-06-01,{_HUGE}\n",
        "{path}:4: " + _OVER_LIMIT,
    ),
    "crowd-field-count-after-timestamp": (
        load_crowd_csv,
        _CROWD + "q,a,not-a-time,0.3\nq,b\n",
        "{path}:3: expected 4 fields, got 2",
    ),
    "price-header-before-csv-error": (
        ingest_price_csv,
        f"day,rate\n2022-01-03,{_HUGE}\n",
        "{path}: expected header 'date,rate', got ['day', 'rate']",
    ),
    "price-rule-before-value": (
        ingest_price_csv,
        _PRICE + "2022-01-03,-1\n2022-01-04,abc\n",
        "{path}:2: non-positive or non-finite rate -1.0 at 2022-01-03",
    ),
    "price-value-before-date": (
        ingest_price_csv,
        _PRICE + "2022-01-03,abc\nx,1.0\n",
        "{path}:2: bad rate 'abc'",
    ),
    "price-date-before-value-in-one-row": (
        ingest_price_csv,
        _PRICE + "x,abc\n",
        "{path}:2: bad date 'x'",
    ),
    "forecast-value-after-duplicate": (
        _forecast,
        _FORECAST + "2022-06-01,0.2\n2022-06-01,0.3\n2022-06-02,2\n",
        "{path}:4: value 2.0 at 2022-06-02 outside [0.0, 1.0]",
    ),
    "crowd-value-before-timestamp": (
        load_crowd_csv,
        _CROWD + "q,a,2022-06-01T12:00:00Z,-0.5\nq,b,not-a-time,0.4\n",
        "{path}:2: q/a: probability -0.5 outside [0, 1]",
    ),
    "crowd-timestamp-before-value-in-one-row": (
        load_crowd_csv,
        _CROWD + "q,a,not-a-time,x\n",
        "{path}:2: Invalid isoformat string: 'not-a-time'",
    ),
    # Each column is converted up to its first text that does not parse, and
    # the rule is checked only on the values before it: these pin that the
    # earliest row still wins across the three columns' faults.
    "price-value-before-rule": (
        ingest_price_csv,
        _PRICE + "2022-01-03,abc\n2022-01-04,-1\n",
        "{path}:2: bad rate 'abc'",
    ),
    "price-date-before-rule": (
        ingest_price_csv,
        _PRICE + "x,1.0\n2022-01-04,-1\n",
        "{path}:2: bad date 'x'",
    ),
    "price-rule-before-date": (
        ingest_price_csv,
        _PRICE + "2022-01-03,0\ny,1.0\n",
        "{path}:2: non-positive or non-finite rate 0.0 at 2022-01-03",
    ),
    "consensus-rule-before-date-under-another-key": (
        load_consensus_csv,
        _CONSENSUS + "a,2022-06-01,0.2\nb,2022-06-01,1.5\na,June 2,0.3\n",
        "{path}:3: value 1.5 at 2022-06-01 outside [0.0, 1.0]",
    ),
    "crowd-value-before-rule": (
        load_crowd_csv,
        _CROWD + "q,a,2022-06-01T12:00:00Z,x\nq,b,2022-06-01T12:00:00Z,1.5\n",
        "{path}:2: could not convert string to float: 'x'",
    ),
    "crowd-rule-before-value": (
        load_crowd_csv,
        _CROWD + "q,a,2022-06-01T12:00:00Z,1.5\nq,b,2022-06-01T12:00:00Z,x\n",
        "{path}:2: q/a: probability 1.5 outside [0, 1]",
    ),
}


@pytest.mark.parametrize(
    "reader, text, message",
    list(_SINGLE_FAULTS.values()) + list(_TWO_FAULTS.values()),
    ids=list(_SINGLE_FAULTS) + list(_TWO_FAULTS),
)
def test_reader_fault_message(tmp_path, reader, text, message):
    path = tmp_path / "x.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value) == message.format(path=path)


# Bytes that are not UTF-8, for each reader: (reader, file bytes, exact
# message). Lines end at \r, \n or \r\n, as the csv module counts them, and
# the position counts bytes from the start of the line.
_UNDECODABLE = {
    "price": (
        ingest_price_csv,
        b"\xef\xbb\xbfdate,rate\r\n2022-01-03,1.0\r\n2022-01-04,1.0\r2022-01-05,1\xff.0\n",
        "{path}:4: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte",
    ),
    "price-past-the-first-read": (
        ingest_price_csv,
        _PRICE.encode() + b"2022-01-03,1.0\n" * 1000 + b"2022-01-04,\xff\n",
        "{path}:1002: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte",
    ),
    "forecast": (
        _forecast,
        b"date,p\n2022-06-01,0.2\n\n2022-06-02,0.\xe93\n",
        "{path}:4: 'utf-8' codec can't decode byte 0xe9 in position 13: "
        "invalid continuation byte",
    ),
    "consensus": (
        load_consensus_csv,
        _CONSENSUS.encode() + b"\xc3(,2022-06-01,0.2\n",
        "{path}:2: 'utf-8' codec can't decode byte 0xc3 in position 0: "
        "invalid continuation byte",
    ),
    "crowd": (
        load_crowd_csv,
        b"question_id,forecaster_id\xff,timestamp_rfc3339,probability\n",
        "{path}:1: 'utf-8' codec can't decode byte 0xff in position 25: invalid start byte",
    ),
}


@pytest.mark.parametrize(
    "reader, data, message", list(_UNDECODABLE.values()), ids=list(_UNDECODABLE)
)
def test_undecodable_byte_names_its_line(tmp_path, reader, data, message):
    path = tmp_path / "x.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value) == message.format(path=path)
