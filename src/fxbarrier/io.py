"""CSV ingestion for price data and forecast series."""

from __future__ import annotations

import codecs
import contextlib
import csv
import datetime as dt
import itertools
import operator
from pathlib import Path
from typing import Sequence

from .domain import _PROBABILITY, _RATE, ForecastSeries, PriceSeries, QuoteDirection, Source
from .domain import _obeys


def _csv_reader(fh):
    """A csv reader over an open text file, past one leading byte-order mark.

    The mark is taken off the first line, not by the `utf-8-sig` codec, and
    the file is never sought, so it may be a pipe.
    """
    first = fh.readline().removeprefix("\ufeff")
    return csv.reader(itertools.chain([first] if first else [], fh))


def _read_rows(path: Path, expected_header: list[str]) -> tuple[Sequence[int], list[tuple]]:
    """`(lines, columns)`: the file's non-empty data rows, one tuple of field
    texts per header column, and the line number of each row.

    The header is checked first, then the whole file is read at once: a byte
    that is not UTF-8 or a row the csv module cannot parse (such as a field
    over its size limit), and then the first row with a wrong field count, is
    a ValueError naming its line; in a pipe, which cannot be read again, the
    bad byte is named without one. All are found before any field is read, so
    they win over a bad field on an earlier line. A row's line is its first
    physical line, counted as the csv module counts them from the header's 1,
    blank rows included; only a file whose rows do not all take one line each
    is read a second time to number them, so such a file cannot be a pipe.
    """
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            reader = _csv_reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != expected_header:
                raise ValueError(
                    f"{path}: expected header {','.join(expected_header)!r}, got {header}"
                )
            rows = list(reader)
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:  # decoded ahead of the rows: find its line in the bytes
            raw = path.read_bytes().removeprefix(codecs.BOM_UTF8) if path.is_file() else b""
            for lineno, line in enumerate(raw.splitlines(), start=1):  # splits as csv counts
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise ValueError(f"{path}:{lineno}: {bad}") from exc
            # a pipe cannot be read again, and exc's position is within a decoded chunk
            fault = f"can't decode byte {exc.object[exc.start]:#04x}: {exc.reason}"
            raise ValueError(f"{path}: {exc.encoding!r} codec {fault}") from exc
    width = len(expected_header)
    lines: Sequence[int] = range(2, len(rows) + 2)
    if reader.line_num != len(rows) + 1:  # a quoted field holds a line break
        with path.open(newline="", encoding="utf-8") as fh:
            reader = _csv_reader(fh)
            ends = [reader.line_num for _ in reader]  # last lines of the header and each row
        if len(ends) != len(rows) + 1:  # a pipe reads empty the second time
            raise ValueError(
                f"{path}: a quoted field holds a line break, and a second read to number "
                f"the rows found {max(len(ends) - 1, 0)} of its {len(rows)} rows"
            )
        lines = [end + 1 for end in ends[:-1]]
    if set(map(len, rows)) - {width}:  # a wrong field count, or a blank row
        for lineno, row in zip(lines, rows):
            if row and len(row) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        lines = [lineno for lineno, row in zip(lines, rows) if row]
        rows = list(filter(None, rows))
    return lines, list(zip(*rows)) or [()] * width


def _date_sorted(path: Path, lines, dates: list, values: list) -> tuple:
    """The points of one key in date order; a repeated date is a ValueError
    naming its later line and the earlier one."""
    if all(map(operator.lt, dates, dates[1:])):
        return tuple(zip(dates, values))
    order = sorted(range(len(dates)), key=dates.__getitem__)
    for i, j in zip(order, order[1:]):
        if dates[i] == dates[j]:
            raise ValueError(
                f"{path}:{lines[j]}: duplicate date {dates[j]} "
                f"(duplicate entry of line {lines[i]})"
            )
    return tuple((dates[i], values[i]) for i in order)


def _read_dated(path: Path, header: list[str], rule) -> dict[str, tuple]:
    """`[key,] date, value` rows of a CSV as date-sorted points per key.

    The key is the first column of a three-column `header`; two-column rows
    all share the key "". Each value must satisfy the domain `rule`
    (`_RATE` or `_PROBABILITY`). Rows may arrive in any order.

    Each column is converted once, and each conversion stops at its column's
    first text that does not parse, so the length of what it converted is the
    index of that row. The value rule is checked over the whole column, and
    only if it fails is the column scanned for its first failing row. Of these
    three rows the earliest fails with its path and line, and on one row the
    date goes before the value and the value before the rule, as a row-by-row
    read would report it. Then each key whose dates are not already strictly
    increasing is sorted, and a date repeated under it fails with both lines.
    """
    lines, (*keys, date_texts, value_texts) = _read_rows(path, header)
    name, valid, message = rule
    dates: list[dt.date] = []
    values: list[float] = []
    with contextlib.suppress(ValueError):
        dates.extend(map(dt.date.fromisoformat, map(str.strip, date_texts)))
    with contextlib.suppress(ValueError):
        values.extend(map(float, value_texts))
    outside = len(values)
    if not _obeys(values, valid):
        outside = next(i for i, value in enumerate(values) if not valid(value))
    row = min(len(dates), len(values), outside)
    if row < len(lines):
        if row == len(dates):
            fault = f"bad date {date_texts[row]!r}"
        elif row == len(values):
            fault = f"bad {name} {value_texts[row]!r}"
        else:
            fault = message.format(value=values[row], date=dates[row])
        raise ValueError(f"{path}:{lines[row]}: {fault}")
    if not keys:
        return {"": _date_sorted(path, lines, dates, values)} if dates else {}
    rows_of: dict[str, list[int]] = {}
    for i, key in enumerate(map(str.strip, keys[0])):
        rows_of.setdefault(key, []).append(i)
    return {
        key: _date_sorted(
            path, [lines[i] for i in rows], [dates[i] for i in rows], [values[i] for i in rows]
        )
        for key, rows in rows_of.items()
    }


def ingest_price_csv(
    path: str | Path,
    pair_id: str | None = None,
    quote_direction: QuoteDirection = QuoteDirection.USD_PER_CCY,
) -> PriceSeries:
    """Read a `date,rate` CSV into a price series.

    Dates are ISO-8601 and may arrive unsorted; rows are sorted by date.
    Non-positive or non-finite rates and duplicate dates are rejected with
    line numbers.
    """
    path = Path(path)
    pair = pair_id if pair_id is not None else path.stem
    points = _read_dated(path, ["date", "rate"], _RATE).get("", ())
    # _read_dated has range-checked, sorted and duplicate-checked every point
    return PriceSeries._trusted(pair, points, quote_direction)


def parse_forecast_csv(
    path: str | Path, question_id: str, source: Source = Source.CROWD
) -> ForecastSeries:
    """Read a `date,p` CSV (the emitted forecast format) into a series.

    Rows may arrive unsorted; duplicate dates are rejected with line numbers.
    """
    path = Path(path)
    points = _read_dated(path, ["date", "p"], _PROBABILITY).get("", ())
    return ForecastSeries(question_id, source, points)


def load_consensus_csv(path: str | Path) -> dict[str, ForecastSeries]:
    """Read an externally supplied consensus file, one series per question.

    Expected header: question_id,date,probability. The series are scored
    through the same path as internally aggregated crowd forecasts.
    """
    grouped = _read_dated(Path(path), ["question_id", "date", "probability"], _PROBABILITY)
    return {qid: ForecastSeries(qid, Source.CROWD, points) for qid, points in grouped.items()}
