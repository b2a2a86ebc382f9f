"""CSV ingestion for price data and forecast series."""

from __future__ import annotations

import csv
import datetime as dt
from pathlib import Path

from .domain import _PROBABILITY, _RATE, ForecastSeries, PriceSeries, QuoteDirection, Source


def _read_rows(path: Path, expected_header: list[str]):
    """(line, row) for each non-empty data row; a row the csv module cannot
    parse (such as a field over its size limit) is a ValueError naming the line."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != expected_header:
                raise ValueError(
                    f"{path}: expected header {','.join(expected_header)!r}, got {header}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(expected_header):
                    raise ValueError(
                        f"{path}:{lineno}: expected {len(expected_header)} fields, "
                        f"got {len(row)}"
                    )
                yield lineno, row
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc


def _parse_date(text: str, path: Path, lineno: int) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: bad date {text!r}") from exc


def _read_dated(path: Path, header: list[str], rule) -> dict[str, tuple]:
    """`[key,] date, value` rows of a CSV as date-sorted points per key.

    The key is the first column of a three-column `header`; two-column rows
    all share the key "". Each value must satisfy the domain `rule`
    (`_RATE` or `_PROBABILITY`). Rows may arrive in any order; a bad value or
    a date repeated under one key fails with its path and line.
    """
    name, valid, message = rule
    grouped: dict[str, list[tuple[dt.date, float, int]]] = {}
    for lineno, row in _read_rows(path, header):
        *key, date_text, value_text = row
        date = _parse_date(date_text, path, lineno)
        try:
            value = float(value_text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad {name} {value_text!r}") from exc
        if not valid(value):
            raise ValueError(f"{path}:{lineno}: " + message.format(value=value, date=date))
        grouped.setdefault("".join(key).strip(), []).append((date, value, lineno))
    out = {}
    for key, rows in grouped.items():
        rows.sort(key=lambda r: r[0])
        for (d1, _, ln1), (d2, _, ln2) in zip(rows, rows[1:]):
            if d1 == d2:
                raise ValueError(
                    f"{path}:{ln2}: duplicate date {d2} (duplicate entry of line {ln1})"
                )
        out[key] = tuple((d, v) for d, v, _ in rows)
    return out


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
    # _read_dated has range-checked, sorted and duplicate-checked every row
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
