"""CSV ingestion for price data and forecast series."""

from __future__ import annotations

import csv
import datetime as dt
import math
from pathlib import Path

from .domain import ForecastSeries, PriceSeries, QuoteDirection, Source


def _read_rows(path: Path, expected_header: list[str]):
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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


def _parse_date(text: str, path: Path, lineno: int) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: bad date {text!r}") from exc


def _parse_probability(text: str, path: Path, lineno: int) -> float:
    try:
        p = float(text)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: bad probability {text!r}") from exc
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{path}:{lineno}: probability {p} outside [0, 1]")
    return p


def _sorted_by_date(rows: list[tuple[dt.date, float, int]], path: Path) -> tuple:
    """Date-sorted `(date, value)` pairs; a repeated date fails with its line."""
    rows.sort(key=lambda r: r[0])
    for (d1, _, _), (d2, _, ln2) in zip(rows, rows[1:]):
        if d1 == d2:
            raise ValueError(f"{path}:{ln2}: duplicate date {d2}")
    return tuple((d, v) for d, v, _ in rows)


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
    rows: list[tuple[dt.date, float, int]] = []
    for lineno, row in _read_rows(path, ["date", "rate"]):
        date = _parse_date(row[0], path, lineno)
        try:
            rate = float(row[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad rate {row[1]!r}") from exc
        if not 0.0 < rate < math.inf:
            raise ValueError(f"{path}:{lineno}: non-positive or non-finite rate {rate}")
        rows.append((date, rate, lineno))
    return PriceSeries(pair, _sorted_by_date(rows, path), quote_direction)


def parse_forecast_csv(
    path: str | Path, question_id: str, source: Source = Source.CROWD
) -> ForecastSeries:
    """Read a `date,p` CSV (the emitted forecast format) into a series.

    Rows may arrive unsorted; duplicate dates are rejected with line numbers.
    """
    path = Path(path)
    rows: list[tuple[dt.date, float, int]] = []
    for lineno, row in _read_rows(path, ["date", "p"]):
        date = _parse_date(row[0], path, lineno)
        rows.append((date, _parse_probability(row[1], path, lineno), lineno))
    return ForecastSeries(question_id, source, _sorted_by_date(rows, path))


def load_consensus_csv(path: str | Path) -> dict[str, ForecastSeries]:
    """Read an externally supplied consensus file, one series per question.

    Expected header: question_id,date,probability. The series are scored
    through the same path as internally aggregated crowd forecasts.
    """
    path = Path(path)
    grouped: dict[str, list[tuple[dt.date, float]]] = {}
    seen: dict[tuple[str, dt.date], int] = {}
    for lineno, row in _read_rows(path, ["question_id", "date", "probability"]):
        qid = row[0].strip()
        date = _parse_date(row[1], path, lineno)
        p = _parse_probability(row[2], path, lineno)
        if (qid, date) in seen:
            raise ValueError(
                f"{path}:{lineno}: duplicate entry for {qid} on {date} "
                f"(first at line {seen[(qid, date)]})"
            )
        seen[(qid, date)] = lineno
        grouped.setdefault(qid, []).append((date, p))
    return {
        qid: ForecastSeries(qid, Source.CROWD, tuple(sorted(points)))
        for qid, points in grouped.items()
    }
