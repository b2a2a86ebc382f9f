"""Command-line interface: forecast, run, score, and calibrate subcommands."""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import shutil
import sys
from pathlib import Path

from .calibration import align_series, ols_fit
from .domain import Question, QuoteDirection, Source, ThresholdKind, forecast_days, resolve_closed
from .engine import StepMode, rolling_forecast
from .io import ingest_price_csv, parse_forecast_csv
from .pipeline import (
    _gc_paused,
    check_retired,
    emit_report,
    format_regression,
    format_series,
    load_config,
    run_pipeline,
)
from .scoring import score_series


def _date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an ISO date (YYYY-MM-DD), got {text!r}"
        ) from None


def _add_question_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--prices", required=True, help="price CSV (date,rate)")
    parser.add_argument("--pair-id", default=None, help="defaults to the file stem")
    parser.add_argument(
        "--quote-direction",
        choices=[d.value for d in QuoteDirection],
        default=QuoteDirection.USD_PER_CCY.value,
    )
    parser.add_argument("--question-id", default="question")
    parser.add_argument("--open", dest="open_date", type=_date, required=True)
    parser.add_argument("--close", dest="close_date", type=_date, required=True)
    parser.add_argument(
        "--threshold-kind",
        choices=[k.value for k in ThresholdKind],
        default=ThresholdKind.RELATIVE_DEPRECIATION.value,
    )
    parser.add_argument("--threshold-value", type=float, required=True)
    parser.add_argument(
        "--baseline",
        type=float,
        default=None,
        help="defaults to the first rate on or after the open date",
    )
    parser.add_argument("--scoring-start", type=_date, default=None)
    parser.add_argument("--history-start", type=_date, default=None)


def _build_question(args) -> tuple:
    series = ingest_price_csv(
        args.prices, args.pair_id, QuoteDirection(args.quote_direction)
    )
    question = Question(
        question_id=args.question_id,
        pair_id=series.pair_id,
        open_date=args.open_date,
        close_date=args.close_date,
        threshold_kind=ThresholdKind(args.threshold_kind),
        threshold_value=args.threshold_value,
        baseline_rate=args.baseline,
        scoring_start_date=args.scoring_start,
        history_start=args.history_start,
    )
    return series, question


def _cmd_forecast(args) -> int:
    series, question = _build_question(args)
    check_retired(seed=args.seed, n_paths=args.paths)
    # a forecast reads no rate after close, so volatility's prefix sums
    # (built once per series) need not cover the rest of the file
    history = series.window(end=question.close_date)
    forecast = rolling_forecast(history, question, StepMode(args.step_mode))
    sys.stdout.write(format_series("p", forecast.points))
    return 0


def _cmd_score(args) -> int:
    series, question = _build_question(args)
    resolution = resolve_closed(series, question)
    forecast = parse_forecast_csv(
        args.forecast, question.question_id, Source(args.source)
    )
    days = forecast_days(question, resolution)
    kept = tuple(pt for pt in forecast.points if pt[0] in days)
    dropped = len(forecast) - len(kept)
    if dropped:
        sys.stderr.write(
            f"warning: dropped {dropped} forecast points outside "
            f"[{question.scoring_start}, {resolution.resolve_date})\n"
        )
    scores = score_series(
        type(forecast)(forecast.question_id, forecast.source, kept), resolution
    )
    sys.stdout.write(format_series("score", scores.points))
    return 0


def _cmd_calibrate(args) -> int:
    rw = parse_forecast_csv(args.x_file, "question", Source.RANDOM_WALK)
    crowd = parse_forecast_csv(args.crowd_file, "question", Source.CROWD)
    samples = align_series([rw], [crowd])
    result = ols_fit(samples, null0=args.null0, null1=args.null1)
    sys.stdout.write(format_regression(result))
    return 0


def _cmd_run(args) -> int:
    config = load_config(
        args.config,
        seed=args.seed,
        n_paths=args.paths,
        step_mode=args.step_mode,
        output_dir=None if args.out is None else Path(args.out).resolve(),
        workers=args.workers,
    )
    report = run_pipeline(config)
    for line in report.warnings:
        sys.stderr.write(f"warning: {line}\n")
    written = emit_report(report, config.output_dir)
    for qid in sorted(report.results):
        res = report.results[qid].resolution
        sys.stdout.write(f"{qid}: k={res.outcome} resolved {res.resolve_date}\n")
    for qid in sorted(report.errors):
        sys.stdout.write(f"{qid}: failed ({report.errors[qid]})\n")
    sys.stdout.write(f"wrote {len(written)} files to {config.output_dir}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # HelpFormatter asks for the terminal size whenever its width is None,
    # which argparse does dozens of times while building; ask once instead
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    parser = argparse.ArgumentParser(
        prog="fxbarrier",
        formatter_class=formatter,
        description=(
            "Forecast barrier-crossing probabilities for exchange rates with the "
            "closed-form first passage of a rolling-volatility random walk, score "
            "forecasts with the Brier rule, and run the full comparison pipeline."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, formatter_class=formatter)

    p = add_parser("forecast", help="print a rolling forecast for one question")
    _add_question_args(p)
    p.add_argument("--seed", type=int, default=None, help="retired: checked, then ignored")
    p.add_argument("--paths", type=int, default=None, help="retired: checked, then ignored")
    p.add_argument(
        "--step-mode",
        choices=[m.value for m in StepMode],
        default=StepMode.TRADING_DAYS.value,
    )
    p.set_defaults(func=_cmd_forecast)

    p = add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="retired: checked, then ignored")
    p.add_argument("--paths", type=int, default=None, help="retired: checked, then ignored")
    p.add_argument("--step-mode", choices=[m.value for m in StepMode], default=None)
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--workers", type=int, default=None, help="retired: checked, then ignored")
    p.set_defaults(func=_cmd_run)

    p = add_parser("score", help="score an external forecast CSV against prices")
    _add_question_args(p)
    p.add_argument("--forecast", required=True, help="forecast CSV (date,p)")
    p.add_argument(
        "--source", choices=[s.value for s in Source], default=Source.CROWD.value
    )
    p.set_defaults(func=_cmd_score)

    p = add_parser("calibrate", help="regress one forecast CSV on another")
    p.add_argument("--x-file", required=True, help="response series CSV (date,p)")
    p.add_argument("--crowd-file", required=True, help="regressor series CSV (date,p)")
    p.add_argument("--null0", type=float, default=0.0)
    p.add_argument("--null1", type=float, default=1.0)
    p.set_defaults(func=_cmd_calibrate)

    return parser


@_gc_paused
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
