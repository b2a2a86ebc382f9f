"""End-to-end comparison pipeline: ingest, forecast, score, calibrate, emit.

The run configuration is a single declarative JSON file; all paths inside it
resolve relative to the file's directory. Questions run in question-id order
on the calling thread, so report files are byte-identical across reruns.
"""

from __future__ import annotations

import collections
import datetime as dt
import functools
import gc
import json
import re
import reprlib
import types
import typing
from pathlib import Path

from .calibration import RegressionResult, align_series, ols_fit
from .crowd import ConsensusParams, CrowdRecord, crowd_series, combine_logit, load_crowd_csv
from .domain import (
    ForecastSeries,
    PriceSeries,
    Question,
    QuoteDirection,
    Resolution,
    ScoreSeries,
    Source,
    _checked_make,
    forecast_days,
    resolve_closed,
)
from .engine import StepMode, rolling_forecast
from .io import ingest_price_csv, load_consensus_csv
from .scoring import mean_score_curve, score_series

_QID_RE = re.compile(r"^[A-Za-z0-9._-]+$")
_REPORT_FILE = re.compile(  # every name emit_report writes but resolutions.csv
    r"((forecast|scores)_.*_|mean_scores_)(random_walk|crowd|combined)\.csv"
    r"|mean_scores_crowd_only\.csv|calibration\.txt"
)


def _gc_paused(fn):
    """Run `fn` with the cyclic garbage collector off, then turn it back on
    only if it was on at the call, also when `fn` raises or exits.

    A run builds no reference cycles, so collecting during one frees almost
    nothing and mostly re-scans the objects the import left. The switch is
    process-wide; a nested call leaves it as it found it.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


class PriceFileSpec(typing.NamedTuple):
    pair_id: str
    path: Path
    quote_direction: QuoteDirection = QuoteDirection.USD_PER_CCY


class _RunConfigFields(typing.NamedTuple):
    price_files: tuple[PriceFileSpec, ...]
    questions: tuple[Question, ...]
    step_mode: StepMode = StepMode.TRADING_DAYS
    consensus: ConsensusParams = ConsensusParams()
    crowd_file: Path | None = None
    external_consensus_file: Path | None = None
    output_dir: Path = Path("out")


class RunConfig(_RunConfigFields):
    """A whole run: its inputs, how forecast steps are counted, and where to write.

    Every way of building a config checks it: the constructor, `_make`,
    `_replace`, pickle and copy.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunConfig:
        config = super().__new__(cls, *args, **kwargs)
        pairs = [p.pair_id for p in config.price_files]
        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate pair_id in price_files")
        qids = [q.question_id for q in config.questions]
        if len(set(qids)) != len(qids):
            raise ValueError("duplicate question_id in questions")
        if not config.questions:
            raise ValueError("config defines no questions")
        known = set(pairs)
        for q in config.questions:
            if not _QID_RE.fullmatch(q.question_id):
                raise ValueError(
                    f"question_id {q.question_id!r} must match {_QID_RE.pattern}"
                )
            if q.pair_id not in known:
                raise ValueError(
                    f"question {q.question_id!r}: no price file for pair "
                    f"{q.pair_id!r}"
                )
        return config

    _make = classmethod(_checked_make)


# Inputs that once set the Monte Carlo forecast and the question threads.
# They change no output now, but configs and scripts still pass them, so they
# are checked as they were (`check_retired`), then dropped.
_RETIRED = ("seed", "n_paths", "workers")
_OVERRIDES = {*_RETIRED, "step_mode", "output_dir"}

# The JSON type each field type is read from, and its name for errors; any
# other field type (str, an enum, a date, a path) is read from a string.
_JSON = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    tuple: (list, "a list"),
}
# Each config record's field types, its string annotations evaluated once
_type_hints = functools.cache(typing.get_type_hints)


def _read(hint, value, where: str, key: str, base: Path):
    """The JSON `value` of field `key` of the entry at `where`, as a `hint`."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        hint = typing.get_args(hint)[0]  # `X | None`; a null never gets here
    if hasattr(hint, "_fields"):  # a config record
        return _build(hint, value, f"{where}: {key}", base)
    origin = typing.get_origin(hint) or hint
    kinds, name = _JSON.get(origin, ((str, Path), "a string"))
    # bool is an int subclass: only a bool field takes true or false
    if not isinstance(value, kinds) or isinstance(value, bool) != (hint is bool):
        raise ValueError(f"{where}: {key!r} must be {name}, got {reprlib.repr(value)}")
    if origin is tuple:
        item = typing.get_args(hint)[0]
        return tuple(_read(item, v, where, f"{key}[{i}]", base) for i, v in enumerate(value))
    try:
        if hint is dt.date:
            return dt.date.fromisoformat(value)
        if hint is Path:
            return (base / value).resolve()
        return hint(value)
    except (TypeError, ValueError, OverflowError) as exc:  # an int too large for a float
        raise ValueError(f"{where}: bad value for {key!r}: {reprlib.repr(value)}") from exc


def _build(cls, entry, where: str, base: Path):
    """The config record `cls` read from the JSON object `entry` at `where`.

    Keys are field names. An absent or null key takes the field's default;
    paths resolve against `base`.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected an object, got {reprlib.repr(entry)}")
    hints = _type_hints(cls)
    unknown = sorted(set(entry) - set(cls._fields))
    if unknown:
        raise ValueError(f"{where}: unknown fields {unknown}")
    given = {}
    for name in cls._fields:
        if entry.get(name) is not None:
            given[name] = _read(hints[name], entry[name], where, name, base)
        elif name not in cls._field_defaults:
            raise ValueError(f"{where}: missing required field {name!r}")
    try:
        return cls(**given)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def check_retired(
    seed: int | None = None, n_paths: int | None = None, workers: int | None = None
) -> None:
    """Reject a retired input that breaks the rule it had when it was read.

    Each value is an int, or None for absent. The rules run n_paths, seed,
    workers, so inputs with several faults name the one they always named.
    """
    if n_paths is not None and n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if seed is not None and not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    if workers is not None and workers < 1:
        raise ValueError("workers must be at least 1")


def load_config(path: str | Path, **overrides) -> RunConfig:
    """Parse a JSON run configuration.

    The top-level keys are the fields of RunConfig, plus the retired keys
    seed, n_paths and workers: each must still be an integer that meets
    `check_retired`'s rule, and none changes the run. Recognised overrides:
    seed, n_paths, step_mode, output_dir, workers; an override of None counts
    as absent, and any other name is a TypeError.
    """
    unknown = sorted(set(overrides) - _OVERRIDES)
    if unknown:
        raise TypeError(f"load_config() got unknown overrides {unknown}")
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        # not JSON, not UTF-8, an int over the digit limit, or nested too deep
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected an object, got {reprlib.repr(raw)}")
    raw.update((k, v) for k, v in overrides.items() if v is not None)
    if raw.get("output_dir") is None:  # beside the config, not the working directory
        raw["output_dir"] = RunConfig._field_defaults["output_dir"]
    where, base = str(path), path.parent
    retired = {k: raw.pop(k) for k in _RETIRED if k in raw}
    retired = {k: _read(int, v, where, k, base) for k, v in retired.items() if v is not None}
    try:
        check_retired(**retired)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    return _build(RunConfig, raw, where, base)


class QuestionResult(typing.NamedTuple):
    """One question's outcome, and its forecasts and scores by source.

    `forecasts` holds only non-empty series, and `scores` has the same keys.
    """

    question: Question
    resolution: Resolution
    forecasts: dict[Source, ForecastSeries]
    scores: dict[Source, ScoreSeries]


class RunReport(typing.NamedTuple):
    """Everything one run produced, keyed by question id in sorted order."""

    results: dict[str, QuestionResult]
    errors: dict[str, str]
    mean_curves: dict[str, tuple[tuple[dt.date, float, int], ...]]
    regression: RegressionResult | None
    warnings: list[str]


def _run_question(
    question: Question,
    prices: dict[str, PriceSeries],
    crowd_records: list[CrowdRecord],
    external: dict[str, ForecastSeries],
    step_mode: StepMode,
    consensus: ConsensusParams,
) -> QuestionResult:
    """One question's resolution, forecasts and scores; `crowd_records` are its own.

    A source whose series has no forecast day is dropped here, once: it is
    neither scored nor kept, so it never reaches the report.
    """
    series = prices[question.pair_id]
    resolution = resolve_closed(series, question)
    forecasts: dict[Source, ForecastSeries] = {}
    if not question.non_floating:
        forecasts[Source.RANDOM_WALK] = rolling_forecast(series, question, step_mode)
    days = forecast_days(question, resolution)
    if question.question_id in external:
        ext = external[question.question_id]
        points = tuple(pt for pt in ext.points if pt[0] in days)
        forecasts[Source.CROWD] = ForecastSeries(ext.question_id, ext.source, points)
    elif crowd_records:
        forecasts[Source.CROWD] = crowd_series(crowd_records, question, days, consensus)
    if Source.RANDOM_WALK in forecasts and Source.CROWD in forecasts:
        crowd = dict(forecasts[Source.CROWD].points)
        points = tuple(
            (d, combine_logit([p, crowd[d]], consensus.extremize_a))
            for d, p in forecasts[Source.RANDOM_WALK].points
            if d in crowd
        )
        forecasts[Source.COMBINED] = ForecastSeries(question.question_id, Source.COMBINED, points)
    forecasts = {source: fs for source, fs in forecasts.items() if len(fs)}
    scores = {source: score_series(fs, resolution) for source, fs in forecasts.items()}
    return QuestionResult(question, resolution, forecasts, scores)


@_gc_paused
def run_pipeline(config: RunConfig) -> RunReport:
    """Resolve, forecast, score, and calibrate every configured question.

    Questions run in id order on the calling thread; a failure is recorded
    in the report, not raised, unless every question fails. Results do not
    depend on the config's order of questions or price files.
    An external consensus series is used in place of its question's crowd
    records, with a warning when there are any. Its points outside the
    question's window are dropped with a warning, as `fxbarrier score` drops them.
    """
    warnings: list[str] = []
    prices: dict[str, PriceSeries] = {}
    price_errors: dict[str, str] = {}
    for pf in sorted(config.price_files, key=lambda p: p.pair_id):
        try:
            prices[pf.pair_id] = ingest_price_csv(pf.path, pf.pair_id, pf.quote_direction)
        except (OSError, ValueError) as exc:
            price_errors[pf.pair_id] = str(exc)

    crowd_records: list[CrowdRecord] = []
    if config.crowd_file is not None:
        crowd_records = load_crowd_csv(config.crowd_file)
        if not crowd_records:
            warnings.append(f"crowd file {config.crowd_file} contains no records")
    external: dict[str, ForecastSeries] = {}
    if config.external_consensus_file is not None:
        external = load_consensus_csv(config.external_consensus_file)
        if not external:
            warnings.append(
                f"consensus file {config.external_consensus_file} contains no series"
            )
    crowd_by_question: dict[str, list[CrowdRecord]] = collections.defaultdict(list)
    for record in crowd_records:  # a list per question, not one per record
        crowd_by_question[record.question_id].append(record)
    configured = {q.question_id for q in config.questions}
    for name, file, qids in (
        ("crowd", config.crowd_file, set(crowd_by_question)),
        ("consensus", config.external_consensus_file, set(external)),
    ):
        if stray := sorted(qids - configured):
            warnings.append(f"{name} file {file}: no configured question for ids {stray}")

    results: dict[str, QuestionResult] = {}
    errors: dict[str, str] = {}
    for q in sorted(config.questions, key=lambda q: q.question_id):
        if q.pair_id in price_errors:
            errors[q.question_id] = price_errors[q.pair_id]
            continue
        try:
            crowd = crowd_by_question.get(q.question_id, [])
            results[q.question_id] = _run_question(
                q, prices, crowd, external, config.step_mode, config.consensus
            )
        except ValueError as exc:
            errors[q.question_id] = str(exc)
            continue
        if q.question_id in external:  # _run_question kept its points in the window
            where = f"consensus file {config.external_consensus_file}: {q.question_id}"
            if crowd:
                warnings.append(f"{where}: used in place of {len(crowd)} crowd records")
            result = results[q.question_id]
            dropped = len(external[q.question_id]) - len(result.forecasts.get(Source.CROWD, ()))
            if dropped:
                end = result.resolution.resolve_date
                warnings.append(
                    f"{where}: dropped {dropped} points outside [{q.scoring_start}, {end})"
                )
    if not results:
        details = "; ".join(f"{qid}: {msg}" for qid, msg in sorted(errors.items()))
        raise ValueError(f"all questions failed: {details}")

    def scores(source: Source, qids) -> list[ScoreSeries]:
        return [results[q].scores[source] for q in sorted(qids) if source in results[q].scores]

    with_rw = {q for q, r in results.items() if Source.RANDOM_WALK in r.scores}
    with_crowd = {q for q, r in results.items() if Source.CROWD in r.scores}
    shared = sorted(with_rw & with_crowd)
    # Curve names double as mean_scores_<name>.csv file stems. The crowd-only
    # curve covers questions the random walk cannot forecast (pegged currencies).
    curve_scores = {
        "random_walk": scores(Source.RANDOM_WALK, with_rw),
        "crowd": scores(Source.CROWD, shared),
        "combined": scores(Source.COMBINED, shared),
        "crowd_only": scores(Source.CROWD, with_crowd - with_rw),
    }
    mean_curves = {
        name: mean_score_curve(series) for name, series in curve_scores.items() if series
    }

    regression: RegressionResult | None = None
    if shared:
        try:
            samples = align_series(
                [results[q].forecasts[Source.RANDOM_WALK] for q in shared],
                [results[q].forecasts[Source.CROWD] for q in shared],
            )
            regression = ols_fit(samples)
        except ValueError as exc:
            warnings.append(f"calibration skipped: {exc}")

    return RunReport(
        results=results,
        errors=errors,
        mean_curves=mean_curves,
        regression=regression,
        warnings=warnings,
    )


def format_regression(result: RegressionResult) -> str:
    """Fixed-format text for the calibration report and CLI."""
    lines = [
        "OLS calibration: random_walk = beta0 + beta1 * crowd",
        "note: classical standard errors on a pooled daily panel; serial",
        "correlation makes them descriptive rather than inferential",
        f"n: {result.n}",
        f"nulls: beta0 = {result.null0:.6f}, beta1 = {result.null1:.6f}",
        f"{'term':<12}{'estimate':>12}{'std_error':>12}{'t_value':>12}{'p_value':>14}",
        (
            f"{'intercept':<12}{result.beta0:>12.6f}{result.se0:>12.6f}"
            f"{result.t0:>12.5f}{result.p0:>14.6g}"
        ),
        (
            f"{'crowd':<12}{result.beta1:>12.6f}{result.se1:>12.6f}"
            f"{result.t1:>12.5f}{result.p1:>14.6g}"
        ),
        f"r_squared: {result.r_squared:.6f}",
    ]
    return "\n".join(lines) + "\n"


def format_series(column: str, points) -> str:
    """A `date,<column>` CSV of dated values with fixed 6-decimal formatting."""
    rows = "".join(f"{d.isoformat()},{v:.6f}\n" for d, v in points)
    return f"date,{column}\n" + rows


@_gc_paused
def emit_report(report: RunReport, output_dir: str | Path) -> list[Path]:
    """Write all report files with fixed 6-decimal formatting.

    Emits forecast_<question>_<source>.csv and scores_<question>_<source>.csv
    per source in a result's `forecasts`, which holds only sources with a
    forecast day, mean_scores_<name>.csv per curve, resolutions.csv for every
    configured question (with any per-question error), and calibration.txt
    when a regression was fitted. Any other file with such a name in
    `output_dir` is removed, so a reused directory holds one report; files
    with other names are left alone. Returns the written paths, sorted.
    """
    files: dict[str, str] = {}
    for qid, result in report.results.items():
        for source, fs in result.forecasts.items():
            ss = result.scores[source]
            files[f"forecast_{qid}_{source.value}.csv"] = format_series("p", fs.points)
            files[f"scores_{qid}_{source.value}.csv"] = format_series("score", ss.points)
    for name, curve in report.mean_curves.items():
        rows = "".join(f"{d.isoformat()},{m:.6f},{n}\n" for d, m, n in curve)
        files[f"mean_scores_{name}.csv"] = "date,mean_score,n_open\n" + rows

    rows = []
    for qid in sorted(set(report.results) | set(report.errors)):
        if qid in report.results:
            res = report.results[qid].resolution
            rows.append(f"{qid},{res.outcome},{res.resolve_date.isoformat()},\n")
        else:
            msg = report.errors[qid].replace('"', "'")
            rows.append(f'{qid},,,"{msg}"\n')
    files["resolutions.csv"] = "question_id,outcome,resolve_date,error\n" + "".join(rows)
    if report.regression:
        files["calibration.txt"] = format_regression(report.regression)

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for path in out.iterdir():
        if path.name not in files and _REPORT_FILE.fullmatch(path.name):
            path.unlink()
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8", newline="\n")
    return sorted(out / name for name in files)
