"""End-to-end comparison pipeline: ingest, forecast, score, calibrate, emit.

The run configuration is a single declarative JSON file; all paths inside it
resolve relative to the file's directory. Questions are processed
independently (optionally in parallel) and merged in question-id order, so
report files are byte-identical across reruns and worker counts.
"""

from __future__ import annotations

import datetime as dt
import json
import re
import reprlib
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
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
    ThresholdKind,
    forecast_days,
    resolve,
)
from .engine import SimulationParams, rolling_forecast
from .io import ingest_price_csv, load_consensus_csv
from .scoring import MeanScoreCurve, mean_score_curve, score_series

_QID_RE = re.compile(r"^[A-Za-z0-9._-]+$")

# Curve names double as mean_scores_<name>.csv file stems. The crowd-only
# curve covers questions the random walk cannot forecast (pegged currencies).
RW_CURVE = "random_walk"
CROWD_CURVE = "crowd"
COMBINED_CURVE = "combined"
CROWD_ONLY_CURVE = "crowd_only"


@dataclass(frozen=True)
class PriceFileSpec:
    pair_id: str
    path: Path
    quote_direction: QuoteDirection = QuoteDirection.USD_PER_CCY


@dataclass(frozen=True)
class QuestionSpec:
    """One question as configured; the baseline may be derived from prices.

    When baseline_rate is absent it defaults to the first observed rate on or
    after the open date. history_start trims the price series before
    volatility estimation (some questions use longer pre-open windows), and
    non_floating marks pegged currencies the random walk cannot forecast.
    """

    question_id: str
    pair_id: str
    open_date: dt.date
    close_date: dt.date
    threshold_kind: ThresholdKind
    threshold_value: float
    baseline_rate: float | None = None
    scoring_start_date: dt.date | None = None
    history_start: dt.date | None = None
    non_floating: bool = False

    def to_question(self, series: PriceSeries) -> tuple[PriceSeries, Question]:
        """The question on `series`, and the series trimmed to history_start."""
        if self.history_start is not None:
            if self.history_start > self.open_date:
                raise ValueError(
                    f"{self.question_id}: history_start {self.history_start} is "
                    f"after open_date {self.open_date}"
                )
            series = series.window(start=self.history_start)
        baseline = self.baseline_rate
        if baseline is None:
            baseline = series.first_rate_on_or_after(self.open_date)
            if baseline is None:
                raise ValueError(
                    f"insufficient data: no observation on or after {self.open_date}"
                )
        question = Question(
            question_id=self.question_id,
            pair_id=self.pair_id,
            open_date=self.open_date,
            close_date=self.close_date,
            baseline_rate=baseline,
            threshold_kind=self.threshold_kind,
            threshold_value=self.threshold_value,
            scoring_start_date=self.scoring_start_date,
        )
        return series, question


@dataclass(frozen=True)
class RunConfig:
    price_files: tuple[PriceFileSpec, ...]
    questions: tuple[QuestionSpec, ...]
    sim: SimulationParams
    consensus: ConsensusParams = ConsensusParams()
    crowd_file: Path | None = None
    external_consensus_file: Path | None = None
    output_dir: Path = Path("out")
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        pairs = [p.pair_id for p in self.price_files]
        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate pair_id in price_files")
        qids = [q.question_id for q in self.questions]
        if len(set(qids)) != len(qids):
            raise ValueError("duplicate question_id in questions")
        if not self.questions:
            raise ValueError("config defines no questions")
        known = set(pairs)
        for q in self.questions:
            if not _QID_RE.match(q.question_id):
                raise ValueError(
                    f"question_id {q.question_id!r} must match {_QID_RE.pattern}"
                )
            if q.pair_id not in known:
                raise ValueError(
                    f"question {q.question_id!r}: no price file for pair "
                    f"{q.pair_id!r}"
                )


_OVERRIDES = {"seed", "n_paths", "step_mode", "output_dir", "workers"}

# The JSON type each field type is read from, and its name for errors; any
# other field type (str, an enum, a date, a path) is read from a string.
_JSON = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    tuple: (list, "a list"),
}


def _read(hint, value, where: str, key: str, base: Path):
    """The JSON `value` of field `key` of the entry at `where`, as a `hint`."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        hint = typing.get_args(hint)[0]  # `X | None`; a null never gets here
    if is_dataclass(hint):
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
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: bad value for {key!r}: {value!r}") from exc


def _build(cls, entry, where: str, base: Path, **given):
    """The dataclass `cls` read from the JSON object `entry` at `where`.

    Keys are field names, other than the fields `given` already built. An
    absent or null key takes the field's default; paths resolve against `base`.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected an object, got {reprlib.repr(entry)}")
    hints = typing.get_type_hints(cls)
    todo = [f for f in fields(cls) if f.name not in given]
    unknown = sorted(set(entry) - {f.name for f in todo})
    if unknown:
        raise ValueError(f"{where}: unknown fields {unknown}")
    for f in todo:
        if entry.get(f.name) is not None:
            given[f.name] = _read(hints[f.name], entry[f.name], where, f.name, base)
        elif f.default is MISSING:
            raise ValueError(f"{where}: missing required field {f.name!r}")
    try:
        return cls(**given)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def load_config(path: str | Path, **overrides) -> RunConfig:
    """Parse a JSON run configuration.

    The top-level keys are the fields of RunConfig (other than sim) and of
    SimulationParams. Recognised overrides: seed, n_paths, step_mode,
    output_dir, workers; an override of None counts as absent, and any other
    name is a TypeError. The seed must be explicit, in the file or as an override;
    Monte Carlo runs are never entropy-seeded.
    """
    unknown = sorted(set(overrides) - _OVERRIDES)
    if unknown:
        raise TypeError(f"load_config() got unknown overrides {unknown}")
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected an object, got {reprlib.repr(raw)}")
    raw.update((k, v) for k, v in overrides.items() if v is not None)
    if raw.get("seed") is None:
        raise ValueError(f"{path}: an explicit seed is required")
    if raw.get("output_dir") is None:  # beside the config, not the working directory
        raw["output_dir"] = RunConfig.output_dir
    sim_keys = {f.name for f in fields(SimulationParams)}
    sim = {k: v for k, v in raw.items() if k in sim_keys}
    rest = {k: v for k, v in raw.items() if k not in sim_keys}
    where, base = str(path), path.parent
    return _build(RunConfig, rest, where, base, sim=_build(SimulationParams, sim, where, base))


@dataclass
class QuestionResult:
    question: Question
    resolution: Resolution
    forecasts: dict[Source, ForecastSeries] = field(default_factory=dict)
    scores: dict[Source, ScoreSeries] = field(default_factory=dict)


@dataclass
class RunReport:
    """Everything one run produced, keyed by question id in sorted order."""

    results: dict[str, QuestionResult]
    errors: dict[str, str]
    mean_curves: dict[str, MeanScoreCurve]
    regression: RegressionResult | None
    warnings: list[str]


def _combined_series(
    rw: ForecastSeries, crowd: ForecastSeries, extremize_a: float
) -> ForecastSeries:
    crowd_map = dict(crowd.points)
    points = tuple(
        (d, combine_logit([p, crowd_map[d]], extremize_a))
        for d, p in rw.points
        if d in crowd_map
    )
    return ForecastSeries(rw.question_id, Source.COMBINED, points)


def _run_question(
    spec: QuestionSpec,
    prices: dict[str, PriceSeries],
    crowd_records: list[CrowdRecord],
    external: dict[str, ForecastSeries],
    sim: SimulationParams,
    consensus: ConsensusParams,
) -> QuestionResult:
    series, question = spec.to_question(prices[spec.pair_id])
    resolution = resolve(series, question)
    result = QuestionResult(question=question, resolution=resolution)

    if not spec.non_floating:
        rw = rolling_forecast(series, question, sim)
        if len(rw):
            result.forecasts[Source.RANDOM_WALK] = rw
            result.scores[Source.RANDOM_WALK] = score_series(rw, resolution)

    crowd_fs: ForecastSeries | None = None
    days = forecast_days(question, resolution)
    if spec.question_id in external:
        ext = external[spec.question_id]
        points = tuple(pt for pt in ext.points if pt[0] in days)
        crowd_fs = ForecastSeries(ext.question_id, ext.source, points)
    elif crowd_records:
        crowd_fs = crowd_series(crowd_records, question, days, consensus)
    if crowd_fs is not None and len(crowd_fs):
        result.forecasts[Source.CROWD] = crowd_fs
        result.scores[Source.CROWD] = score_series(crowd_fs, resolution)

    rw_fs = result.forecasts.get(Source.RANDOM_WALK)
    if rw_fs is not None and crowd_fs is not None and len(crowd_fs):
        combined = _combined_series(rw_fs, crowd_fs, consensus.extremize_a)
        if len(combined):
            result.forecasts[Source.COMBINED] = combined
            result.scores[Source.COMBINED] = score_series(combined, resolution)
    return result


def run_pipeline(config: RunConfig) -> RunReport:
    """Resolve, forecast, score, and calibrate every configured question.

    Per-question failures are recorded in the report rather than raised,
    unless every question fails. Results do not depend on the order of
    questions or price files in the config, nor on the worker count.
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
    configured = {q.question_id for q in config.questions}
    for name, file, qids in (
        ("crowd", config.crowd_file, {r.question_id for r in crowd_records}),
        ("consensus", config.external_consensus_file, set(external)),
    ):
        if stray := sorted(qids - configured):
            warnings.append(f"{name} file {file}: no configured question for ids {stray}")

    specs = sorted(config.questions, key=lambda q: q.question_id)

    def job(spec: QuestionSpec):
        if spec.pair_id in price_errors:
            return spec.question_id, None, price_errors[spec.pair_id]
        try:
            return spec.question_id, _run_question(
                spec, prices, crowd_records, external, config.sim, config.consensus
            ), None
        except ValueError as exc:
            return spec.question_id, None, str(exc)

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        outcomes = list(pool.map(job, specs))

    results: dict[str, QuestionResult] = {}
    errors: dict[str, str] = {}
    for qid, result, error in sorted(outcomes, key=lambda o: o[0]):
        if result is not None:
            results[qid] = result
        else:
            errors[qid] = error
    if not results:
        details = "; ".join(f"{qid}: {msg}" for qid, msg in sorted(errors.items()))
        raise ValueError(f"all questions failed: {details}")

    def scores(source: Source, qids) -> list[ScoreSeries]:
        return [results[q].scores[source] for q in sorted(qids) if source in results[q].scores]

    with_rw = {q for q, r in results.items() if Source.RANDOM_WALK in r.scores}
    with_crowd = {q for q, r in results.items() if Source.CROWD in r.scores}
    shared = sorted(with_rw & with_crowd)
    curve_scores = {
        RW_CURVE: scores(Source.RANDOM_WALK, with_rw),
        CROWD_CURVE: scores(Source.CROWD, shared),
        COMBINED_CURVE: scores(Source.COMBINED, shared),
        CROWD_ONLY_CURVE: scores(Source.CROWD, with_crowd - with_rw),
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


def _write_text(path: Path, text: str) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def emit_report(report: RunReport, output_dir: str | Path) -> list[Path]:
    """Write all report files with fixed 6-decimal formatting.

    Emits forecast_<question>_<source>.csv and scores_<question>_<source>.csv
    per non-empty series, mean_scores_<name>.csv per curve, resolutions.csv
    for every configured question (with any per-question error), and
    calibration.txt when a regression was fitted.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    order = [Source.RANDOM_WALK, Source.CROWD, Source.COMBINED]
    for qid in sorted(report.results):
        result = report.results[qid]
        for source in order:
            fs = result.forecasts.get(source)
            if fs is not None and len(fs):
                path = out / f"forecast_{qid}_{source.value}.csv"
                _write_text(path, format_series("p", fs.points))
                written.append(path)
            ss = result.scores.get(source)
            if ss is not None and len(ss):
                path = out / f"scores_{qid}_{source.value}.csv"
                _write_text(path, format_series("score", ss.points))
                written.append(path)

    for name in (RW_CURVE, CROWD_CURVE, COMBINED_CURVE, CROWD_ONLY_CURVE):
        curve = report.mean_curves.get(name)
        if curve is not None and len(curve):
            path = out / f"mean_scores_{name}.csv"
            rows = "".join(
                f"{d.isoformat()},{m:.6f},{n}\n" for d, m, n in curve.points
            )
            _write_text(path, "date,mean_score,n_open\n" + rows)
            written.append(path)

    rows = []
    for qid in sorted(set(report.results) | set(report.errors)):
        if qid in report.results:
            res = report.results[qid].resolution
            rows.append(f"{qid},{res.outcome},{res.resolve_date.isoformat()},\n")
        else:
            msg = report.errors[qid].replace('"', "'")
            rows.append(f'{qid},,,"{msg}"\n')
    path = out / "resolutions.csv"
    _write_text(path, "question_id,outcome,resolve_date,error\n" + "".join(rows))
    written.append(path)

    if report.regression is not None:
        path = out / "calibration.txt"
        _write_text(path, format_regression(report.regression))
        written.append(path)

    return sorted(written)
