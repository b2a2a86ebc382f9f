"""Barrier-event exchange rate forecasting and forecast evaluation.

Forecasts the probability that a currency crosses a depreciation barrier
before a deadline using a rolling-volatility random walk (the closed-form
first-passage probability, with a seeded Monte Carlo estimator of the same
number as a reference), scores forecasts with the Brier rule, aggregates
individual crowd forecasts, and calibrates one method against another by OLS.
"""

from .calibration import PairedSample, RegressionResult, align_series, ols_fit, t_test
from .crowd import (
    ConsensusMethod,
    ConsensusParams,
    CrowdRecord,
    SnapshotEntry,
    combine_logit,
    community_prediction,
    crowd_series,
    latest_per_forecaster,
    load_crowd_csv,
)
from .domain import (
    ForecastSeries,
    PriceSeries,
    Question,
    QuoteDirection,
    Resolution,
    ScoreSeries,
    Source,
    ThresholdKind,
    barrier_rate,
    resolve,
    threshold_rate,
)
from .engine import (
    StepMode,
    VolatilityEstimate,
    analytic_barrier_probability,
    estimate_volatility,
    remaining_steps,
    rolling_forecast,
    simulate_barrier_probability,
)
from .io import ingest_price_csv, load_consensus_csv, parse_forecast_csv
from .pipeline import (
    PriceFileSpec,
    QuestionSpec,
    RunConfig,
    RunReport,
    emit_report,
    load_config,
    run_pipeline,
)
from .scoring import MeanScoreCurve, brier, mean_score_curve, score_series

__version__ = "0.1.0"

__all__ = [
    "ConsensusMethod",
    "ConsensusParams",
    "CrowdRecord",
    "ForecastSeries",
    "MeanScoreCurve",
    "PairedSample",
    "PriceFileSpec",
    "PriceSeries",
    "Question",
    "QuestionSpec",
    "QuoteDirection",
    "RegressionResult",
    "Resolution",
    "RunConfig",
    "RunReport",
    "ScoreSeries",
    "SnapshotEntry",
    "Source",
    "StepMode",
    "ThresholdKind",
    "VolatilityEstimate",
    "align_series",
    "analytic_barrier_probability",
    "barrier_rate",
    "brier",
    "combine_logit",
    "community_prediction",
    "crowd_series",
    "emit_report",
    "estimate_volatility",
    "ingest_price_csv",
    "latest_per_forecaster",
    "load_config",
    "load_consensus_csv",
    "load_crowd_csv",
    "mean_score_curve",
    "ols_fit",
    "parse_forecast_csv",
    "remaining_steps",
    "resolve",
    "rolling_forecast",
    "run_pipeline",
    "score_series",
    "simulate_barrier_probability",
    "t_test",
    "threshold_rate",
]
