"""The library's value types: every way of building a checked record checks it,
and no value can be changed once built."""

from __future__ import annotations

import copy
import datetime as dt
import pickle
from pathlib import Path

import numpy as np
import pytest

from fxbarrier import (
    ConsensusMethod,
    ConsensusParams,
    ForecastSeries,
    PairedSample,
    PriceFileSpec,
    PriceSeries,
    Question,
    QuoteDirection,
    RegressionResult,
    Resolution,
    RunConfig,
    RunReport,
    Source,
    StepMode,
    ThresholdKind,
)
from fxbarrier.pipeline import QuestionResult

D = dt.date
FLT = PriceFileSpec("FLTUSD", Path("flt.csv"))
QUESTION = Question("q", "FLTUSD", D(2022, 1, 31), D(2022, 7, 1), "relative_depreciation", 0.06)

# Per checked type: its fields as given, with values that the type coerces;
# the same fields as stored; one change that breaks a check; and its message.
CHECKED = {
    Question: (
        dict(
            question_id="q",
            pair_id="FLTUSD",
            open_date=D(2022, 1, 31),
            close_date=D(2022, 7, 1),
            threshold_kind="absolute_level",
            threshold_value=1,
            baseline_rate=2,
            scoring_start_date=D(2022, 2, 1),
            history_start=D(2022, 1, 3),
            non_floating=False,
        ),
        dict(threshold_kind=ThresholdKind.ABSOLUTE_LEVEL, threshold_value=1.0, baseline_rate=2.0),
        dict(threshold_value=-1.0),
        r"^q: absolute threshold must be positive and finite$",
    ),
    Resolution: (
        dict(question_id="q", outcome=np.int64(1), resolve_date=D(2022, 3, 1)),
        dict(outcome=1),
        dict(outcome=True),
        r"^q: outcome must be 0, 1 or None$",
    ),
    PairedSample: (
        dict(question_id="q", date=D(2022, 3, 1), x=0.25, crowd=0.5),
        {},
        dict(crowd=1.5),
        r"^crowd value 1.5 outside \[0, 1\]$",
    ),
    ConsensusParams: (
        dict(method="logit_combine", extremize_a=1.5, recency_shape=0.0),
        dict(method=ConsensusMethod.LOGIT_COMBINE),
        dict(extremize_a=0.0),
        r"^extremize_a must be positive and finite$",
    ),
    RunConfig: (
        dict(
            price_files=(FLT,),
            questions=(QUESTION,),
            step_mode=StepMode.CALENDAR_DAYS,
            consensus=ConsensusParams(),
            crowd_file=Path("crowd.csv"),
            external_consensus_file=None,
            output_dir=Path("report"),
        ),
        {},
        dict(price_files=(FLT, FLT)),
        r"^duplicate pair_id in price_files$",
    ),
}


def unchecked(cls, fields: dict):
    """A record of `cls` holding `fields` as given, built without its checks."""
    return tuple.__new__(cls, (fields[name] for name in cls._fields))


# Each way of building a record of `cls` from a complete dict of its fields.
BUILDS = {
    "constructor": lambda cls, f: cls(**f),
    "positional": lambda cls, f: cls(*(f[name] for name in cls._fields)),
    "make": lambda cls, f: cls._make(f[name] for name in cls._fields),
    "replace": lambda cls, f: cls(**CHECKED[cls][0])._replace(**f),
    "pickle": lambda cls, f: pickle.loads(pickle.dumps(unchecked(cls, f))),
    "copy": lambda cls, f: copy.copy(unchecked(cls, f)),
    "deepcopy": lambda cls, f: copy.deepcopy(unchecked(cls, f)),
}


class TestCheckedRecords:
    @pytest.mark.parametrize("build", list(BUILDS.values()), ids=list(BUILDS))
    @pytest.mark.parametrize("cls", list(CHECKED), ids=lambda cls: cls.__name__)
    def test_every_way_of_building_checks_and_coerces(self, cls, build):
        given, coerced, bad, message = CHECKED[cls]
        record = build(cls, given)
        assert type(record) is cls
        stored = {**given, **coerced}
        for name, value in zip(cls._fields, record):
            assert type(value) is type(stored[name]) and value == stored[name], name
        with pytest.raises(ValueError, match=message):
            build(cls, {**given, **bad})

    @pytest.mark.parametrize("cls", list(CHECKED), ids=lambda cls: cls.__name__)
    def test_a_record_is_the_tuple_of_its_fields(self, cls):
        record = cls(**CHECKED[cls][0])
        assert tuple(record) == record and hash(tuple(record)) == hash(record)
        assert record._asdict() == dict(zip(cls._fields, record))
        assert repr(record).startswith(f"{cls.__name__}({cls._fields[0]}=")


def _series_and_records():
    """One instance of each of the eleven value types."""
    points = ((D(2022, 1, 3), 1), (D(2022, 1, 4), 1.25))
    forecast = ForecastSeries("q", "crowd", ((D(2022, 1, 3), 0.5),))
    regression = RegressionResult(*([0.0] * 9), 3, 0.0, 1.0, (0.0, 0.0, 0.0))
    result = QuestionResult(QUESTION, Resolution("q", 0, D(2022, 7, 1)), {}, {})
    return [
        PriceSeries("FLTUSD", points, "ccy_per_usd"),
        forecast,
        regression,
        FLT,
        result,
        RunReport({"q": result}, {}, {}, None, []),
        *(cls(**given) for cls, (given, *_) in CHECKED.items()),
    ]


@pytest.mark.parametrize("value", _series_and_records(), ids=lambda v: type(v).__name__)
def test_no_field_can_be_set(value):
    fields = getattr(value, "_fields", None) or value.__match_args__
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)


class TestSeries:
    def test_repr_is_the_three_fields(self):
        points = ((D(2022, 1, 3), 1), (D(2022, 1, 4), 1.25))
        assert repr(PriceSeries("FLTUSD", points, "ccy_per_usd")) == (
            "PriceSeries(pair_id='FLTUSD', points=((datetime.date(2022, 1, 3), 1.0), "
            "(datetime.date(2022, 1, 4), 1.25)), "
            "quote_direction=<QuoteDirection.CCY_PER_USD: 'ccy_per_usd'>)"
        )
        assert repr(ForecastSeries("q", "crowd", ((D(2022, 1, 3), 0.5),))) == (
            "ForecastSeries(question_id='q', source=<Source.CROWD: 'crowd'>, "
            "points=((datetime.date(2022, 1, 3), 0.5),))"
        )

    def test_pickle_and_copy_round_trip_through_the_check(self):
        prices = PriceSeries("FLTUSD", ((D(2022, 1, 3), 1.0), (D(2022, 1, 4), 1.25)))
        scores = ForecastSeries("q", Source.CROWD, ((D(2022, 1, 3), 0.5),))
        for series in (prices, scores):
            for clone in (
                pickle.loads(pickle.dumps(series)),
                copy.copy(series),
                copy.deepcopy(series),
            ):
                assert clone == series and type(clone) is type(series)
        # a series that skipped the check cannot be unpickled or copied
        unchecked_prices = PriceSeries._trusted("X", ((D(2022, 1, 3), -1.0),), "usd_per_ccy")
        with pytest.raises(ValueError, match="non-positive or non-finite rate -1.0"):
            pickle.loads(pickle.dumps(unchecked_prices))
        with pytest.raises(ValueError, match="non-positive or non-finite rate -1.0"):
            copy.copy(unchecked_prices)

    def test_equal_series_compare_and_hash_as_their_fields(self):
        a = PriceSeries("FLTUSD", ((D(2022, 1, 3), 1),), QuoteDirection.USD_PER_CCY)
        b = PriceSeries("FLTUSD", ((D(2022, 1, 3), 1.0),), "usd_per_ccy")
        assert a == b and hash(a) == hash(b) == hash(("FLTUSD", a.points, a.quote_direction))
        assert a != PriceSeries("FLTUSD", ((D(2022, 1, 3), 1.0),), "ccy_per_usd")
        # one series is not the other kind, nor the tuple of its fields
        forecast = ForecastSeries("FLTUSD", "crowd", ((D(2022, 1, 3), 1.0),))
        assert a != forecast and a != ("FLTUSD", a.points, a.quote_direction)
