"""Golden-run regression test, audited against independent oracles.

The frozen outputs under tests/data/golden_run/expected were produced once and
are re-audited here on every run: forecasts against the closed-form
first-passage oracle, scores against direct Brier re-evaluation, curves
against recomputed means, and the calibration table against textbook normal
equations. The byte comparison then pins the exact engine output.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from fxbarrier import (
    Source,
    analytic_barrier_probability,
    brier,
    emit_report,
    estimate_volatility,
    ingest_price_csv,
    load_config,
    remaining_steps,
    run_pipeline,
)

GOLDEN = Path(__file__).parent / "data" / "golden_run"


@pytest.fixture(scope="module")
def golden_report(tmp_path_factory):
    config = load_config(GOLDEN / "config.json")
    report = run_pipeline(config)
    out = tmp_path_factory.mktemp("golden_out")
    emit_report(report, out)
    return config, report, out


def test_emitted_files_match_frozen_bytes(golden_report):
    _, _, out = golden_report
    expected = {p.name: p.read_bytes() for p in (GOLDEN / "expected").iterdir()}
    got = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(got) == sorted(expected)
    for name in sorted(expected):
        assert got[name] == expected[name], f"{name} differs from frozen output"


def test_resolutions_match_independent_scan(golden_report):
    config, report, _ = golden_report
    assert report.results["gold-flt"].resolution.outcome == 0
    assert report.results["gold-peg"].resolution.outcome == 0
    inv = ingest_price_csv(GOLDEN / "prices" / "inv.csv", "INVUSD", "ccy_per_usd")
    spec = next(q for q in config.questions if q.question_id == "gold-inv")
    open_rate = next(r for d, r in inv.points if d >= spec.open_date)
    barrier = open_rate / (1.0 - spec.threshold_value)
    crossing = next(
        d
        for d, r in inv.points
        if spec.open_date < d <= spec.close_date and r >= barrier
    )
    res = report.results["gold-inv"].resolution
    assert res.outcome == 1
    assert res.resolve_date == crossing


def test_random_walk_forecasts_track_analytic(golden_report):
    # the forecast is the closed form, so the audit holds bit for bit
    config, report, _ = golden_report
    prices = {
        pf.pair_id: ingest_price_csv(pf.path, pf.pair_id, pf.quote_direction)
        for pf in config.price_files
    }
    for spec in config.questions:
        result = report.results[spec.question_id]
        fs = result.forecasts.get(Source.RANDOM_WALK)
        if fs is None:
            continue
        series = prices[spec.pair_id]
        open_rate = next(r for d, r in series.points if d >= spec.open_date)
        if series.quote_direction.value == "ccy_per_usd":
            barrier = open_rate / (1.0 - spec.threshold_value)
            sign = -1.0
        else:
            barrier = open_rate * (1.0 - spec.threshold_value)
            sign = 1.0
        for d, p in fs.points:
            sigma = estimate_volatility(series, d)
            steps = remaining_steps(d, spec.close_date, config.step_mode)
            ana = analytic_barrier_probability(
                sign * series.rate_on(d), sigma, sign * barrier, steps
            )
            assert p == ana, (spec.question_id, d)


def test_scores_are_pointwise_brier(golden_report):
    _, report, _ = golden_report
    for result in report.results.values():
        k = result.resolution.outcome
        for source, ss in result.scores.items():
            fs = result.forecasts[source]
            assert ss.dates == fs.dates
            for (_, s), (_, p) in zip(ss.points, fs.points):
                assert s == brier(p, k)


def test_mean_curves_recompute_from_scores(golden_report):
    _, report, _ = golden_report
    rw_maps = [
        dict(r.scores[Source.RANDOM_WALK].points)
        for r in report.results.values()
        if Source.RANDOM_WALK in r.scores
    ]
    for d, m, n in report.mean_curves["random_walk"]:
        vals = [mp[d] for mp in rw_maps if d in mp]
        assert n == len(vals)
        assert m == pytest.approx(sum(vals) / len(vals), abs=1e-15)
    # the crossing question drops out of the curve after its resolve date
    inv_res = report.results["gold-inv"].resolution
    after = [n for d, _, n in report.mean_curves["random_walk"] if d >= inv_res.resolve_date]
    before = [n for d, _, n in report.mean_curves["random_walk"] if d < inv_res.resolve_date]
    assert max(before) == 2
    assert set(after) == {1}


def test_calibration_matches_normal_equations(golden_report):
    _, report, _ = golden_report
    pairs = []
    for result in report.results.values():
        rw = result.forecasts.get(Source.RANDOM_WALK)
        crowd = result.forecasts.get(Source.CROWD)
        if rw is None or crowd is None:
            continue
        crowd_map = dict(crowd.points)
        pairs += [(crowd_map[d], p) for d, p in rw.points if d in crowd_map]
    z = np.array([c for c, _ in pairs])
    y = np.array([x for _, x in pairs])
    n = len(z)
    xtx = np.array([[n, z.sum()], [z.sum(), (z * z).sum()]])
    xty = np.array([y.sum(), (z * y).sum()])
    beta = np.linalg.solve(xtx, xty)
    reg = report.regression
    assert reg.n == n
    assert reg.beta0 == pytest.approx(beta[0], rel=1e-9)
    assert reg.beta1 == pytest.approx(beta[1], rel=1e-9)
