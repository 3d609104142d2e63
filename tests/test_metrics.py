import numpy as np
import pytest

from greencell.metrics import PolicyMetrics, evaluate
from greencell.optimal import solve
from greencell.params import SystemParams
from greencell.scaling import bs_power
from greencell.suboptimal import frw_oofc
from greencell.traffic import triangular
from oracles import density_cdf

P = SystemParams(static_power=60.0)
DIST = triangular(1e-4)


def test_evaluate_constant_radius_policy():
    metrics = evaluate(lambda lam: 500.0, DIST, P)
    assert metrics.on_probability == pytest.approx(1.0, abs=1e-8)
    assert metrics.avg_power_w > P.static_power
    assert metrics.peak_bs_power_w >= metrics.avg_power_w


def test_evaluate_always_off_policy():
    metrics = evaluate(lambda lam: 0.0, DIST, P)
    assert metrics.avg_power_w == pytest.approx(P.sleep_power, abs=1e-12)
    assert metrics.avg_users == 0.0
    assert metrics.on_probability == 0.0


def test_evaluate_matches_solver_metrics():
    pol, solver_metrics = solve(60.0, DIST, P)
    metrics = evaluate(pol.radius_at, DIST, P, breakpoints=pol.breakpoints)
    for field, value in solver_metrics.as_dict().items():
        assert getattr(metrics, field) == pytest.approx(value, rel=1e-12), \
            field


def test_evaluate_calls_the_radius_map_once_on_an_array():
    calls = []

    def radius(lams):
        calls.append(lams)
        return np.where(lams > 5e-5, 300.0, 0.0)

    metrics = evaluate(radius, DIST, P, breakpoints=(5e-5,))
    assert len(calls) == 1 and calls[0].ndim == 1
    assert 5e-5 in calls[0] and DIST.lambda_max in calls[0]
    assert metrics.on_probability == pytest.approx(
        1.0 - float(density_cdf(DIST, 5e-5)), rel=1e-13)
    assert metrics.peak_bs_power_w == pytest.approx(
        bs_power(300.0, DIST.lambda_max, P), rel=1e-15)


def test_optimal_beats_fixed_radius_always_on():
    u_avg = 60.0
    _, opt = solve(u_avg, DIST, P)
    _, fixed = frw_oofc(u_avg, DIST, P)
    assert opt.avg_power_w < fixed.avg_power_w


def test_metrics_round_trip_dict():
    m = PolicyMetrics(avg_power_w=1.0, avg_users=2.0, on_probability=0.5,
                      peak_bs_power_w=3.0)
    assert m.as_dict() == {"avg_power_w": 1.0, "avg_users": 2.0,
                           "on_probability": 0.5, "peak_bs_power_w": 3.0}
