"""The switch-on price mu0: below it every policy is off, and the dual
search starts above it."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greencell import optimal
from greencell.optimal import Problem
from greencell.params import SystemParams
from greencell.scaling import transmit_power_x
from greencell.traffic import from_table, triangular
from oracles import minimize_bounded

TRI = triangular(1e-4)
TABLE = from_table([0.0, 2e-5, 5e-5, 1e-4], [0.3, 1.0, 0.6, 0.1])
DISTS = {"triangular": TRI, "table": TABLE}
SETTINGS = [(pc, ps, alpha, name) for pc, ps in
            [(20.0, 0.0), (60.0, 30.0), (120.0, 0.0), (159.0, 0.0),
             (1e-6, 0.0)]
            for alpha in (2.1, 3.0, 4.5) for name in sorted(DISTS)]


def _watts_per_user(x, problem):
    """(a Pt(x, lambda_max) + Pc - Ps) / (pi lambda_max x)."""
    p, m = problem.params, problem.dist.lambda_max
    return ((p.amp_scaling * float(transmit_power_x(x, m, p))
             + p.static_power - p.sleep_power) / (math.pi * m * x))


@pytest.mark.parametrize("static,sleep,alpha,dist_name", SETTINGS)
def test_mu0_is_the_least_watts_per_user_at_lambda_max(static, sleep, alpha,
                                                       dist_name):
    problem = Problem(DISTS[dist_name],
                      SystemParams(static_power=static, sleep_power=sleep,
                                   pathloss_exp=alpha))
    top = math.log(problem.x_cap)
    _, least = minimize_bounded(
        lambda s: _watts_per_user(math.exp(s), problem), top - 40.0, top,
        1e-12)
    # the oracle never evaluates its end; at Pc 159 W the ratio falls up to
    # x_cap, where the cap binds
    least = min(least, _watts_per_user(problem.x_cap, problem))
    assert problem.mu0 == pytest.approx(least, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("static,sleep,alpha,dist_name", SETTINGS)
def test_every_policy_is_off_below_mu0_and_on_above(static, sleep, alpha,
                                                    dist_name):
    dist = DISTS[dist_name]
    p = SystemParams(static_power=static, sleep_power=sleep,
                     pathloss_exp=alpha)
    mu0 = Problem(dist, p).mu0
    assert optimal._avg_throughput([mu0 * (1.0 - 1e-9)], dist,
                                   p)[0].users == 0.0
    assert optimal._avg_throughput([mu0 * (1.0 + 1e-6)], dist,
                                   p)[0].users > 0.0


@pytest.mark.parametrize("static,alpha,want", [(20.0, 3.0, 0.297),
                                               (120.0, 4.5, 4.78)])
@pytest.mark.parametrize("dist_name", sorted(DISTS))
def test_mu0_at_the_low_and_high_static_settings(static, alpha, want,
                                                 dist_name):
    # the two ends of the mu0 range on the 156-solve grid
    p = SystemParams(static_power=static, pathloss_exp=alpha)
    assert Problem(DISTS[dist_name], p).mu0 == pytest.approx(want, abs=5e-3)


@given(alpha=st.floats(2.01, 6.0), static=st.floats(0.0, 300.0),
       headroom=st.floats(0.1, 300.0), sleep_share=st.floats(0.0, 1.0),
       amp=st.floats(1.0, 10.0), dist_name=st.sampled_from(sorted(DISTS)))
def test_mu0_is_zero_exactly_without_a_sleep_saving(alpha, static, headroom,
                                                   sleep_share, amp,
                                                   dist_name):
    p = SystemParams(pathloss_exp=alpha, static_power=static,
                     max_bs_power=static + headroom,
                     sleep_power=min(sleep_share * static, static),
                     amp_scaling=amp)
    mu0 = Problem(DISTS[dist_name], p).mu0
    assert (mu0 == 0.0) == (p.static_power == p.sleep_power)
    assert 0.0 <= mu0 < math.inf


def test_no_dual_evaluation_lands_at_or_below_mu0(monkeypatch):
    prices = []
    real = optimal._avg_throughput
    monkeypatch.setattr(optimal, "_avg_throughput",
                        lambda mus, dist, p: prices.extend(mus)
                        or real(mus, dist, p))
    for static, sleep, alpha, dist_name in SETTINGS:
        problem = Problem(DISTS[dist_name],
                          SystemParams(static_power=static, sleep_power=sleep,
                                       pathloss_exp=alpha))
        for fraction in (1e-8, 1e-3, 0.5, 0.99):
            prices.clear()
            _, m = optimal.solve(fraction * problem.cap, problem)
            assert min(prices) > problem.mu0
            assert m.avg_users >= fraction * problem.cap
