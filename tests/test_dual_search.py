"""The dual search: exact du/dmu, evaluation counts, last-evaluation metrics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, event, example, given
from hypothesis import strategies as st

from greencell import cli, optimal, scaling, suboptimal
from greencell.metrics import evaluate
from greencell.optimal import (CASE_A, CASE_B, critical_densities,
                               max_achievable_throughput, solve)
from greencell.params import SystemParams
from greencell.traffic import from_table, triangular

TRI = triangular(1e-4)
TABLE = from_table([0.0, 2e-5, 5e-5, 1e-4], [0.3, 1.0, 0.6, 0.1])
DISTS = {"triangular": TRI, "table": TABLE}
# table profile 0 of the benchmark's solve pool
TABLE0 = from_table(np.linspace(0.0, 1e-4, 9),
                    [0.25, 6.25, 9.25, 6.25, 6.25, 4.25, 2.25, 6.25, 7.25])
# the last price of the bracket's gallop in ``solve``
GALLOP_END = 2.0 ** 261


def _throughput(mu, dist, p):
    return optimal._avg_throughput(mu, dist, p)[0]


def _smooth_between(mu_lo, mu_hi, dist, p):
    """No regime change and no pdf kink is crossed between the two prices."""
    a, b = (critical_densities(m, p) for m in (mu_lo, mu_hi))
    kinks = (*dist.breakpoints, dist.lambda_max)
    return a.case_tag == b.case_tag and all(
        (u < k) == (v < k) for k in kinks
        for u, v in ((a.on_cutoff, b.on_cutoff), (a.lambda2, b.lambda2)))


def _slope_error(static, sleep, alpha, dist_name, fraction):
    """Case tag at the optimal mu, the relative error of du/dmu there
    against a Richardson-extrapolated central difference of u, and whether
    u is smooth over the difference's stencil."""
    p = SystemParams(static_power=static, sleep_power=sleep,
                     pathloss_exp=alpha)
    dist = DISTS[dist_name]
    pol, _ = solve(fraction * max_achievable_throughput(dist, p), dist, p)
    mu, h = pol.mu, 1e-3 * pol.mu

    def central(step):
        return (_throughput(mu + step, dist, p)
                - _throughput(mu - step, dist, p)) / (2.0 * step)

    want = (4.0 * central(0.5 * h) - central(h)) / 3.0
    _, got, _ = optimal._avg_throughput(mu, dist, p)
    return (pol.case_tag, abs(got - want) / abs(want),
            _smooth_between(mu - h, mu + h, dist, p))


@given(static=st.floats(20.0, 155.0), sleep_share=st.floats(0.0, 0.95),
       alpha=st.sampled_from([3.0, 3.7]),
       dist_name=st.sampled_from(sorted(DISTS)),
       fraction=st.floats(0.02, 0.95))
@example(static=155.0, sleep_share=5.0 / 155.0, alpha=3.0, dist_name="table",
         fraction=0.5)
# case B with Ps = 70 W: the switch-on cut-off is lambda3, inside the support
@example(static=140.0, sleep_share=0.5, alpha=3.0, dist_name="triangular",
         fraction=0.3)
def test_slope_matches_central_differences(static, sleep_share, alpha,
                                           dist_name, fraction):
    # the sleep power is a share of the static power, so any Ps <= Pc
    case, err, smooth = _slope_error(static, sleep_share * static, alpha,
                                     dist_name, fraction)
    assume(smooth)
    event(case)
    assert err <= 1e-6


@pytest.mark.parametrize("static,case", [(20.0, CASE_A), (155.0, CASE_B)])
@pytest.mark.parametrize("dist_name", sorted(DISTS))
def test_slope_in_both_cases(static, case, dist_name):
    got_case, err, smooth = _slope_error(static, 0.0, 3.0, dist_name, 0.5)
    assert got_case == case and smooth
    assert err <= 1e-6


@pytest.fixture
def dual_evals(monkeypatch):
    """Dual evaluations per solve: append 0 before each solve."""
    counts = []
    real = optimal._avg_throughput

    def counting(mu, dist, p):
        counts[-1] += 1
        return real(mu, dist, p)

    monkeypatch.setattr(optimal, "_avg_throughput", counting)
    return counts


def test_dual_evaluations_per_solve(dual_evals):
    # 1% to 99% of the cap: before the exact slope these took 12.1
    # evaluations on average and 21 at most
    counts = dual_evals
    for static in (20.0, 60.0, 120.0):
        p = SystemParams(static_power=static)
        cap = max_achievable_throughput(TRI, p)
        for fraction in (0.01, 0.05, 0.2, 0.4, 0.6, 0.8, 0.99):
            counts.append(0)
            _, m = solve(fraction * cap, TRI, p)
            assert m.avg_users >= fraction * cap
    assert sum(counts) / len(counts) <= 9.5
    assert max(counts) <= 14


@pytest.mark.parametrize("config", ["configs/baseline.json",
                                    "configs/low_static.cfg"])
@pytest.mark.parametrize("fraction", [0.05, 0.5, 0.95])
def test_metrics_are_those_of_the_final_evaluation(config, fraction):
    p, dist = cli._build_context(cli._load_config(config))
    pol, reported = solve(fraction * max_achievable_throughput(dist, p),
                          dist, p)
    want = evaluate(pol.radius_at, dist, p, breakpoints=pol.breakpoints)
    for field, value in reported.as_dict().items():
        assert value == pytest.approx(getattr(want, field), rel=1e-12), field
    assert pol.criticals == critical_densities(pol.mu, p)


def test_dual_evaluations_on_the_grid(dual_evals):
    # Newton on u(mu) - u took 562 evaluations on these 72 solves, 11 at
    # most; in log mu on log(cap - u) they take 500, 9 at most
    for config in ("configs/baseline.json", "configs/low_static.cfg"):
        p0, tri = cli._build_context(cli._load_config(config))
        for dist in (tri, TABLE):
            for static in (20.0, 60.0, 120.0):
                p = dataclasses.replace(p0, static_power=static)
                cap = max_achievable_throughput(dist, p)
                for fraction in (0.01, 0.05, 0.2, 0.6, 0.9, 0.99):
                    dual_evals.append(0)
                    _, m = solve(fraction * cap, dist, p)
                    assert m.avg_users >= fraction * cap
    assert sum(dual_evals) <= 500
    assert max(dual_evals) <= 9


# Newton on u(mu) - u took 54 and 53 evaluations at these targets on
# baseline.json, 52 and 16 on low_static.cfg.  A target exactly at the cap
# is met only by the policy at the cap everywhere, mu = inf, with no dual
# evaluation.
@pytest.mark.parametrize("config,fraction,most", [
    ("configs/baseline.json", 1.0, 0),
    ("configs/baseline.json", 1.0 - 1e-15, 14),
    ("configs/low_static.cfg", 1.0, 0),
    ("configs/low_static.cfg", 1.0 - 1e-15, 13),
])
def test_target_at_the_cap(config, fraction, most, dual_evals, monkeypatch):
    seen = []  # what the search is given: H and its slope
    real = optimal.bracketed_newton

    def recording(fn, good, bad, x, tol):
        def logged(t):
            seen.append(fn(t))
            return seen[-1]
        return real(logged, good, bad, x, tol)

    monkeypatch.setattr(optimal, "bracketed_newton", recording)
    p, dist = cli._build_context(cli._load_config(config))
    u_avg = fraction * max_achievable_throughput(dist, p)
    dual_evals.append(0)
    pol, m = solve(u_avg, dist, p)
    assert dual_evals[0] <= most
    assert not any(math.isnan(v) for pair in seen for v in pair
                   if v is not None)
    assert (pol.mu == math.inf) if fraction == 1.0 else math.isfinite(pol.mu)
    assert all(math.isfinite(v) for v in m.as_dict().values())
    assert np.isfinite(pol.radii).all() and np.isfinite(pol.powers).all()
    assert m.avg_users >= u_avg


def test_dual_evaluations_near_the_cap(dual_evals, monkeypatch):
    # loads 1 - 10^-k of the cap and the cap itself.  While thresholds
    # below 1e-6 lambda_max were reported as 0, u(mu) jumped where the
    # switch-on cut-off crossed that floor: this grid took 1,733
    # evaluations, 57 at most, and over-delivered by up to 1e-10.  Doubling
    # mu from 1, rather than galloping, it took 988
    prices = []
    counting = optimal._avg_throughput
    monkeypatch.setattr(optimal, "_avg_throughput",
                        lambda mu, dist, p: prices.append(mu)
                        or counting(mu, dist, p))
    p0, tri = cli._build_context(cli._load_config("configs/baseline.json"))
    for dist in (tri, TABLE):
        for static in (20.0, 60.0, 120.0):
            p = dataclasses.replace(p0, static_power=static)
            cap = max_achievable_throughput(dist, p)
            for k in (*range(3, 16), math.inf):
                u_avg = (1.0 - 10.0 ** -k) * cap
                dual_evals.append(0)
                pol, m = solve(u_avg, dist, p)
                assert u_avg <= m.avg_users <= u_avg * (1.0 + 4.5e-16)
            assert dual_evals[-1] == 0 and pol.mu == math.inf
    assert sum(dual_evals) <= 879
    assert max(dual_evals) <= 20
    assert max(prices) <= GALLOP_END


# A dual evaluation fails where a threshold density is no longer a normal
# float: here from mu = 2^499 (alpha 2.01) or 2^719 (alpha 5).  du/dmu is
# 0 from 2^177-2^229 on the triangular density, 2^267-2^320 on the table.
@pytest.mark.parametrize("dist_name", sorted(DISTS))
@pytest.mark.parametrize("alpha", [2.01, 5.0])
@pytest.mark.parametrize("static", [1.0, 200.0])
def test_the_gallop_ends_where_a_dual_evaluation_works(dist_name, alpha,
                                                       static):
    p = SystemParams(pathloss_exp=alpha, static_power=static,
                     max_bs_power=static + 40.0)
    u, slope, _ = optimal._avg_throughput(GALLOP_END, DISTS[dist_name], p)
    assert math.isfinite(u) and math.isfinite(slope)


# One float below the cap, each of these raised InfeasibleError when the
# bracket doubled mu up to 1e12: u on the rule split at the thresholds
# rounds 1-2 ulp below the cap tail's.  They are the settings that raised
# among 200 random draws (numpy seed 5) x three densities.
@pytest.mark.parametrize("dist_name,alpha,static,max_power,sleep,amp", [
    ("table0", 4.815681979341809, 111.67579533124551, 160.08279332764928,
     82.79885467617626, 3.0231691446602884),
    ("table", 2.2463061996082607, 9.55552041601812, 115.78320403336268,
     4.5596504464921015, 3.499411978549335),
    ("table0", 3.62174776552956, 113.04460585091797, 211.65548983280706,
     69.54583270856422, 1.7443816451585745),
    ("table0", 3.1831969565471736, 72.924099423809, 85.39359795264944,
     20.223209837210966, 1.6884403792042517),
    ("triangular", 2.1451808911876986, 186.37713621605766, 232.0728303952547,
     49.30296795964018, 2.7531602423874997),
    ("table", 2.1451808911876986, 186.37713621605766, 232.0728303952547,
     49.30296795964018, 2.7531602423874997),
    ("triangular", 4.014203468752177, 164.33529555679712, 356.39118233088993,
     3.4733708433334365, 1.5675542763343295),
    ("table0", 4.2522546056191555, 153.4930714148962, 175.5263207288309,
     24.878833296737312, 2.080439493643873),
    ("triangular", 3.422338502059004, 26.93121107649733, 79.18179868289965,
     1.0946734240932565, 1.1689677465631245),
    ("table0", 2.5214218928821683, 162.1788023488959, 171.02134903211535,
     135.43707558452337, 3.1067818015419766),
])
def test_no_feasible_target_below_the_cap_raises(dist_name, alpha, static,
                                                 max_power, sleep, amp,
                                                 dual_evals):
    dist = {**DISTS, "table0": TABLE0}[dist_name]
    p = SystemParams(pathloss_exp=alpha, static_power=static,
                     max_bs_power=max_power, sleep_power=sleep,
                     amp_scaling=amp)
    u_avg = math.nextafter(max_achievable_throughput(dist, p), 0.0)
    dual_evals.append(0)
    pol, m = solve(u_avg, dist, p)
    assert m.avg_users >= u_avg
    assert dual_evals[0] <= 15  # the gallop's length
    assert pol.mu == math.inf


def test_one_float_below_the_cap():
    # (u - u_avg) / (cap - u) rounds to -1 here, where log1p raised
    p = SystemParams(static_power=60.0)
    u_avg = math.nextafter(max_achievable_throughput(TABLE, p), 0.0)
    _, m = solve(u_avg, TABLE, p)
    assert m.avg_users >= u_avg


# With no static power the optimal price at 1e-6 of the cap can lie below
# 1e-13 W/user.  A bracket whose lower end was 1e-13 stopped there and
# delivered up to 71.9 times the target, at up to 2.67e7 times the power
# of the cheaper FRw scheme, in up to 59 evaluations.  The bounds are the
# worst measured over both densities x alpha 4, 5, 6 x Pmax 0.1, 1, 40,
# 1000 W x amp 1, 10 x 1e-6 and 1e-4 of the cap.
@pytest.mark.parametrize("dist_name", sorted(DISTS))
@pytest.mark.parametrize("alpha", [4.0, 5.0, 6.0])
@pytest.mark.parametrize("max_power", [0.1, 1000.0])
def test_a_price_below_the_tolerance_is_found(dist_name, alpha, max_power,
                                              dual_evals):
    dist = DISTS[dist_name]
    p = SystemParams(static_power=0.0, max_bs_power=max_power,
                     pathloss_exp=alpha)
    u_avg = 1e-6 * max_achievable_throughput(dist, p)
    dual_evals.append(0)
    _, m = solve(u_avg, dist, p)
    assert dual_evals[0] <= 21
    assert u_avg <= m.avg_users <= u_avg * (1.0 + 4.67e-14)
    frw = min(scheme(u_avg, dist, p)[1].avg_power_w
              for scheme in (suboptimal.frw_ofc, suboptimal.frw_oofc))
    assert m.avg_power_w <= frw * (1.0 + 1.19e-13)


def test_exact_solve_needs_no_lambert_w(monkeypatch):
    # the kernels' Newton seeds take Winitzki's start for W; only the
    # closed forms of hse mode call lambert_w0
    calls = []
    real = scaling.lambert_w0
    monkeypatch.setattr(scaling, "lambert_w0",
                        lambda y: calls.append(1) or real(y))
    p = SystemParams(static_power=60.0)
    cap = max_achievable_throughput(TRI, p)
    for fraction in (0.05, 0.5, 0.95):
        solve(fraction * cap, TRI, p)
    assert not calls
    solve(0.5 * cap, TRI, p, mode="hse")
    assert calls
