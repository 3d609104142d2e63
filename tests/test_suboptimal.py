import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize

from greencell import cli, optimal, suboptimal
from greencell import metrics as metrics_module
from greencell.metrics import evaluate
from greencell.numerics import conditional_expect, expect, gauss_legendre
from greencell.optimal import (InfeasibleError, Problem,
                              max_achievable_throughput, solve)
from greencell.params import SystemParams
from greencell.scaling import bs_power, max_range, max_range_x
from greencell.suboptimal import (ARW_OFC, ARW_OOFC, FRW_OFC, FRW_OOFC,
                                  arw_ofc, arw_oofc, frw_ofc, frw_oofc)
from greencell.traffic import from_table, triangular
from oracles import (Bracket, accurate_cutoff, arw_tail_users, bisect,
                     minimize_bounded)

P = SystemParams(static_power=60.0)
DIST = triangular(1e-4)
U_AVG = 60.0


@pytest.fixture(scope="module")
def results():
    """Each scheme's (policy, metrics) at U_AVG."""
    return {
        FRW_OFC: frw_ofc(U_AVG, DIST, P),
        FRW_OOFC: frw_oofc(U_AVG, DIST, P),
        ARW_OFC: arw_ofc(U_AVG, DIST, P),
        ARW_OOFC: arw_oofc(U_AVG, DIST, P),
    }


@pytest.fixture(scope="module")
def optimal_metrics():
    return solve(U_AVG, DIST, P)[1]


def _power(results, tag):
    return results[tag][1].avg_power_w


class TestFixedRadiusAlwaysOn:
    def test_throughput_met_with_equality(self, results):
        _, metrics = results[FRW_OOFC]
        assert metrics.avg_users == pytest.approx(U_AVG, rel=1e-6)

    def test_closed_form_radius(self, results):
        mean_density = expect(lambda lam: lam, DIST)
        want = math.sqrt(U_AVG / (math.pi * mean_density))
        assert results[FRW_OOFC][0].fixed_radius == \
            pytest.approx(want, rel=1e-8)

    def test_radius_monotone_in_target(self):
        assert frw_oofc(70.0, DIST, P)[0].fixed_radius > \
            frw_oofc(50.0, DIST, P)[0].fixed_radius

    def test_always_on(self, results):
        policy, metrics = results[FRW_OOFC]
        assert policy.cutoff == 0.0
        assert policy.breakpoints == ()
        assert metrics.on_probability == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_beyond_fixed_radius_ceiling(self):
        with pytest.raises(InfeasibleError):
            frw_oofc(100.0, DIST, P)


class TestFixedRadiusWithCutoff:
    def test_tail_throughput_met(self, results):
        policy, _ = results[FRW_OFC]
        achieved = math.pi * policy.fixed_radius ** 2 * conditional_expect(
            lambda lam: lam, DIST, policy.cutoff)
        assert achieved >= U_AVG * (1.0 - 1e-6)

    def test_power_cap_on_the_on_region(self, results):
        policy, _ = results[FRW_OFC]
        assert bs_power(policy.fixed_radius, DIST.lambda_max, P) <= \
            P.max_bs_power * (1.0 + 1e-9)

    def test_cutoff_saves_power(self, results):
        assert _power(results, FRW_OFC) <= _power(results, FRW_OOFC)


class TestAdaptiveRangeAlwaysOn:
    def test_throughput_met_with_equality(self, results):
        _, metrics = results[ARW_OOFC]
        assert metrics.avg_users == pytest.approx(U_AVG, rel=1e-6)

    def test_average_power_is_the_constant_level(self, results):
        policy, metrics = results[ARW_OOFC]
        level = policy.summary()["fixed_power_w"]
        assert metrics.avg_power_w == level
        assert level == P.static_power + policy.fixed_share
        assert level <= P.max_bs_power

    def test_infeasible_beyond_cap(self):
        with pytest.raises(InfeasibleError):
            arw_oofc(140.0, DIST, P)

    def test_always_on(self, results):
        assert results[ARW_OOFC][0].cutoff == 0.0


def _level(policy):
    """The consumption level an ARw policy reports, Pc + its share."""
    return policy.summary()["fixed_power_w"]


class TestAdaptiveRangeWithCutoff:
    def test_tail_throughput_met(self, results):
        policy, _ = results[ARW_OFC]
        achieved = conditional_expect(
            lambda lam: math.pi * lam * max_range(lam, _level(policy), P) ** 2
            if lam > 0 else 0.0,
            DIST, policy.cutoff)
        assert achieved >= U_AVG * (1.0 - 1e-6)

    def test_radius_decreasing_on_the_on_region(self, results):
        policy, _ = results[ARW_OFC]
        lams = np.linspace(max(policy.cutoff, 1e-6), DIST.lambda_max, 32)
        radii = [max_range(float(lam), _level(policy), P) for lam in lams]
        assert all(b < a for a, b in zip(radii, radii[1:]))

    def test_cutoff_saves_power(self, results):
        assert _power(results, ARW_OFC) <= _power(results, ARW_OOFC)


class TestCrossSchemeStructure:
    def test_dominance_lattice(self, results, optimal_metrics):
        opt = optimal_metrics.avg_power_w
        tol = 1e-6
        assert opt <= _power(results, ARW_OFC) * (1.0 + tol)
        assert _power(results, ARW_OFC) <= \
            _power(results, ARW_OOFC) * (1.0 + tol)
        assert opt <= _power(results, FRW_OFC) * (1.0 + tol)
        assert _power(results, FRW_OFC) <= \
            _power(results, FRW_OOFC) * (1.0 + tol)

    def test_adaptive_range_tracks_optimal_closely(self, results,
                                                   optimal_metrics):
        gap = _power(results, ARW_OFC) - optimal_metrics.avg_power_w
        assert gap / optimal_metrics.avg_power_w < 0.03

    def test_cutoff_gain_shrinks_as_target_grows(self):
        def gaps(u):
            fr = frw_oofc(u, DIST, P)[1].avg_power_w \
                - frw_ofc(u, DIST, P)[1].avg_power_w
            ar = arw_oofc(u, DIST, P)[1].avg_power_w \
                - arw_ofc(u, DIST, P)[1].avg_power_w
            return fr, ar

        fr_lo, ar_lo = gaps(30.0)
        fr_hi, ar_hi = gaps(82.0)
        assert fr_hi < fr_lo
        assert ar_hi < ar_lo

    def test_summary_shapes(self, results):
        # a summary describes the policy; the metrics are kept apart
        for tag, (policy, _) in results.items():
            summary = policy.summary()
            assert summary["scheme"] == tag
            assert "avg_power_w" not in summary


# --- the searches against the per-level and 512-point scans they replaced ----

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = ("baseline.json", "low_static.cfg")
# the table profiles 0, 1 and 2 of the benchmark's solve pool
TABLE0 = from_table(np.linspace(0.0, 1e-4, 9),
                    [0.25, 6.25, 9.25, 6.25, 6.25, 4.25, 2.25, 6.25, 7.25])
TABLE1 = from_table(np.linspace(0.0, 1e-4, 9),
                    [0.25, 5.25, 8.25, 7.25, 6.25, 5.25, 5.25, 6.25, 5.25])
TABLE2 = from_table(np.linspace(0.0, 1e-4, 9),
                    [0.25, 6.25, 8.25, 5.25, 4.25, 8.25, 9.25, 2.25, 3.25])
POOL_DISTS = {"triangular": DIST, "table0": TABLE0, "table1": TABLE1,
              "table2": TABLE2}
SCHEMES = (frw_ofc, frw_oofc, arw_ofc, arw_oofc)
# every solver: each returns (policy, metrics)
POLICIES = (solve, *SCHEMES)
# a table density whose pdf is positive at 0
TABLE_AT_ZERO = from_table([0.0, 2.5e-5, 5e-5, 7.5e-5, 1e-4],
                           [1.0, 3.0, 2.0, 4.0, 1.0])
# the benchmark's sweep pool: feasible and infeasible targets
SWEEP_POOL_TARGETS = (50.724, 53.554, 54.905, 54.989, 55.063, 58.552, 58.705,
                      59.895, 111.686, 112.387, 112.954, 116.135)
BIG = 1e30
# the levels and densities of the trapezoid scan ARwOFC used to rank levels
SCAN_LEVELS, SCAN_DENSITIES = 512, 513


def _context(config):
    return cli._build_context(cli._load_config(str(CONFIG_DIR / config)))


def _scan_grid(dist):
    m = dist.lambda_max
    lam_grid = np.linspace(m * 1e-9, m, SCAN_DENSITIES)
    return lam_grid, np.asarray(dist.pdf(lam_grid), dtype=float)


def _ref_level_cost(xs, pf, u_avg, dist, p, lam_grid, pdf_grid):
    """A level's trapezoid-ranked cost from its own kernel row ``xs``."""
    integ = math.pi * lam_grid * xs * pdf_grid
    seg = 0.5 * (integ[1:] + integ[:-1]) * np.diff(lam_grid)
    tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    if tail[0] < u_avg:
        return BIG
    cutoff = float(np.interp(u_avg, tail[::-1], lam_grid[::-1]))
    on_prob = 1.0 - float(dist.cdf(cutoff))
    return pf * on_prob + p.sleep_power * (1.0 - on_prob)


@functools.lru_cache(maxsize=None)
def _level_rows(config, dist):
    """One kernel call per consumption level on the scan grid.

    A level's row does not depend on the target, so the oracle tabulates it
    once per (config, density) and reuses it for every target."""
    p, _ = _context(config)
    lam_grid, _ = _scan_grid(dist)
    pfs = np.linspace(p.static_power, p.max_bs_power, SCAN_LEVELS + 1)[1:]
    return pfs, [max_range_x(lam_grid, float(pf) - p.static_power, p)
                 for pf in pfs]


def _ref_arw_ofc(u_avg, config, dist):
    """ARwOFC as it was searched before its Newton rewrite: a trapezoid-ranked
    per-level loop, refined by a bounded search and re-solved by bisection."""
    p, _ = _context(config)
    lam_grid, pdf_grid = _scan_grid(dist)
    pfs, rows = _level_rows(config, dist)

    def cost(pf):
        xs = max_range_x(lam_grid, pf - p.static_power, p)
        return _ref_level_cost(xs, pf, u_avg, dist, p, lam_grid, pdf_grid)

    costs = np.array([_ref_level_cost(xs, float(pf), u_avg, dist, p,
                                      lam_grid, pdf_grid)
                      for pf, xs in zip(pfs, rows)])
    i = int(np.argmin(costs))
    assert costs[i] < BIG
    res = optimize.minimize_scalar(
        cost, bounds=(float(pfs[max(i - 1, 0)]),
                      float(pfs[min(i + 1, pfs.size - 1)])),
        method="bounded", options={"xatol": p.max_bs_power * 1e-9})
    pf = float(res.x) if res.fun <= costs[i] else float(pfs[i])
    cutoff = accurate_cutoff(pf - p.static_power, u_avg, dist, p)
    if cutoff is None:
        pf = float(pfs[i])
        cutoff = accurate_cutoff(pf - p.static_power, u_avg, dist, p)
    return pf, cutoff


def _ref_frw_power(u_avg, dist, p):
    """FRwOFC power from a 512-cut-off scan over [0, lambda_max) and the
    same local refinement; None when no cut-off is feasible."""
    m = dist.lambda_max
    x_cap = max_range_x(m, p.max_bs_power - p.static_power, p)

    def objective(cutoff):
        rule = gauss_legendre(dist, cutoff, m)
        t1 = rule.integrate(rule.nodes)
        if t1 <= 0.0:
            return BIG
        r_f = math.sqrt(u_avg / (math.pi * t1))
        if r_f * r_f > x_cap * (1.0 + 1e-12):
            return BIG
        return rule.integrate(bs_power(r_f, rule.nodes, p)) \
            + p.sleep_power * float(dist.cdf(cutoff))

    cuts = np.linspace(0.0, m, 513)[:-1]
    costs = np.array([objective(float(c)) for c in cuts])
    i = int(np.argmin(costs))
    if costs[i] >= BIG:
        return None
    res = optimize.minimize_scalar(
        objective, bounds=(float(cuts[max(i - 1, 0)]),
                           float(cuts[min(i + 1, cuts.size - 1)])),
        method="bounded", options={"xatol": m * 1e-9})
    return min(float(res.fun), float(costs[i]))


def _arw_power(pf, cutoff, dist, p):
    # the on-probability as the scheme takes it: its tail rule's mass, 1 at
    # the cut-off 0
    on_prob = 1.0 if cutoff == 0.0 else min(float(gauss_legendre(
        dist, cutoff, dist.lambda_max).weights.sum()), 1.0)
    return pf * on_prob + p.sleep_power * (1.0 - on_prob)


def _assert_meets_floor(res, u_avg, dist, p):
    """The result's tail throughput, recomputed by quadrature, is the one
    it reports and meets the floor."""
    policy, metrics = res
    users = arw_tail_users(policy.fixed_share, policy.cutoff, dist, p)
    assert metrics.avg_users == users
    assert users >= u_avg


@pytest.mark.parametrize("dist", [DIST, TABLE1], ids=["triangular", "table1"])
@pytest.mark.parametrize("config", CONFIGS)
def test_arw_ofc_is_no_worse_than_the_per_level_loop(config, dist):
    p, _ = _context(config)
    cap = max_achievable_throughput(dist, p)
    for frac in (0.03, 0.2, 0.35, 0.55, 0.8, 0.97):
        u = frac * cap
        res = arw_ofc(u, dist, p)
        policy, metrics = res
        pf, cutoff = _ref_arw_ofc(u, config, dist)
        assert metrics.avg_power_w <= \
            _arw_power(pf, cutoff, dist, p) * (1.0 + 1e-12), frac
        assert metrics.avg_power_w == _arw_power(
            _level(policy), policy.cutoff, dist, p)
        _assert_meets_floor(res, u, dist, p)


def test_arw_ofc_falls_back_to_the_cap_level_just_below_the_cap():
    # the trapezoid table the level scan used undercounts this profile's cap
    # by about 8e-6, so at this target it found no level, though the cap
    # level meets the floor
    p, _ = _context("baseline.json")
    cap = max_achievable_throughput(TABLE_AT_ZERO, p)
    u = cap * (1.0 - 2e-6)
    res = arw_ofc(u, TABLE_AT_ZERO, p)
    policy, _ = res
    assert _level(policy) == p.max_bs_power
    assert 0.0 < policy.cutoff
    _assert_meets_floor(res, u, TABLE_AT_ZERO, p)


def _scan_power(u_avg, dist, p, levels=128):
    """Least ARwOFC power over ``levels`` evenly spaced levels up to Pmax,
    each with its cut-off bisected on the quadrature tail throughput."""
    best = math.inf
    for pf in np.linspace(p.static_power, p.max_bs_power, levels + 1)[1:]:
        cutoff = accurate_cutoff(float(pf) - p.static_power, u_avg, dist, p)
        if cutoff is not None:
            best = min(best, _arw_power(float(pf), cutoff, dist, p))
    return best


@settings(max_examples=8)
@given(pc=st.floats(20.0, 140.0), alpha=st.sampled_from([3.0, 3.7]),
       frac=st.floats(0.02, 0.999),
       dist=st.sampled_from([DIST, TABLE1, TABLE_AT_ZERO]))
# the level search runs, and the cap level wins without one
@example(pc=60.0, alpha=3.7, frac=0.6, dist=DIST)
@example(pc=140.0, alpha=3.0, frac=0.5, dist=TABLE1)
def test_arw_ofc_is_no_worse_than_the_128_level_scan(pc, alpha, frac, dist):
    p = SystemParams(static_power=pc, pathloss_exp=alpha)
    u = frac * max_achievable_throughput(dist, p)
    res = arw_ofc(u, dist, p)
    assert res[1].avg_power_w <= _scan_power(u, dist, p) * (1.0 + 1e-9)
    _assert_meets_floor(res, u, dist, p)


@pytest.mark.parametrize("dist", [DIST, TABLE1, TABLE_AT_ZERO],
                         ids=["triangular", "table1", "table_at_zero"])
@pytest.mark.parametrize("config", CONFIGS)
def test_arw_oofc_level_is_the_bisected_root(config, dist):
    # the least transmit share whose always-on throughput meets the floor,
    # against bisection on the same quadrature in its log, down to about
    # 1e-13 relative
    p, _ = _context(config)
    cap = max_achievable_throughput(dist, p)
    top = math.log(p.max_bs_power - p.static_power)
    for frac in (1e-4, 0.03, 0.3, 0.7, 0.99, 1.0 - 1e-9):
        u = frac * cap

        def gap(s):
            return arw_tail_users(math.exp(s), 0.0, dist, p) - u
        want = math.exp(bisect(gap, Bracket.from_function(
            gap, top - 30.0, top), rel_tol=1e-14))
        res = arw_oofc(u, dist, p)
        policy, _ = res
        assert policy.fixed_share <= want * (1.0 + 1e-12), frac
        assert policy.fixed_share >= want * (1.0 - 1e-12), frac
        assert policy.summary()["fixed_power_w"] == \
            p.static_power + policy.fixed_share
        _assert_meets_floor(res, u, dist, p)


@pytest.mark.parametrize("config", CONFIGS)
def test_level_derivative_matches_central_differences(config):
    # dU/dshare = pi I / share at the cut-off that meets the floor there
    p, _ = _context(config)
    u = 0.4 * max_achievable_throughput(DIST, p)
    lowest = arw_oofc(u, DIST, p)[0].fixed_share
    h = 1e-3
    for frac in (0.2, 0.5, 0.9):
        share = lowest + frac * (p.max_bs_power - p.static_power - lowest)
        cutoff = accurate_cutoff(share, u, DIST, p)
        rule = suboptimal._tail_rule(Problem(DIST, p), cutoff)
        tail = suboptimal._arw_tail(rule, cutoff, share, p)
        du = (suboptimal._arw_tail(rule, cutoff, share + h, p).users
              - suboptimal._arw_tail(rule, cutoff, share - h, p).users) \
            / (2 * h)
        assert math.pi * tail.level / share == pytest.approx(du, rel=1e-6), \
            frac


def _frw_edge(u_avg, dist, p):
    """(edge, x_cap): the largest cut-off at which the fixed radius meeting
    the floor stays within the cap, bisected on its satisfied side."""
    m = dist.lambda_max
    x_cap = max_range_x(m, p.max_bs_power - p.static_power, p)
    lo, hi = 0.0, m
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        rule = gauss_legendre(dist, mid, m)
        if math.pi * x_cap * rule.integrate(rule.nodes) >= u_avg:
            lo = mid
        else:
            hi = mid
    return lo, x_cap


def _frw_cut(cutoff, u_avg, dist, p):
    return suboptimal._frw_cut(
        suboptimal._tail_rule(Problem(dist, p), cutoff), cutoff, u_avg, p)


def _frw_cap(dist, p):
    return math.pi * max_range_x(dist.lambda_max,
                                 p.max_bs_power - p.static_power, p) \
        * expect(lambda lam: lam, dist)


def _family(family, u_avg, dist, p):
    """(edge, point at a cut-off) of one family at ``u_avg``."""
    if family == "frw":
        edge, _ = _frw_edge(u_avg, dist, p)
        return edge, lambda c: _frw_cut(c, u_avg, dist, p)

    problem = Problem(dist, p)

    def at_cap(c, rule):
        return suboptimal._arw_tail(rule, c, p.max_bs_power - p.static_power,
                                    p)
    edge, _, _ = suboptimal._edge(u_avg, problem, at_cap)
    return edge, lambda c: suboptimal._arw_cut(
        c, u_avg, problem, math.log(p.max_bs_power - p.static_power))


def _family_cap(family, dist, p):
    return _frw_cap(dist, p) if family == "frw" \
        else max_achievable_throughput(dist, p)


@pytest.mark.parametrize("config", CONFIGS)
def test_cutoff_derivative_matches_central_differences(config):
    # dJ/dc = f(c) h(c), h = gain - loss, along the radius x_f(c) or the
    # level pf(c) that holds the floor; against central differences of J
    p, dist = _context(config)
    for family in ("frw", "arw"):
        u = 0.4 * _family_cap(family, dist, p)
        edge, cut = _family(family, u, dist, p)
        step = 1e-7 * edge
        for frac in (0.2, 0.5, 0.8):
            c = frac * edge
            want = (cut(c + step).cost - cut(c - step).cost) / (2.0 * step)
            at = cut(c)
            assert float(dist.pdf(c)) * (at.gain - at.loss) == \
                pytest.approx(want, rel=1e-6), (family, frac)


@settings(max_examples=12)
@given(pc=st.floats(20.0, 140.0), alpha=st.sampled_from([3.0, 3.7]),
       frac=st.floats(0.02, 0.999),
       dist=st.sampled_from([DIST, TABLE1, TABLE_AT_ZERO]),
       family=st.sampled_from(["frw", "arw"]))
def test_cutoff_derivative_changes_sign_at_most_once(pc, alpha, frac, dist,
                                                     family):
    # the cost is unimodal below the feasibility edge, which lets the edge
    # win without a search when h(edge) <= 0, and the search for the root
    # of h find the cheapest cut-off otherwise
    p = SystemParams(static_power=pc, pathloss_exp=alpha)
    u = frac * _family_cap(family, dist, p)
    edge, cut = _family(family, u, dist, p)
    points = [cut(float(c)) for c in np.linspace(0.0, edge, 64)]
    signs = [at.gain > at.loss for at in points]
    assert sum(a != b for a, b in zip(signs, signs[1:])) <= 1
    assert not signs[0]


@settings(max_examples=12)
@given(pc=st.floats(20.0, 140.0), alpha=st.sampled_from([3.0, 3.7]),
       frac=st.floats(0.02, 0.999),
       dist=st.sampled_from([DIST, TABLE1, TABLE_AT_ZERO]))
# the cost falls all the way to the feasibility edge, which a bounded search
# alone misses by 1.5e-9 relative
@example(pc=88.0, alpha=3.0, frac=0.5, dist=DIST)
def test_frw_ofc_is_no_worse_than_the_512_point_scan(pc, alpha, frac, dist):
    p = SystemParams(static_power=pc, pathloss_exp=alpha)
    x_cap = max_range_x(dist.lambda_max, p.max_bs_power - p.static_power, p)
    u = frac * math.pi * x_cap * expect(lambda lam: lam, dist)
    want = _ref_frw_power(u, dist, p)
    assert want is not None
    got = frw_ofc(u, dist, p)[1].avg_power_w
    assert got <= want * (1.0 + 1e-9)



@settings(max_examples=12)
@given(pc=st.floats(20.0, 140.0), alpha=st.sampled_from([3.0, 3.7]),
       frac=st.floats(0.02, 0.999),
       dist=st.sampled_from([DIST, TABLE1, TABLE_AT_ZERO]))
def test_frw_ofc_matches_brents_minimum_of_the_cost(pc, alpha, frac, dist):
    # the root of h against Brent's bounded minimiser on J over [0, edge],
    # with the two end points it never evaluates
    p = SystemParams(static_power=pc, pathloss_exp=alpha)
    u = frac * _frw_cap(dist, p)
    edge, _ = _frw_edge(u, dist, p)

    def cost(c):
        return _frw_cut(c, u, dist, p).cost
    _, inner = minimize_bounded(cost, 0.0, edge, 1e-9 * dist.lambda_max)
    want = min(inner, cost(0.0), cost(edge))
    got = frw_ofc(u, dist, p)[1].avg_power_w
    assert got == pytest.approx(want, rel=1e-12)

def test_frw_ofc_stays_always_on_when_sleeping_saves_nothing():
    # with sleep power equal to static power a cut-off only widens the
    # radius, so the optimum is the end point c = 0
    p = SystemParams(static_power=60.0, sleep_power=60.0)
    policy, metrics = frw_ofc(U_AVG, DIST, p)
    assert policy.cutoff == 0.0
    assert metrics == frw_oofc(U_AVG, DIST, p)[1]


@pytest.mark.parametrize("u_avg", (55.063, 58.705))
def test_frw_ofc_builds_each_tail_rule_once(u_avg, monkeypatch):
    # the edge search's rule at the edge also serves the point there; at
    # the sweep rows the edge wins, so the point is that rule's
    p, dist = _context("baseline.json")
    lows = []

    def counted(dist, lo, hi, breakpoints=()):
        lows.append(lo)
        return gauss_legendre(dist, lo, hi, breakpoints)

    monkeypatch.setattr(suboptimal, "gauss_legendre", counted)
    policy, metrics = frw_ofc(u_avg, dist, p)
    assert len(lows) == 6 and len(set(lows)) == 6
    assert policy.cutoff == lows[-1]
    monkeypatch.undo()
    fresh = _frw_cut(policy.cutoff, u_avg, dist, p)
    assert (policy.fixed_radius, metrics.avg_power_w,
            metrics.avg_users) == (fresh.radius, fresh.cost, fresh.users)


@pytest.mark.parametrize("frac", (0.01, 0.05, 0.3))
@pytest.mark.parametrize("config", CONFIGS)
def test_arw_ofc_builds_each_tail_rule_once(config, frac, monkeypatch):
    # the edge search and each level search build their cut-off's rule
    # once and pass it to every tail evaluation there
    p, dist = _context(config)
    u = frac * max_achievable_throughput(dist, p)
    lows = []

    def counted(dist, lo, hi, breakpoints=()):
        lows.append(lo)
        return gauss_legendre(dist, lo, hi, breakpoints)

    monkeypatch.setattr(suboptimal, "gauss_legendre", counted)
    arw_ofc(u, dist, p)
    assert lows and len(set(lows)) == len(lows)


@pytest.mark.parametrize("u_avg", (20.0, 55.063, 58.705))
@pytest.mark.parametrize("config", CONFIGS)
def test_frw_metrics_describe_the_returned_policy(config, u_avg):
    # every solver's reported numbers are those of the policy it returns,
    # as metrics.evaluate integrates it, on a smooth and a kinked pdf
    p, tri = _context(config)
    for dist in (tri, TABLE1):
        for solver in POLICIES:
            policy, reported = solver(u_avg, dist, p)
            want = evaluate(policy.radius_at, dist, p,
                            breakpoints=policy.breakpoints)
            for field, value in reported.as_dict().items():
                assert value == pytest.approx(getattr(want, field),
                                              rel=1e-12), \
                    (solver.__name__, dist.kind, field)


@pytest.mark.parametrize("config", CONFIGS)
def test_infeasible_targets_report_the_schemes_caps(config):
    # the ARw cap is solve's feasibility bound, bit for bit
    p, _ = _context(config)
    for dist in POOL_DISTS.values():
        arw_cap = max_achievable_throughput(dist, p)
        frw_cap = math.pi * max_range_x(
            dist.lambda_max, p.max_bs_power - p.static_power, p) \
            * expect(lambda lam: lam, dist)
        for scheme, cap in ((arw_ofc, arw_cap), (arw_oofc, arw_cap),
                            (frw_ofc, frw_cap), (frw_oofc, frw_cap)):
            with pytest.raises(InfeasibleError) as info:
                scheme(cap * 1.001, dist, p)
            assert info.value.max_achievable == cap, \
                (scheme.__name__, dist.kind)


@pytest.fixture(scope="module")
def sweep_pool():
    """Each scheme's power (None when infeasible) at every pool target."""
    out = {}
    for config in CONFIGS:
        p, dist = _context(config)
        for u in SWEEP_POOL_TARGETS:
            for tag, scheme in ((ARW_OFC, arw_ofc), (ARW_OOFC, arw_oofc),
                                (FRW_OFC, frw_ofc), (FRW_OOFC, frw_oofc)):
                try:
                    power = scheme(u, dist, p)[1].avg_power_w
                except InfeasibleError:
                    power = None
                out[(config, u, tag)] = power
    return out


@pytest.mark.parametrize("config", CONFIGS)
def test_sweep_pool_dominance_chains(sweep_pool, config):
    p, dist = _context(config)
    cap = max_achievable_throughput(dist, p)
    for u in SWEEP_POOL_TARGETS:
        assert (sweep_pool[(config, u, ARW_OFC)] is not None) == (cap >= u)
        for inner, outer in ((ARW_OFC, ARW_OOFC), (FRW_OFC, FRW_OOFC)):
            a = sweep_pool[(config, u, inner)]
            b = sweep_pool[(config, u, outer)]
            if b is not None:
                assert a is not None and a <= b, (u, inner)


# --- the throughput floor and optimal <= ARwOFC on the pool densities -------

@pytest.mark.parametrize("dist", POOL_DISTS.values(), ids=POOL_DISTS.keys())
@pytest.mark.parametrize("config", CONFIGS)
def test_every_reported_throughput_meets_the_floor(config, dist):
    # exactly: no result may round below the target it was asked for
    p, _ = _context(config)
    cap = max_achievable_throughput(dist, p)
    feasible = 0
    for u in (np.linspace(0.05, 0.99, 12) * cap).tolist():
        reported = {}
        for solver in POLICIES:
            try:
                reported[solver.__name__] = solver(u, dist, p)[1]
            except InfeasibleError:
                pass
        assert "solve" in reported, u  # optimal is feasible below the cap
        for name, m in reported.items():
            assert m.avg_users >= u, (name, u, m.avg_users)
        feasible += len(reported)
    assert feasible >= 12 * 3  # optimal and both ARw schemes reach 99%


@pytest.mark.parametrize("dist", POOL_DISTS.values(), ids=POOL_DISTS.keys())
@pytest.mark.parametrize("config", CONFIGS)
def test_optimal_is_no_worse_than_arw_ofc(config, dist):
    p, _ = _context(config)
    cap = max_achievable_throughput(dist, p)
    for frac in (0.5, 0.6, 0.8, 0.9, 0.99):
        u = frac * cap
        opt = solve(u, dist, p)[1].avg_power_w
        assert opt <= arw_ofc(u, dist, p)[1].avg_power_w * (1.0 + 1e-9), \
            frac


# --- deterministic cost guard: kernel calls and their sizes -----------------

# no kernel call may exceed the 8 levels x 513 densities the ARwOFC level
# scan passed per call: the kernel's temporaries grow with the call and set
# the sweep's peak RSS (about +4 MB at 32 levels, +38 MB at all 512)
MAX_CALL_ELEMENTS = 8 * SCAN_DENSITIES


class _KernelLog:
    """Counts ``max_range_x`` calls and the element count of each."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.sizes = []
        self.multi_level = 0

    def __call__(self, density, share, p):
        self.sizes.append(np.broadcast(np.asarray(density),
                                       np.asarray(share)).size)
        self.multi_level += np.size(share) > 1
        return self.kernel(density, share, p)


@pytest.fixture
def kernel_log(monkeypatch):
    log = _KernelLog(suboptimal.max_range_x)
    # optimal's binding makes the cap tail's call
    for module in (suboptimal, optimal):
        monkeypatch.setattr(module, "max_range_x", log)
    evaluated = []

    def no_evaluate(*args, **kwargs):
        evaluated.append(args)
        return evaluate(*args, **kwargs)
    monkeypatch.setattr(metrics_module, "evaluate", no_evaluate)
    monkeypatch.setattr(suboptimal, "evaluate", no_evaluate, raising=False)
    log.evaluated = evaluated
    return log



@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda f: f.__name__)
def test_infeasible_target_costs_at_most_two_kernel_calls(kernel_log, scheme):
    p, dist = _context("baseline.json")
    with pytest.raises(InfeasibleError):
        scheme(112.954, dist, p)
    assert len(kernel_log.sizes) <= 2
    assert not kernel_log.evaluated


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda f: f.__name__)
def test_feasible_search_stays_batched(kernel_log, scheme):
    p, dist = _context("baseline.json")
    scheme(55.063, dist, p)
    assert not kernel_log.evaluated
    assert max(kernel_log.sizes, default=0) <= MAX_CALL_ELEMENTS
    assert kernel_log.multi_level == 0
    if scheme is arw_ofc:
        # the cap level wins here: the always-on cap, then Newton on the
        # cut-off; the level scan it replaced made 115 calls
        assert len(kernel_log.sizes) <= 24
    if scheme is arw_oofc:
        assert len(kernel_log.sizes) <= 12
    if scheme in (frw_ofc, frw_oofc):
        # the cap tail: the capped x on the full rule and at lambda_max
        full = gauss_legendre(dist, 0.0, dist.lambda_max).nodes.size
        assert kernel_log.sizes == [full + 1]


def test_arw_ofc_kernel_calls_stay_bounded_on_the_grid(kernel_log):
    # the level search it replaced made 7,999 kernel calls on this 288-case
    # grid, 82 in its costliest call; the level search on a float grid,
    # 6,249 and 49; the search in the share's log, 6,179 and 47.  Each
    # count leaves out the cap tail, built once per problem
    worst = total = 0
    for pc in (20.0, 42.5, 60.0, 100.0, 120.0, 140.0):
        for alpha in (3.0, 3.7):
            p = SystemParams(static_power=pc, pathloss_exp=alpha)
            for dist in (DIST, TABLE1, TABLE_AT_ZERO):
                problem = Problem(dist, p)
                cap = max_achievable_throughput(problem)
                for frac in (0.01, 0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 0.99):
                    kernel_log.sizes.clear()
                    arw_ofc(frac * cap, problem)
                    worst = max(worst, len(kernel_log.sizes))
                    total += len(kernel_log.sizes)
    assert worst <= 47
    assert total <= 6179
    assert not kernel_log.evaluated


# --- optimal <= both OFC schemes with a sleep power -------------------------

# as test_cross_oracles._valid_params, with a sleep power in [0, Pc]
_sleep_params = st.builds(
    lambda alpha, pc, gap, amp, sleep: SystemParams(
        pathloss_exp=alpha, static_power=pc, max_bs_power=pc + gap,
        amp_scaling=amp, sleep_power=sleep * pc),
    st.floats(2.1, 6.0), st.floats(0.0, 300.0),
    st.floats(-1.0, 3.0).map(lambda e: 10.0 ** e), st.floats(1.0, 10.0),
    st.floats(0.0, 1.0))


@given(p=_sleep_params, frac=st.floats(0.01, 0.99),
       dist=st.sampled_from(list(POOL_DISTS.values())))
def test_optimal_is_no_worse_than_either_ofc_scheme(p, frac, dist):
    # solve may deliver a little more than its target (within its dual
    # tolerance), so each scheme is asked for what solve delivers; the slack
    # is the largest excess measured over 3,000 random draws (2 ulp)
    opt = solve(frac * max_achievable_throughput(dist, p), dist, p)[1]
    for scheme in (arw_ofc, frw_ofc):
        try:
            other = scheme(opt.avg_users, dist, p)[1]
        except InfeasibleError:
            continue
        assert opt.avg_power_w <= other.avg_power_w * (1.0 + 4.5e-16), \
            scheme.__name__


# --- every result is what metrics.evaluate measures of it -------------------

# Bounds are the worst values over 16,002 draws of this test's strategy
# (hypothesis seeds 7, 11 and 12, 5,334 each) and 400 draws with
# Pc = Ps = 0 at 0.9 of the cap on each pool density (numpy seeds 1 and 2),
# rounded up in the third digit:
# - reported metrics against evaluate, relative: 1.59e-14, solve's peak (a
#   consumption taken through sqrt and back) at Pc = Ps = 0;
# - an OFC scheme's cost exceeds its always-on one's by up to 3.77e-16 Pmax:
#   FRwOFC where Ps is an ulp below Pc, so that h(0) is about 0 and the
#   root of log(gain / loss) lies where the cost is flat near the cut-off 0
#   (ARwOFC by up to 9.2e-17 Pmax);
# - the peak exceeds Pmax by up to 9.11e-15 relative (solve, at Pc of
#   4e-48 W); at Pc = Ps = 0 by up to 5.78e-15.
EVALUATE_REL = 1.59e-14
LATTICE_SLACK = 3.77e-16
PEAK_SLACK = 9.11e-15


@settings(max_examples=60)
@given(p=_sleep_params,
       frac=st.floats(math.log(1e-6), math.log(0.99)).map(math.exp),
       dist=st.sampled_from(list(POOL_DISTS.values())))
# 1e-6 of the cap, where the cut-offs sit near lambda_max and 1 - cdf(c)
# would cancel to about 1e-10 of the on-probability
@example(p=SystemParams(), frac=1e-6, dist=TABLE0)
# the cap itself, which solve meets at mu = inf, and one float below it,
# where solve's search raised a math domain error
@example(p=P, frac=1.0, dist=DIST)
@example(p=P, frac=1.0, dist=TABLE0)
@example(p=P, frac=1.0, dist=TABLE1)
@example(p=P, frac=1.0, dist=TABLE2)
@example(p=P, frac=math.nextafter(1.0, 0.0),
         dist=from_table([0.0, 2e-5, 5e-5, 1e-4], [0.3, 1.0, 0.6, 0.1]))
# the worst draws: solve's peak against evaluate's, and against Pmax, at
# Pc = Ps = 0 and at Pc of 4e-48 W
@example(p=SystemParams(pathloss_exp=5.174838311388934, static_power=0.0,
                        max_bs_power=10.179311749992216,
                        amp_scaling=3.0334374990210553, sleep_power=0.0),
         frac=0.9, dist=TABLE1)
@example(p=SystemParams(pathloss_exp=4.1366581090081525, static_power=0.0,
                        max_bs_power=8.243925560143365,
                        amp_scaling=5.870269479737878, sleep_power=0.0),
         frac=0.9, dist=DIST)
@example(p=SystemParams(pathloss_exp=6.0, static_power=3.8288010228648507e-48,
                        max_bs_power=68.87469981419618,
                        amp_scaling=5.889478574523921,
                        sleep_power=1.598387346533758e-48),
         frac=0.99, dist=TABLE2)
def test_every_result_is_what_evaluate_measures_of_it(p, frac, dist):
    u = frac * max_achievable_throughput(dist, p)
    found = {}
    for solver in POLICIES:
        try:
            policy, reported = solver(u, dist, p)
        except InfeasibleError:
            continue
        found[solver.__name__] = reported, evaluate(
            policy.radius_at, dist, p, breakpoints=policy.breakpoints)
    for name, (reported, measured) in found.items():
        assert reported.avg_users >= u, name
        for field, value in reported.as_dict().items():
            assert value == pytest.approx(getattr(measured, field),
                                          rel=EVALUATE_REL, abs=0.0), \
                (name, field)
        assert reported.peak_bs_power_w <= \
            p.max_bs_power * (1.0 + PEAK_SLACK), name
    for inner, outer in (("arw_ofc", "arw_oofc"), ("frw_ofc", "frw_oofc")):
        if inner in found and outer in found:
            assert found[inner][0].avg_power_w <= \
                found[outer][0].avg_power_w + LATTICE_SLACK * p.max_bs_power


# --- every floor is tight, every OFC cut-off at the root of its condition ---

# Every result meets its floor within TIGHT, or is an OFC scheme at its
# feasibility edge (FRw's x_cap, ARw's Pmax), whose cut-off the edge search
# sets.  Bounds are the worst values over 8,000 draws of this test's
# strategy (hypothesis seeds 1 to 4; 17,621 results held to TIGHT while
# ARw levels came in the float grain of Pc):
# - over-delivery, avg_users / target - 1: 5.11e-15 (ARwOFC at 1e-8 of the
#   cap with Pc = 0), rounded up in the third digit; with every ARw level
#   held, 4.89e-15 over 8,000 draws (seeds 1 to 4, 24,047 results);
# - a searched OFC cut-off lies above the root of log(gain / loss) by at
#   most 2 _CUT_TOL lambda_max (probed at 1/4, 1/2, 1, 2, ... of it).
TIGHT = 5.11e-15
ROOT_STEPS = 2.0


def _ofc_edge(scheme, u_avg, dist, p):
    """The scheme's feasibility edge, as its own edge search finds it."""
    problem = Problem(dist, p)
    if scheme is frw_ofc:
        x_cap = problem.x_cap
        return suboptimal._edge(u_avg, problem, lambda c, rule: (
            math.pi * x_cap * rule.integrate(rule.nodes), x_cap))[0]
    return suboptimal._edge(u_avg, problem, lambda c, rule: (
        suboptimal._arw_tail(rule, c, p.max_bs_power - p.static_power,
                             p)))[0]


def _ofc_point(policy, cutoff, u_avg, dist, p):
    """The family's point at ``cutoff``; at the policy's own cut-off, the
    policy's (ARw: at its level)."""
    share = policy.fixed_share
    if share is None:
        return _frw_cut(cutoff, u_avg, dist, p)
    problem = Problem(dist, p)
    if cutoff == policy.cutoff:
        rule = suboptimal._tail_rule(problem, cutoff)
        return suboptimal._arw_at(rule, cutoff, share, suboptimal._arw_tail(
            rule, cutoff, share, p), p)
    return suboptimal._arw_cut(cutoff, u_avg, problem, math.log(share))


def _floor_and_root(u_avg, dist, p):
    """Each scheme's over-delivery (None at an OFC scheme's edge) and, for a
    searched OFC cut-off, its distance above the root in _CUT_TOL lambda_max
    (None at 0 or the edge)."""
    out = {}
    m = dist.lambda_max
    for scheme in SCHEMES:
        try:
            policy, metrics = scheme(u_avg, dist, p)
        except InfeasibleError:
            continue
        users, steps = metrics.avg_users, None
        assert users >= u_avg, scheme.__name__
        excess = users / u_avg - 1.0
        at_edge = scheme in (frw_ofc, arw_ofc) \
            and policy.cutoff == _ofc_edge(scheme, u_avg, dist, p)
        if at_edge:
            excess = None
        if scheme in (frw_ofc, arw_ofc) and policy.cutoff > 0.0 \
                and not at_edge:
            at = _ofc_point(policy, policy.cutoff, u_avg, dist, p)
            assert math.log(at.gain / at.loss) >= 0.0, scheme.__name__
            steps = 0.0
            while steps < 64.0:
                steps = 2.0 * steps or 0.25
                c = max(policy.cutoff - steps * suboptimal._CUT_TOL * m,
                        0.0)
                lower = _ofc_point(policy, c, u_avg, dist, p)
                if lower.gain < lower.loss:
                    break
        out[scheme.__name__] = excess, steps
    return out


@settings(max_examples=60)
@given(p=_sleep_params,
       frac=st.floats(math.log(1e-8), math.log(0.99)).map(math.exp),
       dist=st.sampled_from(list(POOL_DISTS.values())))
# no static or sleep power: the transmit share is the whole level, down to
# the least the target needs
@example(p=SystemParams(pathloss_exp=5.52, static_power=0.0,
                        max_bs_power=7.87, amp_scaling=3.58, sleep_power=0.0),
         frac=1e-8, dist=DIST)
# Pc = 120 W: the level's share is far below one ulp of Pc
@example(p=SystemParams(), frac=1e-8, dist=DIST)
def test_every_floor_is_tight_and_every_cutoff_at_its_root(p, frac, dist):
    u = frac * max_achievable_throughput(dist, p)
    for name, (excess, steps) in _floor_and_root(u, dist, p).items():
        assert excess is None or excess <= TIGHT, (name, excess)
        assert steps is None or steps <= ROOT_STEPS, (name, steps)
