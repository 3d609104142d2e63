import dataclasses
import math
import sys

import numpy as np
import pytest

from greencell import optimal
from greencell.metrics import evaluate
from greencell.optimal import (CASE_A, CASE_B, CriticalDensities,
                               InfeasibleError, critical_densities,
                               hse_critical_densities, hse_x1, hse_x2,
                               lagrangian_x,
                               max_achievable_throughput, policy_for_mu,
                               solve, subproblem, x1_star, x2_star)
from greencell.params import SystemParams, derive_constants
from greencell.scaling import bs_power_x
from greencell.traffic import triangular

P = SystemParams()          # static power 120 W
P140 = SystemParams(static_power=140.0)
P60 = SystemParams(static_power=60.0)
# with a sleep power: the BS switches on where the Lagrangian falls below it
P60_SLEEP = SystemParams(static_power=60.0, sleep_power=40.0)
P140_SLEEP = SystemParams(static_power=140.0, sleep_power=100.0)
LAMBDA_MAX = 1e-4
DIST = triangular(LAMBDA_MAX)


class TestStationaryPoint:
    def test_frozen_value(self):
        assert x1_star(5e-5, 1.05, P) == pytest.approx(628228.30900637396,
                                                       rel=1e-8)

    def test_decreasing_in_density_increasing_throughput(self):
        lams = np.linspace(1e-5, 1e-4, 64)
        xs = [x1_star(float(lam), 1.05, P) for lam in lams]
        assert all(b < a for a, b in zip(xs, xs[1:]))
        us = [lam * x for lam, x in zip(lams, xs)]
        assert all(b > a for a, b in zip(us, us[1:]))

    def test_consumption_increasing_along_branch(self):
        lams = np.linspace(1e-5, 1e-4, 64)
        pws = [bs_power_x(x1_star(float(lam), 1.05, P), float(lam), P)
               for lam in lams]
        assert all(b > a for a, b in zip(pws, pws[1:]))

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            x1_star(0.0, 1.0, P)
        with pytest.raises(ValueError):
            x1_star(1e-5, 0.0, P)


class TestCapPoint:
    def test_defining_equation(self):
        x = x2_star(5e-5, P)
        assert abs(bs_power_x(x, 5e-5, P) - P.max_bs_power) <= \
            1e-6 * P.max_bs_power

    def test_decreasing_in_density_increasing_throughput(self):
        lams = np.linspace(1e-5, 1e-4, 64)
        xs = [x2_star(float(lam), P) for lam in lams]
        assert all(b < a for a, b in zip(xs, xs[1:]))
        us = [lam * x for lam, x in zip(lams, xs)]
        assert all(b > a for a, b in zip(us, us[1:]))


class TestSubproblem:
    def test_degenerate_inputs_stay_off(self):
        assert subproblem(0.0, 1.0, P) == 0.0
        assert subproblem(5e-5, 0.0, P) == 0.0

    def test_respects_power_cap(self):
        for lam in (1e-5, 5e-5, 1e-4):
            x = subproblem(lam, 3.0, P)
            assert bs_power_x(x, lam, P) <= P.max_bs_power * (1.0 + 1e-9)

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            lam = float(rng.uniform(1e-6, 1e-4))
            mu = float(rng.uniform(0.2, 4.0))
            x_opt = subproblem(lam, mu, P)
            l_opt = lagrangian_x(x_opt, lam, mu, P)
            cap = x2_star(lam, P)
            candidates = np.concatenate([[0.0], rng.uniform(0.0, cap, 99)])
            for x in candidates:
                assert l_opt <= lagrangian_x(float(x), lam, mu, P) + 1e-8

    @pytest.mark.parametrize("p", [P60_SLEEP, P140_SLEEP])
    @pytest.mark.parametrize("mu", [0.8, 1.05, 2.0])
    def test_sleep_power_oracle(self, p, mu):
        # off costs the sleep power; a dense grid of x on (0, cap] and the
        # off state bound the minimum from above, and the BS is on exactly
        # above the switch-on cut-off of the thresholds
        cut = critical_densities(mu, p).on_cutoff
        for lam in np.geomspace(1e-7, 1e-4, 40).tolist():
            x_opt = subproblem(lam, mu, p)
            grid = np.append(0.0, np.geomspace(1e-6, 1.0, 4000)
                             * x2_star(lam, p))
            assert lagrangian_x(x_opt, lam, mu, p) <= \
                lagrangian_x(grid, lam, mu, p).min() + 1e-8
            if abs(lam - cut) > 1e-9 * cut:
                assert (x_opt > 0.0) == (lam > cut), lam


class TestCriticalDensities:
    def test_first_benchmark_ordering(self):
        crits = critical_densities(1.05, P)
        assert crits.lambda2 > crits.lambda1
        assert crits.case_tag == CASE_A

    def test_second_benchmark_ordering(self):
        crits = critical_densities(0.8, P140)
        assert crits.lambda3 > crits.lambda1 > crits.lambda2
        assert crits.case_tag == CASE_B

    def test_the_case_switches_once_where_lambda2_meets_lambda1(self):
        # case A is lambda2 >= lambda1, exactly: across the switch, 800
        # steps of 2e-12 relative in mu change the tag once, and u moves by
        # no more than the step itself, so no tolerance is needed
        lo, hi = 1.0, 2.0  # case A at 1, case B at 2
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            if critical_densities(mid, P).case_tag == CASE_A:
                lo = mid
            else:
                hi = mid
        at = critical_densities(lo, P)
        assert 0.0 <= at.lambda2 - at.lambda1 <= 4.0 * math.ulp(at.lambda1)
        mus = lo * (1.0 + 2e-12 * (np.arange(800) - 400))
        tags = [critical_densities(mu, P).case_tag for mu in mus]
        assert sum(a != b for a, b in zip(tags, tags[1:])) == 1
        assert (tags[0], tags[-1]) == (CASE_A, CASE_B)
        u = np.array([optimal._avg_throughput([mu], DIST, P)[0].users
                      for mu in mus])
        assert np.max(np.abs(np.diff(u)) / u[1:]) <= 1e-11

    def test_threshold_defining_equations(self):
        crits = critical_densities(1.05, P)
        l1 = crits.lambda1
        assert abs(lagrangian_x(x1_star(l1, 1.05, P), l1, 1.05, P)) <= 1e-4
        l3 = crits.lambda3
        assert abs(lagrangian_x(x2_star(l3, P), l3, 1.05, P)) <= 1e-4

    def test_sign_structure_around_first_threshold(self):
        crits = critical_densities(1.05, P)
        l1 = crits.lambda1
        for factor in (0.5, 0.9):
            lam = factor * l1
            assert lagrangian_x(x1_star(lam, 1.05, P), lam, 1.05, P) > 0.0
        for factor in (1.1, 2.0):
            lam = factor * l1
            assert lagrangian_x(x1_star(lam, 1.05, P), lam, 1.05, P) < 0.0

    def test_always_positive_region_bound(self):
        # below this density the consumption term dominates for every x,
        # so switching on can never pay off
        c = derive_constants(P)
        mu, alpha = 1.05, P.pathloss_exp
        x_min = (2.0 * mu / ((alpha + 2.0) * math.log(2.0) * c.d1 * c.d2)) \
            ** (2.0 / alpha)
        lam_thr = (alpha + 2.0) * P.static_power \
            / (alpha * mu * math.pi * x_min)
        lam = 0.9 * lam_thr
        for x in np.geomspace(1e-3, 1e8, 200):
            assert lagrangian_x(float(x), lam, mu, P) > 0.0

    @pytest.mark.parametrize("pc,ps,pmax", [(60.0, 20.0, 160.0),
                                            (140.0, 100.0, 160.0)])
    @pytest.mark.parametrize("mu", [0.5, 1.05, 3.0])
    def test_sleep_power_shifts_the_reference(self, pc, ps, pmax, mu):
        # switching on compares with the off state, so only Pc - Ps and
        # Pmax - Ps enter the thresholds (exact here: the powers are whole)
        p = SystemParams(static_power=pc, sleep_power=ps, max_bs_power=pmax)
        q = SystemParams(static_power=pc - ps, max_bs_power=pmax - ps)
        assert critical_densities(mu, p) == critical_densities(mu, q)
        assert hse_critical_densities(mu, p) == hse_critical_densities(mu, q)
        assert critical_densities(mu, p) != \
            critical_densities(mu, SystemParams(static_power=pc,
                                                max_bs_power=pmax))

    def test_decreasing_in_dual_price(self):
        a = critical_densities(1.0, P)
        b = critical_densities(1.3, P)
        assert b.lambda1 < a.lambda1
        assert b.lambda3 < a.lambda3


class TestClosedForms:
    def test_hse_x1_defining_identity(self):
        c = derive_constants(P)
        for lam in (3e-5, 1e-4):
            x = hse_x1(lam, 1.05, P)
            lhs = math.log(2.0) * c.d1 * c.d2 * x ** (P.pathloss_exp / 2.0) \
                * 2.0 ** (c.d2 * math.pi * lam * x)
            assert lhs == pytest.approx(1.05, rel=1e-9)

    def test_hse_x2_defining_identity(self):
        c = derive_constants(P)
        for lam in (3e-5, 1e-4):
            x = hse_x2(lam, P)
            lhs = c.d1 * x ** (P.pathloss_exp / 2.0) \
                * 2.0 ** (c.d2 * math.pi * lam * x)
            assert lhs == pytest.approx(P.max_bs_power - P.static_power,
                                        rel=1e-9)

    def test_cap_branch_matches_exact_at_peak_density(self):
        r_exact = math.sqrt(x2_star(LAMBDA_MAX, P))
        r_hse = math.sqrt(hse_x2(LAMBDA_MAX, P))
        assert abs(r_hse - r_exact) / r_exact < 0.02

    def test_hse_criticals_first_case_ordering(self):
        crits = hse_critical_densities(1.05, P)
        assert crits.lambda2 > crits.lambda1
        assert crits.case_tag == CASE_A

    def test_hse_criticals_decreasing_in_dual_price(self):
        a = hse_critical_densities(1.05, P)
        b = hse_critical_densities(1.05 * 1.1, P)
        assert b.lambda1 < a.lambda1
        assert b.lambda2 < a.lambda2
        assert b.lambda3 < a.lambda3

    def test_hse_second_threshold_domain_flag(self):
        c = derive_constants(P)
        pt_max = P.max_bs_power - P.static_power
        mu_small = 0.5 * c.d3 * pt_max
        assert math.isinf(hse_critical_densities(mu_small, P).lambda2)

    def test_hse_thresholds_past_the_float_range_are_inf(self):
        # at these prices the closed forms' exponentials overflow; the exact
        # thresholds are their values, inf past the float range, and the
        # hse policy is off at every density, as the exact one is
        inf = math.inf
        assert critical_densities(0.002, P) == CriticalDensities(inf, inf, inf)
        exact = critical_densities(0.003, P)
        assert exact.lambda1 > 1e200
        assert exact.lambda2 == exact.lambda3 == inf
        assert policy_for_mu(0.003, P, LAMBDA_MAX).radius_at(LAMBDA_MAX) == 0.0
        assert hse_critical_densities(0.002, P) == \
            CriticalDensities(inf, inf, inf)
        crits = hse_critical_densities(0.003, P)
        assert crits.lambda1 > 1e200
        assert crits.lambda2 == crits.lambda3 == inf
        policy = policy_for_mu(0.003, P, LAMBDA_MAX, "hse")
        assert policy.criticals == crits
        assert policy.radius_at(LAMBDA_MAX) == 0.0
        # lambda2's exponent grows without bound as its denominator nears 0
        c = derive_constants(P)
        mu = c.d3 * (P.max_bs_power - P.static_power) * (1.0 + 1e-6)
        assert hse_critical_densities(mu, P).lambda2 == inf

    def test_hse_criticals_near_exact(self):
        exact = critical_densities(1.05, P)
        approx = hse_critical_densities(1.05, P)
        assert abs(approx.lambda1 - exact.lambda1) / exact.lambda1 < 0.10
        assert abs(approx.lambda3 - exact.lambda3) / exact.lambda3 < 0.10


class TestPolicyTabulation:
    def test_off_region_and_monotonicity(self):
        pol = policy_for_mu(2.0, P, LAMBDA_MAX)
        cut = pol.criticals.on_cutoff
        off = pol.lambdas <= cut
        assert np.all(pol.radii[off] == 0.0)
        on = pol.lambdas > cut
        r_on, lam_on = pol.radii[on], pol.lambdas[on]
        assert np.all(np.diff(r_on) < 0.0)
        assert np.all(np.diff(math.pi * lam_on * r_on ** 2) > 0.0)
        assert pol.powers.max() <= P.max_bs_power * (1.0 + 1e-9)

    def test_zero_price_means_always_off(self):
        pol = policy_for_mu(0.0, P, LAMBDA_MAX)
        assert np.all(pol.radii == 0.0)
        assert np.all(pol.powers == P.sleep_power)

    def test_first_case_branch_structure(self):
        mu = 2.0
        pol = policy_for_mu(mu, P60, LAMBDA_MAX)
        crits = pol.criticals
        assert pol.case_tag == CASE_A
        for lam in np.linspace(LAMBDA_MAX / 256, LAMBDA_MAX, 40):
            lam = float(lam)
            x = subproblem(lam, mu, P60)
            if lam <= crits.lambda1:
                assert x == 0.0
            elif lam <= crits.lambda2:
                assert x == pytest.approx(x1_star(lam, mu, P60), rel=1e-6)
            else:
                assert x == pytest.approx(x2_star(lam, P60), rel=1e-6)

    def test_second_case_branch_structure(self):
        mu = 0.8
        crits = critical_densities(mu, P140)
        assert crits.case_tag == CASE_B
        lo = 0.9 * crits.lambda3
        hi = min(1.5 * crits.lambda3, LAMBDA_MAX)
        for lam in np.linspace(lo, hi, 20):
            lam = float(lam)
            x = subproblem(lam, mu, P140)
            if lam < crits.lambda3:
                assert x == 0.0
            elif lam > crits.lambda3 * (1.0 + 1e-6):
                assert x == pytest.approx(x2_star(lam, P140), rel=1e-6)

    def test_radius_interpolation_respects_cutoff(self):
        pol = policy_for_mu(2.0, P, LAMBDA_MAX)
        cut = pol.criticals.on_cutoff
        assert pol.radius_at(cut * 0.5) == 0.0
        above = min(cut * 1.05, LAMBDA_MAX)
        assert pol.radius_at(above) > 0.0


class TestSolve:
    def test_constraint_tightness(self):
        for u_avg in (30.0, 80.0):
            _, metrics = solve(u_avg, DIST, P)
            assert 0.0 <= metrics.avg_users - u_avg <= 1e-10 * u_avg

    def test_throughput_jump_returns_the_nearest_mu_above(self, monkeypatch):
        # no mu meets a target inside the step exactly
        jump = 3.3
        real = optimal._avg_throughput
        monkeypatch.setattr(optimal, "_avg_throughput",
                            lambda mus, dist, p: [dataclasses.replace(
                                state, slope=None,
                                users=80.0 if state.mu >= jump else 20.0)
                                for state in real(mus, dist, p)])
        pol, _ = solve(50.0, DIST, P)
        assert jump <= pol.mu <= jump * (1.0 + 1e-12)

    @pytest.mark.parametrize("mode", ["HSE", "", "closed-form"])
    def test_bad_mode_raises_before_any_dual_evaluation(self, monkeypatch,
                                                       mode):
        calls = []
        real = optimal._avg_throughput
        monkeypatch.setattr(optimal, "_avg_throughput",
                            lambda *args: calls.append(args) or real(*args))
        with pytest.raises(ValueError, match="mode"):
            solve(30.0, DIST, P, mode=mode)
        assert calls == []

    def test_infeasible_reports_ceiling(self):
        cap = max_achievable_throughput(DIST, P)
        with pytest.raises(InfeasibleError) as err:
            solve(cap * 1.1, DIST, P)
        assert err.value.max_achievable == pytest.approx(cap, rel=1e-9)

    def test_tiny_target_costs_little(self):
        _, metrics = solve(0.5, DIST, P)
        assert metrics.avg_power_w < 10.0
        assert metrics.on_probability < 0.05

    def test_near_capacity_runs_at_the_cap(self):
        cap = max_achievable_throughput(DIST, P)
        pol, metrics = solve(0.999 * cap, DIST, P)
        on = pol.lambdas > pol.criticals.on_cutoff
        assert pol.powers[on].min() >= P.max_bs_power * (1.0 - 1e-6)
        assert metrics.on_probability > 0.99

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            solve(0.0, DIST, P)

    def test_summary_is_serializable(self):
        pol, _ = solve(50.0, DIST, P)
        summary = pol.summary()
        assert summary["case_tag"] in (CASE_A, CASE_B)
        assert summary["mu"] == pol.mu


def test_a_threshold_below_the_least_normal_float_is_zero():
    # Pc at the least normal float puts lambda1 near 1e-315, and the kernels
    # take no subnormal density, such as the one just above it: the
    # threshold reads 0 and the BS is on at every normal density
    p = SystemParams(static_power=sys.float_info.min, max_bs_power=1.0)
    policy, metrics = solve(0.5 * max_achievable_throughput(DIST, p), DIST, p)
    assert policy.criticals.lambda1 == 0.0
    assert policy.breakpoints == (policy.criticals.lambda3,)
    want = evaluate(policy.radius_at, DIST, p, breakpoints=policy.breakpoints)
    for field, value in metrics.as_dict().items():
        assert value == pytest.approx(getattr(want, field), rel=1e-12), field
