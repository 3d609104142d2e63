"""End-to-end acceptance gate.

Each test checks one numbered release criterion and writes a single
PASS/FAIL line to the real stdout so the verdicts are visible even under
pytest's output capture.  Criteria are asserted at their stated tolerances;
none are loosened here, so a FAIL line marks a genuine gap between the
implemented model and the criterion.
"""

import math
import time

import numpy as np

import conftest

from greencell import cli, mcsim, optimal, scaling, suboptimal
from greencell.numerics import lambert_w0
from greencell.optimal import (critical_densities, hse_critical_densities,
                               hse_x1, hse_x2, lagrangian_x, solve,
                               subproblem, x1_star, x2_star)
from greencell.params import SystemParams
from greencell.scaling import bs_power_x
from greencell.traffic import triangular

LAMBDA_MAX = 1e-4
DIST = triangular(LAMBDA_MAX)
P120 = SystemParams()
P140 = SystemParams(static_power=140.0)
P60 = SystemParams(static_power=60.0)
P100 = SystemParams(static_power=100.0)


def report(num: int, title: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d} [{title}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def test_criterion_01_scaling_law_validation():
    start = time.monotonic()
    rng = mcsim.make_rng(20260823)
    mc_misses, approx_misses = [], []
    for radius in (250.0, 500.0, 1000.0, 2000.0):
        for lam in (1e-6, 1e-5, 5e-5):
            est = mcsim.simulate_total_power(lam, radius, P120, 100_000, rng)
            exact = scaling.avg_transmit_power_exact(radius, lam, P120)
            approx = scaling.avg_transmit_power(radius, lam, P120)
            if abs(est.mean - exact) > 3.0 * est.std_err:
                mc_misses.append((radius, lam))
            if radius >= 10.0 * P120.ref_distance \
                    and abs(approx - exact) / exact >= 0.02:
                approx_misses.append((radius, lam,
                                      round(abs(approx - exact) / exact, 4)))
    elapsed = time.monotonic() - start
    ok = not mc_misses and not approx_misses and elapsed < 60.0
    report(1, "scaling-law validation", ok,
           f"mc_misses={mc_misses}, approx>2%={approx_misses}, "
           f"elapsed={elapsed:.1f}s")
    assert ok, (mc_misses, approx_misses, elapsed)


def test_criterion_02_case_orderings():
    a = critical_densities(1.05, P120)
    b = critical_densities(0.8, P140)
    ok = (a.lambda2 > a.lambda1) and (b.lambda3 > b.lambda1 > b.lambda2)
    report(2, "threshold case orderings", ok,
           f"first: l2>l1 {a.lambda2 > a.lambda1}; "
           f"second: l3>l1>l2 {b.lambda3 > b.lambda1 > b.lambda2}")
    assert ok


def test_criterion_03_closed_form_agreement():
    mu = 1.05
    radius_misses = []
    for lam in np.linspace(0.3 * LAMBDA_MAX, LAMBDA_MAX, 8):
        lam = float(lam)
        r1e = math.sqrt(x1_star(lam, mu, P120))
        r1h = math.sqrt(hse_x1(lam, mu, P120))
        if abs(r1h - r1e) / r1e >= 0.02:
            radius_misses.append(("stationary", round(lam / LAMBDA_MAX, 2),
                                  round(abs(r1h - r1e) / r1e, 4)))
        r2e = math.sqrt(x2_star(lam, P120))
        r2h = math.sqrt(hse_x2(lam, P120))
        if abs(r2h - r2e) / r2e >= 0.02:
            radius_misses.append(("capped", round(lam / LAMBDA_MAX, 2),
                                  round(abs(r2h - r2e) / r2e, 4)))
    exact = critical_densities(mu, P120)
    approx = hse_critical_densities(mu, P120)
    d1 = abs(approx.lambda1 - exact.lambda1) / exact.lambda1
    d3 = abs(approx.lambda3 - exact.lambda3) / exact.lambda3
    crit_ok = d1 < 0.10 and d3 < 0.10
    ok = not radius_misses and crit_ok
    report(3, "closed-form agreement", ok,
           f"radius>2%={radius_misses}, l1 gap={d1:.3f}, l3 gap={d3:.3f}")
    assert ok, (radius_misses, d1, d3)


def test_criterion_04_lambert_w_identity():
    worst = 0.0
    for y in np.logspace(-12, 12, 200):
        w = lambert_w0(float(y))
        worst = max(worst, abs(w * math.exp(w) - y) / max(1.0, y))
    ok = worst <= 1e-12
    report(4, "Lambert W identity", ok, f"worst residual {worst:.2e}")
    assert ok


def test_criterion_05_monotonicity_suite():
    mu = 1.05
    lams = np.linspace(1e-5, LAMBDA_MAX, 64)
    x1s = np.array([x1_star(float(lam), mu, P120) for lam in lams])
    x2s = np.array([x2_star(float(lam), P120) for lam in lams])
    p1s = np.array([bs_power_x(x, float(lam), P120)
                    for x, lam in zip(x1s, lams)])
    checks = {
        "x1 decreasing": np.all(np.diff(x1s) < 0.0),
        "x2 decreasing": np.all(np.diff(x2s) < 0.0),
        "lam*x1 increasing": np.all(np.diff(lams * x1s) > 0.0),
        "lam*x2 increasing": np.all(np.diff(lams * x2s) > 0.0),
        "power along x1 increasing": np.all(np.diff(p1s) > 0.0),
    }
    ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    report(5, "monotonicity suite", ok, f"violations={failed or 'none'}")
    assert ok, failed


def test_criterion_06_subproblem_optimality_oracle():
    rng = np.random.default_rng(606)
    violations = 0
    for _ in range(100):
        lam = float(rng.uniform(1e-6, LAMBDA_MAX))
        mu = float(rng.uniform(0.2, 4.0))
        x_opt = subproblem(lam, mu, P120)
        l_opt = lagrangian_x(x_opt, lam, mu, P120)
        # candidates span the admissible set of the capped minimization
        cap = x2_star(lam, P120)
        candidates = np.concatenate([[0.0], rng.uniform(0.0, cap, 99)])
        for x in candidates:
            if l_opt > lagrangian_x(float(x), lam, mu, P120) + 1e-8:
                violations += 1
    ok = violations == 0
    report(6, "subproblem optimality oracle", ok,
           f"violations={violations}/10000")
    assert ok


def _family_power(func, u_avg, params):
    try:
        return func(u_avg, DIST, params).metrics.avg_power_w
    except optimal.InfeasibleError:
        return None


def _optimal_power(u_avg, params):
    try:
        return solve(u_avg, DIST, params)[1].avg_power_w
    except optimal.InfeasibleError:
        return None


def test_criterion_07_scheme_dominance_lattice():
    tol = 1e-6
    problems = []
    for u_avg in (50.0, 100.0, 150.0, 200.0):
        opt = _optimal_power(u_avg, P60)
        funcs = ((suboptimal.ARW_OFC, suboptimal.arw_ofc),
                 (suboptimal.ARW_OOFC, suboptimal.arw_oofc),
                 (suboptimal.FRW_OFC, suboptimal.frw_ofc),
                 (suboptimal.FRW_OOFC, suboptimal.frw_oofc))
        pw = {tag: _family_power(func, u_avg, P60) for tag, func in funcs}

        def chain_ok(a, b):
            # each scheme's feasible set nests inside the next one's, so an
            # infeasible outer scheme with a feasible inner one is a bug
            if a is not None and b is not None:
                return a <= b * (1.0 + tol)
            return not (a is None and b is not None)

        if not chain_ok(opt, pw[suboptimal.ARW_OFC]):
            problems.append((u_avg, "optimal<=ARwOFC"))
        if not chain_ok(pw[suboptimal.ARW_OFC], pw[suboptimal.ARW_OOFC]):
            problems.append((u_avg, "ARwOFC<=ARwoOFC"))
        if not chain_ok(opt, pw[suboptimal.FRW_OFC]):
            problems.append((u_avg, "optimal<=FRwOFC"))
        if not chain_ok(pw[suboptimal.FRW_OFC], pw[suboptimal.FRW_OOFC]):
            problems.append((u_avg, "FRwOFC<=FRwoOFC"))
        if opt is not None and pw[suboptimal.ARW_OFC] is not None:
            if (pw[suboptimal.ARW_OFC] - opt) / opt >= 0.03:
                problems.append((u_avg, "ARwOFC within 3%"))
    ok = not problems
    report(7, "scheme dominance lattice", ok, f"violations={problems or 'none'}")
    assert ok, problems


def test_criterion_08_family_gap_at_high_load():
    u_avg = 220.0
    details, ok = [], True
    for params, tag in ((P60, "static 60 W"), (P100, "static 100 W")):
        adaptive = [_family_power(suboptimal.arw_ofc, u_avg, params),
                    _family_power(suboptimal.arw_oofc, u_avg, params)]
        fixed = [_family_power(suboptimal.frw_ofc, u_avg, params),
                 _family_power(suboptimal.frw_oofc, u_avg, params)]
        if None in adaptive or None in fixed:
            ok = False
            details.append(f"{tag}: target {u_avg} users infeasible "
                           f"(adaptive={adaptive}, fixed={fixed})")
            continue
        gap = min(fixed) - min(adaptive)
        if not 30.0 <= gap <= 60.0:
            ok = False
        details.append(f"{tag}: gap={gap:.1f} W")
    report(8, "family gap at high load", ok, "; ".join(details))
    assert ok, details


def test_criterion_09_constraint_tightness():
    cap = optimal.max_achievable_throughput(DIST, P120)
    problems = []
    for u_avg in (20.0, 60.0, 0.999 * cap):
        _, metrics = solve(u_avg, DIST, P120)
        tight = abs(metrics.avg_users - u_avg) <= 1e-4 * u_avg
        reported_above = metrics.avg_users >= u_avg * (1.0 - 1e-4)
        if not (tight or reported_above):
            problems.append((u_avg, metrics.avg_users))
    ok = not problems
    report(9, "throughput constraint tightness", ok,
           f"violations={problems or 'none'}")
    assert ok, problems


def test_criterion_10_sweep_determinism(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code = cli.main(["sweep", "--u-avg", "40,70",
                         "--schemes", "optimal,arwoofc,frwoofc",
                         "--out", str(path)])
        assert code == cli.EXIT_OK
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1]
    report(10, "sweep determinism", ok,
           "byte-identical" if ok else "outputs differ")
    assert ok
