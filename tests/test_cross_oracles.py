"""Cross-oracles for the kernels, the thresholds and the Gauss-Legendre rule.

The per-density kernels (Newton in log x) are checked against scalar
bisection on their defining equations, scalar calls against array calls,
the load-exponent thresholds against a scan and bisection of their defining
functions, and the fixed quadrature rule against adaptive
``scipy.integrate.quad`` and, for its tail mass, the exact cdf.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, event, given, strategies as st
from scipy import integrate

from greencell import cli
from greencell.numerics import expect, gauss_legendre, lambert_w0
from greencell.optimal import (critical_densities, hse_x1, hse_x2,
                               lagrangian_x, subproblem, x1_star, x2_star)
from greencell.params import SystemParams, derive_constants
from greencell.scaling import bs_power_x, max_range_x, transmit_power_x
from greencell.traffic import from_table, triangular
from oracles import bisect, density_cdf, grow_bracket

CONFIGS = ("configs/baseline.json", "configs/low_static.cfg")
MUS = (0.3, 1.05, 3.0)
LAMBDA_MAX = 1e-4
DENSITIES = np.geomspace(1e-9 * LAMBDA_MAX, LAMBDA_MAX, 25)
# a table density whose pdf is positive at 0, so that lambda * x2*(lambda)
# enters the integral like lambda^0.6
TABLE = from_table([0.0, 2.5e-5, 5e-5, 7.5e-5, 1e-4], [1.0, 3.0, 2.0, 4.0, 1.0])


def _params(path):
    return cli._build_context(cli._load_config(path))[0]


def _ref_root(f):
    return bisect(f, grow_bracket(f, 1e-30, 1.0), rel_tol=1e-14)


def _ref_x1(lam, mu, p):
    """Root of dPt/dx = mu pi lambda / a by scalar bisection."""
    c = derive_constants(p)
    h = 0.5 * p.pathloss_exp
    q = c.d3 * math.pi * lam

    def f(x):
        y = q * x
        if y > 700.0:
            return math.inf
        slope = c.d1 * x ** (h - 1.0) * (h * math.expm1(y) + y * math.exp(y))
        return slope - mu * math.pi * lam / p.amp_scaling
    return _ref_root(f)


def _ref_budget_x(lam, budget, p):
    """Root of a Pt(x) + Pc = budget by scalar bisection."""
    c = derive_constants(p)
    target = (budget - p.static_power) / p.amp_scaling
    q = c.d3 * math.pi * lam

    def f(x):
        y = q * x
        if y > 700.0:
            return math.inf
        return c.d1 * x ** (0.5 * p.pathloss_exp) * math.expm1(y) - target
    return _ref_root(f)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("mu", MUS)
def test_stationary_point_matches_bisection(config, mu):
    p = _params(config)
    got = x1_star(DENSITIES, mu, p)
    want = np.array([_ref_x1(float(lam), mu, p) for lam in DENSITIES])
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("config", CONFIGS)
def test_capped_point_matches_bisection(config):
    p = _params(config)
    for budget in (p.max_bs_power, 0.5 * (p.static_power + p.max_bs_power)):
        got = max_range_x(DENSITIES, budget - p.static_power, p)
        want = np.array([_ref_budget_x(float(lam), budget, p)
                         for lam in DENSITIES])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
    np.testing.assert_array_equal(x2_star(DENSITIES, p),
                                  max_range_x(DENSITIES, p.max_bs_power
                                              - p.static_power, p))


@pytest.mark.parametrize("config", CONFIGS)
def test_scalar_and_array_calls_are_bit_identical(config):
    p = _params(config)
    mu = 1.05
    xs = x2_star(DENSITIES, p) * np.linspace(0.0, 1.2, DENSITIES.size)
    kernels = {
        "x1_star": lambda lam: x1_star(lam, mu, p),
        "x2_star": lambda lam: x2_star(lam, p),
        "max_range_x": lambda lam: max_range_x(lam, 140.0 - p.static_power,
                                               p),
        "subproblem": lambda lam: subproblem(lam, mu, p),
        "hse_x1": lambda lam: hse_x1(lam, mu, p),
        "hse_x2": lambda lam: hse_x2(lam, p),
        "lambert_w0": lambda lam: lambert_w0(lam * 1e5),
    }
    for name, kernel in kernels.items():
        scalars = [kernel(float(lam)) for lam in DENSITIES]
        assert all(type(s) is float for s in scalars), name
        np.testing.assert_array_equal(np.array(scalars), kernel(DENSITIES),
                                      err_msg=name)
    pairs = {
        "transmit_power_x": lambda x, lam: transmit_power_x(x, lam, p),
        "bs_power_x": lambda x, lam: bs_power_x(x, lam, p),
        "lagrangian_x": lambda x, lam: lagrangian_x(x, lam, mu, p),
    }
    for name, kernel in pairs.items():
        scalars = [kernel(float(x), float(lam))
                   for x, lam in zip(xs, DENSITIES)]
        np.testing.assert_array_equal(np.array(scalars),
                                      kernel(xs, DENSITIES), err_msg=name)


# sign each threshold function takes past its root: L along x1* falls,
# consumption along x1* rises, L along x2* falls
_PAST_ROOT = np.array([[-1.0], [1.0], [-1.0]])


def _threshold_values(lams, mu, p):
    """The three threshold functions, row i at densities ``lams[i]``."""
    x = np.concatenate([np.ravel(x1_star(lams[:2], mu, p)),
                        np.ravel(x2_star(lams[2], p))]).reshape(lams.shape)
    power = bs_power_x(x, lams, p)
    rows = power - mu * math.pi * lams * x
    rows[1] = power[1] - p.max_bs_power
    return rows * _PAST_ROOT


def _ref_critical_densities(mu, p, lambda_max):
    """Thresholds by a geometric scan over [1e-6, 1e3] * lambda_max and a
    bisection of the first crossing cell down to relative width 1e-14."""
    grid = np.geomspace(1e-6 * lambda_max, 1e3 * lambda_max, 90)
    vals = _threshold_values(np.broadcast_to(grid, (3, grid.size)), mu, p)
    roots = []
    for i, row in enumerate(vals):
        hits = np.flatnonzero(row >= 0.0)
        if not hits.size:
            roots.append(math.inf)
            continue
        j = hits[0]
        if j == 0:
            roots.append(0.0 if row[0] > 0.0 else grid[0])
            continue
        lo, hi = grid[j - 1], grid[j]
        while hi - lo > 1e-14 * hi:
            mid = 0.5 * (lo + hi)
            lams = np.full((3, 1), mid)
            if _threshold_values(lams, mu, p)[i, 0] >= 0.0:
                hi = mid
            else:
                lo = mid
        roots.append(0.5 * (lo + hi))
    return roots


_valid_params = st.builds(
    lambda alpha, pc, gap, amp: SystemParams(
        pathloss_exp=alpha, static_power=pc, max_bs_power=pc + gap,
        amp_scaling=amp),
    st.floats(2.1, 6.0), st.floats(0.0, 300.0),
    st.floats(-1.0, 3.0).map(lambda e: 10.0 ** e), st.floats(1.0, 10.0))


@given(p=_valid_params,
       log_mu=st.floats(-3.0, 4.0),
       log_eps=st.one_of(st.none(), st.floats(-15.0, 0.0)))
def test_thresholds_match_scan_and_bisection(p, log_mu, log_eps):
    # log_eps puts mu just above d3 (Pmax - Pc), where lambda2 runs off to
    # inf; otherwise mu is log-uniform on [1e-3, 1e4]
    if log_eps is None:
        mu = 10.0 ** log_mu
    else:
        mu = derive_constants(p).d3 * (p.max_bs_power - p.static_power) \
            * (1.0 + 10.0 ** log_eps)
    crits = critical_densities(mu, p)
    got = [crits.lambda1, crits.lambda2, crits.lambda3]
    want = _ref_critical_densities(mu, p, LAMBDA_MAX)
    event("finite: " + " ".join(n for n, v in zip(("l1", "l2", "l3"), got)
                                if 0.0 < v < math.inf))
    # the scan reports a root below its window as 0, one above it as inf
    lo, hi = 1e-6 * LAMBDA_MAX, 1e3 * LAMBDA_MAX
    for name, g, w in zip(("lambda1", "lambda2", "lambda3"), got, want):
        if w == 0.0:
            assert g < lo, name
        elif w == math.inf:
            assert g > hi, name
        else:
            assert g == pytest.approx(w, rel=1e-12, abs=0.0), name
    # the defining equations, through the kernels, inside the window: past
    # it x1_star overflows its exponent guard
    lam1, lam2, lam3 = got
    if lo <= lam1 <= hi:
        x = x1_star(lam1, mu, p)
        on = mu * math.pi * lam1 * x
        assert bs_power_x(x, lam1, p) == pytest.approx(on, rel=1e-11)
    if lo <= lam2 <= hi:
        x = x1_star(lam2, mu, p)
        assert bs_power_x(x, lam2, p) == pytest.approx(p.max_bs_power,
                                                       rel=1e-11)
    if lo <= lam3 <= hi:
        x = x2_star(lam3, p)
        assert mu * math.pi * lam3 * x == pytest.approx(p.max_bs_power,
                                                        rel=1e-11)


def _quad(g, dist, points=()):
    pts = sorted({float(c) for c in (*points, *dist.breakpoints)
                  if 0.0 < c < dist.lambda_max})
    value, _ = integrate.quad(lambda lam: g(lam) * dist.pdf(lam), 0.0,
                              dist.lambda_max, points=pts or None,
                              epsabs=0.0, epsrel=1e-12, limit=1000)
    return value


@pytest.mark.parametrize("dist", [triangular(LAMBDA_MAX), TABLE],
                         ids=["triangular", "table"])
@pytest.mark.parametrize("config", CONFIGS)
def test_rule_matches_quad_on_capped_throughput(dist, config):
    p = _params(config)

    def g(lam):
        return math.pi * lam * x2_star(lam, p)
    got = expect(g, dist)
    assert got == pytest.approx(_quad(g, dist), rel=1e-9)
    # solver code evaluates the same integrand as one array on the nodes
    rule = gauss_legendre(dist, 0.0, dist.lambda_max)
    assert rule.integrate(math.pi * rule.nodes * x2_star(rule.nodes, p)) \
        == got


@pytest.mark.parametrize("dist", [triangular(LAMBDA_MAX), TABLE],
                         ids=["triangular", "table"])
@pytest.mark.parametrize("config,mu", [("configs/low_static.cfg", 1.05),
                                       ("configs/low_static.cfg", 3.0),
                                       ("configs/baseline.json", 3.0)])
def test_rule_matches_quad_on_dual_throughput(dist, config, mu):
    p = _params(config)
    crits = critical_densities(mu, p)
    points = [c for c in (crits.lambda1, crits.lambda2, crits.lambda3)
              if 0.0 < c < dist.lambda_max]
    assert points  # the integrand switches on inside the support

    def g(lam):
        return math.pi * lam * subproblem(lam, mu, p)
    got = expect(g, dist, breakpoints=points)
    assert got > 0.0
    assert got == pytest.approx(_quad(g, dist, points), rel=1e-9)


def test_rule_nodes_are_interior_and_weights_integrate_the_pdf():
    for dist in (triangular(LAMBDA_MAX), TABLE):
        rule = gauss_legendre(dist, 0.0, dist.lambda_max, (3e-5,))
        assert rule.nodes.min() > 0.0
        assert rule.nodes.max() < dist.lambda_max
        assert rule.integrate(np.ones_like(rule.nodes)) == pytest.approx(
            1.0, rel=1e-14)
    assert gauss_legendre(TABLE, 1e-4, 1e-4).nodes.size == 0


@st.composite
def _tables(draw):
    """A table of 2-12 distinct knots on a 2^-20 grid of a support of 1e-7
    to 100, with weights 0 or in [1e-3, 1e3], not all 0."""
    m = 10.0 ** draw(st.floats(-7.0, 2.0))
    steps = draw(st.lists(st.integers(0, 2 ** 20 - 1), min_size=1,
                          max_size=11, unique=True))
    knots = [k * 2.0 ** -20 * m for k in sorted(steps)] + [m]
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
                            min_size=len(knots), max_size=len(knots)))
    assume(any(weights))
    return from_table(knots, weights)


@given(dist=_tables(),
       frac=st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                      st.floats(1.0 - 1e-15, 1.0, exclude_max=True)))
def test_tail_mass_of_the_rule_is_one_minus_the_cdf(dist, frac):
    # _on_mass and evaluate take this mass as the on-probability.  The rule
    # reads the pdf at rounded nodes, each off by an ulp of lambda, so its
    # error grows with the pdf's variation weighted by lambda: a cell narrow
    # beside its distance from 0 is steep on the scale of one ulp
    m = dist.lambda_max
    cut = min(frac * m, math.nextafter(m, 0.0))
    mass = gauss_legendre(dist, cut, m).weights.sum()
    knots = np.array([0.0, *dist.breakpoints, m])
    variation = np.sum(np.abs(np.diff(dist.pdf(knots))) * knots[1:])
    bound = 4.0 * np.finfo(float).eps * (1.0 + variation)
    assert abs(mass - (1.0 - density_cdf(dist, cut))) <= bound
