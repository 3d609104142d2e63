"""Cross-oracles for the array kernels and the Gauss-Legendre rule.

The per-density kernels (Newton in log x) are checked against scalar
bisection on their defining equations, scalar calls against array calls,
and the fixed quadrature rule against adaptive ``scipy.integrate.quad``.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from greencell import cli
from greencell.numerics import (bisect, expect, gauss_legendre, grow_bracket,
                                lambert_w0)
from greencell.optimal import (critical_densities, hse_x1, hse_x2,
                               lagrangian_x, subproblem, x1_star, x2_star)
from greencell.params import derive_constants
from greencell.scaling import bs_power_x, max_range_x, transmit_power_x
from greencell.traffic import from_table, triangular

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
        got = max_range_x(DENSITIES, budget, p)
        want = np.array([_ref_budget_x(float(lam), budget, p)
                         for lam in DENSITIES])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
    np.testing.assert_array_equal(x2_star(DENSITIES, p),
                                  max_range_x(DENSITIES, p.max_bs_power, p))


@pytest.mark.parametrize("config", CONFIGS)
def test_scalar_and_array_calls_are_bit_identical(config):
    p = _params(config)
    mu = 1.05
    xs = x2_star(DENSITIES, p) * np.linspace(0.0, 1.2, DENSITIES.size)
    kernels = {
        "x1_star": lambda lam: x1_star(lam, mu, p),
        "x2_star": lambda lam: x2_star(lam, p),
        "max_range_x": lambda lam: max_range_x(lam, 140.0, p),
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
    crits = critical_densities(mu, p, dist.lambda_max)
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
