"""The two curve laws behind every kernel and threshold.

With y = d3 pi lambda x and h = alpha/2, the stationary curve reads
mu lambda^h = K1 y^(h-1) e^y (hE + y) and the capped one
share lambda^h = K2 y^h (e^y - 1), so each kernel is a function of
mu lambda^h or share lambda^h alone: scaling lambda by k and mu (or the
share) by k^-h scales x by 1/k.  The high-spectrum-efficiency thresholds
are reads of the same laws with the -1 dropped; the paper writes them out
(``oracles.paper_hse_thresholds``).
"""

import dataclasses
import math

import pytest
from hypothesis import event, example, given, strategies as st

from greencell.optimal import (CriticalDensities, critical_densities,
                               hse_critical_densities, hse_x1, hse_x2,
                               x1_star)
from greencell.params import SystemParams, derive_constants
from greencell.scaling import max_range_x
from oracles import paper_hse_thresholds

# largest relative error of x(k lambda) k against x(lambda) over 40,000
# draws of these laws: 5.7e-15 (max_range_x), 4.1e-15 (x1_star), 9.6e-16
# (hse_x1) and 6.1e-16 (hse_x2)
INVARIANCE_REL = 6e-15
# largest relative error against the paper's formulas over 40,000 draws:
# 3.4e-13 (lambda1 and lambda3), and 1.0e-10 for lambda2, whose exponent
# r2 / (1 - r2) amplifies the rounding of 1 - r2 as r2 nears 1
HSE_REL = 3.5e-13
HSE_LAMBDA2_REL = 1e-10

_params = st.builds(
    lambda alpha, pc, gap, amp: SystemParams(
        pathloss_exp=alpha, static_power=pc, max_bs_power=pc + gap,
        amp_scaling=amp),
    st.floats(2.1, 5.0), st.floats(1.0, 150.0),
    st.floats(-1.0, 3.0).map(lambda e: 10.0 ** e), st.floats(1.0, 4.0))


def invariance_errors(p, lam, mu, frac, k):
    """Relative error of x(k lambda, k^-h mu or share) k against
    x(lambda, mu or share), for each kernel."""
    h = 0.5 * p.pathloss_exp
    scale = k ** -h
    share = frac * (p.max_bs_power - p.static_power)
    pairs = {
        "x1_star": (x1_star(lam, mu, p), x1_star(k * lam, scale * mu, p) * k),
        "max_range_x": (max_range_x(lam, share, p),
                        max_range_x(k * lam, scale * share, p) * k),
        "hse_x1": (hse_x1(lam, mu, p), hse_x1(k * lam, scale * mu, p) * k),
    }
    # hse_x2 takes its share, Pmax - Pc, from the params, where the scaled
    # one is rounded; so its k is taken from the two shares as they are
    base = dataclasses.replace(p, max_bs_power=p.static_power + share)
    scaled = dataclasses.replace(p, max_bs_power=p.static_power
                                 + scale * share)
    k = ((base.max_bs_power - base.static_power)
         / (scaled.max_bs_power - scaled.static_power)) ** (1.0 / h)
    pairs["hse_x2"] = (hse_x2(lam, base), hse_x2(k * lam, scaled) * k)
    return {name: abs(x_k - x) / x for name, (x, x_k) in pairs.items()}


@given(p=_params, log_lam=st.floats(-8.0, -4.0), log_mu=st.floats(-2.0, 4.0),
       frac=st.floats(1e-3, 1.0), log_k=st.floats(-3.0, 3.0))
def test_each_kernel_is_a_function_of_one_variable(p, log_lam, log_mu, frac,
                                                   log_k):
    errors = invariance_errors(p, 10.0 ** log_lam, 10.0 ** log_mu, frac,
                               10.0 ** log_k)
    for name, err in errors.items():
        assert err <= INVARIANCE_REL, name


@given(p=_params,
       ps_frac=st.floats(0.0, 1.0),
       log_mu=st.floats(-4.0, 8.0),
       log_eps=st.one_of(st.none(), st.floats(-15.0, 0.0)))
@example(p=SystemParams(), ps_frac=0.0, log_mu=math.log10(0.002),
         log_eps=None)
@example(p=SystemParams(pathloss_exp=2.1), ps_frac=0.0, log_mu=200.0,
         log_eps=None)
@example(p=SystemParams(pathloss_exp=2.1), ps_frac=0.0, log_mu=300.0,
         log_eps=None)
def test_hse_thresholds_are_the_papers(p, ps_frac, log_mu, log_eps):
    # log_eps puts mu just above d3 (Pmax - Pc), where lambda2 runs off to
    # inf; otherwise mu is log-uniform on [1e-4, 1e8].  The examples reach
    # past the float range: all three inf at 0.002, and lambda2 0 at 1e200
    # and 1e300, where lambda1 is 3e-293
    p = dataclasses.replace(p, sleep_power=ps_frac * p.static_power)
    if log_eps is None:
        mu = 10.0 ** log_mu
    else:
        mu = derive_constants(p).d3 * (p.max_bs_power - p.static_power) \
            * (1.0 + 10.0 ** log_eps)
    new, paper = hse_critical_densities(mu, p), paper_hse_thresholds(mu, p)
    for i, (got, want, rel) in enumerate(zip(
            (new.lambda1, new.lambda2, new.lambda3),
            (paper.lambda1, paper.lambda2, paper.lambda3),
            (HSE_REL, HSE_LAMBDA2_REL, HSE_REL))):
        event(f"lambda{i + 1} " + ("inf" if want == math.inf else "0"
                                   if want == 0.0 else "finite"))
        # inf and 0 exactly where the paper's formulas give them; a
        # subnormal result is compared to within its grain
        assert (got == math.inf) == (want == math.inf)
        assert (got == 0.0) == (want == 0.0)
        assert got == pytest.approx(want, rel=rel, abs=2.0 * math.ulp(0.0))


def test_thresholds_at_a_subnormal_price_are_inf():
    # every load exponent d3 (P - Ps) / mu overflows to inf here; each read
    # reports inf, as the parametrisation in y does, with no invalid value
    inf = CriticalDensities(math.inf, math.inf, math.inf)
    p = SystemParams()
    assert critical_densities(5e-324, p) == inf
    assert hse_critical_densities(5e-324, p) == inf
    assert paper_hse_thresholds(5e-324, p) == inf
