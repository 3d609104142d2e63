"""Reduced-complexity adaptation schemes: fixed or power-capped range, with or
without an on/off traffic cut-off.

All four are one-dimensional constrained searches over (cut-off density,
fixed radius) or (cut-off density, fixed consumption) pairs; each is feasible
for the original problem and upper-bounds the optimal consumption.

A target above a scheme's throughput cap (the always-on policy at the power
cap for ARw, the fixed radius that just meets the cap at full load for FRw)
is rejected before any search.  Cut-offs and levels are roots found by
``numerics.bracketed_newton`` on exact derivatives, and so are the optima:
ARwOFC's of its cost's level derivative, FRwOFC's of its cost's cut-off
derivative below its feasibility edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .metrics import PolicyMetrics
from .numerics import as_arrays, bracketed_newton, gauss_legendre, shaped
# bound here for perfbench/selftest.py, which checks its tracer rebinds it
from .numerics import conditional_expect  # noqa: F401
from .optimal import InfeasibleError
from .params import SystemParams, derive_constants
from .scaling import bs_power, max_range_x
from .traffic import DensityDistribution

FRW_OFC = "FRwOFC"
FRW_OOFC = "FRwoOFC"
ARW_OFC = "ARwOFC"
ARW_OOFC = "ARwoOFC"

_CUT_TOL = 1e-14  # cut-off root tolerance, relative to lambda_max
_LEVEL_TOL = 1e-14  # level root tolerance, relative to Pmax
_SEARCH_TOL = 1e-9  # ARwOFC level search tolerance, relative to Pmax


@dataclass(frozen=True)
class SchemeResult:
    """Outcome of one scheme search."""

    scheme: str
    cutoff: float
    fixed_radius: Optional[float]
    fixed_power: Optional[float]
    metrics: PolicyMetrics

    def radius_at(self, density, p: SystemParams):
        """Radius at ``density``, elementwise; 0 below the cut-off."""
        shape, (lam,) = as_arrays(density)
        r = np.zeros_like(lam)
        on = lam >= self.cutoff
        if self.fixed_radius is not None:
            r[on] = self.fixed_radius
        else:
            on &= lam > 0.0
            r[on] = np.sqrt(max_range_x(lam[on], self.fixed_power, p))
        return shaped(r, shape)

    def summary(self) -> dict:
        out = {"scheme": self.scheme, "cutoff": self.cutoff}
        if self.fixed_radius is not None:
            out["fixed_radius_m"] = self.fixed_radius
        if self.fixed_power is not None:
            out["fixed_power_w"] = self.fixed_power
        out.update(self.metrics.as_dict())
        return out


def _check_target(u_avg: float) -> None:
    if not (math.isfinite(u_avg) and u_avg > 0.0):
        raise ValueError(f"u_avg must be finite and positive, got {u_avg}")


class _FrwCut(NamedTuple):
    """The fixed-radius policy at one cut-off; see ``_frw_cut``."""

    cutoff: float
    t1: float  # tail first moment T1(c)
    radius: float  # r_f
    cost: float  # J(c)
    slope: float  # h(c), of the sign of dJ/dc


def _frw_cut(cutoff: float, u_avg: float, dist: DensityDistribution,
             p: SystemParams, x_cap: float) -> _FrwCut:
    """T1, the smallest radius meeting the floor, the cost J and h at one
    cut-off in [0, edge], where T1 > 0, all on one tail rule.

    InfeasibleError when the radius breaks the cap, which is checked at the
    highest density only since transmit power grows with density at fixed
    radius.  With x_f = u_avg / (pi T1(c)), dT1/dc = -c f(c) gives dx_f/dc =
    x_f c f(c) / T1, so J(c) = integral over [c, lambda_max] of P(x_f, lam) f
    + Ps F(c) has dJ/dc = f(c) h(c), h = Ps - P(x_f, c) + c x_f / T1 times
    the tail integral of a Pt'(x_f, lam) f.
    """
    rule = gauss_legendre(dist, cutoff, dist.lambda_max)
    t1 = rule.integrate(rule.nodes)
    r_f = math.sqrt(u_avg / (math.pi * t1))
    while math.pi * r_f * r_f * t1 < u_avg:  # the root can round below
        r_f = math.nextafter(r_f, math.inf)
    x = r_f * r_f
    if x > x_cap * (1.0 + 1e-12):
        raise InfeasibleError(u_avg, math.pi * x_cap * t1)
    cost = rule.integrate(bs_power(r_f, rule.nodes, p)) \
        + p.sleep_power * float(dist.cdf(cutoff))
    # Pt'(x) = d1 x^(alpha/2-1) (alpha/2 (e^y - 1) + y e^y), y = d3 pi lam x
    c, h = derive_constants(p), 0.5 * p.pathloss_exp
    y = c.d3 * math.pi * rule.nodes * x
    tail = rule.integrate(c.d1 * x ** (h - 1.0) * (h * np.expm1(y)
                                                  + y * np.exp(y)))
    slope = p.sleep_power - bs_power(r_f, cutoff, p) \
        + cutoff * x / t1 * p.amp_scaling * tail
    return _FrwCut(cutoff, t1, r_f, cost, slope)


def _frw_result(tag: str, at: _FrwCut, dist: DensityDistribution,
                p: SystemParams) -> SchemeResult:
    """The scheme's result, with metrics on its own tail rule."""
    metrics = PolicyMetrics(
        avg_power_w=at.cost,
        avg_users=math.pi * at.radius * at.radius * at.t1,
        on_probability=1.0 - float(dist.cdf(at.cutoff)),
        peak_bs_power_w=bs_power(at.radius, dist.lambda_max, p))
    return SchemeResult(scheme=tag, cutoff=at.cutoff, fixed_radius=at.radius,
                        fixed_power=None, metrics=metrics)


def frw_ofc(u_avg: float, dist: DensityDistribution,
            p: SystemParams) -> SchemeResult:
    """Fixed radius with an on/off cut-off.

    For each cut-off the radius is the smallest one whose tail throughput
    meets the floor.  Cut-offs past the feasibility edge, where the tail
    first moment T1 has pi x_cap T1(c) = u_avg, break the cap.  Below it the
    cost falls while h(c) < 0, so when h changes sign on [0, edge] a secant
    search finds its root; the cheapest cut-off evaluated wins, the two end
    points among them.
    """
    _check_target(u_avg)
    m = dist.lambda_max
    x_cap = max_range_x(m, p.max_bs_power, p)
    start = _frw_cut(0.0, u_avg, dist, p, x_cap)

    def gap(cutoff: float) -> tuple:  # dT1/dc = -c f(c)
        rule = gauss_legendre(dist, cutoff, m)
        return (math.pi * x_cap * rule.integrate(rule.nodes) - u_avg,
                -math.pi * x_cap * cutoff * float(dist.pdf(cutoff)))

    edge = bracketed_newton(gap, 0.0, m, 0.5 * m, _CUT_TOL * m)
    found = {0.0: start, edge: _frw_cut(edge, u_avg, dist, p, x_cap)}
    if start.slope < 0.0 < found[edge].slope:

        def slope(cutoff: float) -> tuple:
            found[cutoff] = at = _frw_cut(cutoff, u_avg, dist, p, x_cap)
            return at.slope, None

        bracketed_newton(slope, edge, 0.0, 0.5 * edge, _CUT_TOL * m)
    return _frw_result(FRW_OFC, min(found.values(), key=lambda at: at.cost),
                       dist, p)


def frw_oofc(u_avg: float, dist: DensityDistribution,
             p: SystemParams) -> SchemeResult:
    """Fixed radius, always on: the cut-off 0."""
    _check_target(u_avg)
    x_cap = max_range_x(dist.lambda_max, p.max_bs_power, p)
    return _frw_result(FRW_OOFC, _frw_cut(0.0, u_avg, dist, p, x_cap),
                       dist, p)


class _ArwTail(NamedTuple):
    """Tail integrals at one (cut-off c, level pf) pair; see ``_arw_tail``."""

    users: float  # U
    level: float  # I
    x_cut: float  # x(c), 0 at c = 0


def _arw_tail(dist: DensityDistribution, cutoff: float, pf: float,
              p: SystemParams) -> _ArwTail:
    """U, I and x(c) from one kernel call on the tail rule.

    U = integral over [c, lambda_max] of pi lam x f, x = max_range_x(lam, pf);
    I = integral of lam x / (alpha/2 + y / (1 - e^-y)) f, y = d3 pi lam x.
    Then dU/dpf = pi I / (pf - Pc) and dU/dc = -pi c x(c) f(c).
    """
    rule = gauss_legendre(dist, cutoff, dist.lambda_max)
    n = rule.nodes.size
    xs = max_range_x(np.append(rule.nodes, cutoff) if cutoff > 0.0
                     else rule.nodes, pf, p)
    x = xs[:n]
    y = derive_constants(p).d3 * math.pi * rule.nodes * x
    return _ArwTail(rule.integrate(math.pi * rule.nodes * x),
                    rule.integrate(rule.nodes * x / (
                        0.5 * p.pathloss_exp - y / np.expm1(-y))),
                    float(xs[n]) if cutoff > 0.0 else 0.0)


def _arw_cutoff(u_avg: float, dist: DensityDistribution, p: SystemParams,
                pf: float, start: float) -> tuple:
    """(c, tail at c): the largest cut-off meeting the floor at level ``pf``,
    by Newton from ``start``.  Callers have checked that c = 0 meets it."""
    tails = {}

    def gap(c: float) -> tuple:
        tails[c] = tail = _arw_tail(dist, c, pf, p)
        return tail.users - u_avg, \
            -math.pi * c * tail.x_cut * float(dist.pdf(c))

    m = dist.lambda_max
    c = bracketed_newton(gap, 0.0, m, start, _CUT_TOL * m)
    return c, tails[c] if c in tails else _arw_tail(dist, c, pf, p)


def _arw_level(u_avg: float, dist: DensityDistribution, p: SystemParams,
               cutoff: float, top: _ArwTail) -> tuple:
    """(pf, tail at pf): the lowest level meeting the floor above ``cutoff``.

    ``top``, the tail at Pmax, meets it.  Each step is Newton's on
    log U = log u_avg in s = log(pf - Pc), where log U is close to linear
    (dlog U/ds = pi I / U), handed to the root finder as a step in pf, where
    the tolerance is set.
    """
    pc, pmax = p.static_power, p.max_bs_power
    levels = {}

    def gap(pf: float) -> tuple:
        levels[pf] = tail = top if pf == pmax \
            else _arw_tail(dist, cutoff, pf, p)
        g = math.log(tail.users / u_avg)
        rate = math.pi * tail.level / tail.users
        move = (pf - pc) * math.expm1(-g / rate)
        # the slope for which a Newton step in pf makes this move
        return g, -g / move if move else rate / (pf - pc)

    g, slope = gap(pmax)
    pf = bracketed_newton(gap, pmax, pc, pmax - g / slope, _LEVEL_TOL * pmax)
    return pf, levels[pf]


def _level_balance(pf: float, cutoff: float, tail: _ArwTail,
                   dist: DensityDistribution, p: SystemParams) -> float:
    """log(B / (1 - F(c))), of the sign of -dJ/dpf.

    Along the cut-off c(pf) that holds the floor, J = pf (1 - F(c)) +
    Ps F(c) has dJ/dpf = 1 - F(c) - B, B = (pf - Ps) / (pf - Pc) I / (c x(c)),
    which grows without bound as c -> 0; the log stays near linear.
    """
    if cutoff <= 0.0:
        return math.inf
    ratio = (pf - p.sleep_power) / (pf - p.static_power)
    return math.log(ratio * tail.level / (cutoff * tail.x_cut)
                    / (1.0 - float(dist.cdf(cutoff))))


def _arw_top(u_avg: float, dist: DensityDistribution,
             p: SystemParams) -> _ArwTail:
    """The always-on tail at Pmax, or InfeasibleError past the ARw cap."""
    _check_target(u_avg)
    top = _arw_tail(dist, 0.0, p.max_bs_power, p)
    if top.users < u_avg:
        raise InfeasibleError(u_avg, top.users)
    return top


def arw_ofc(u_avg: float, dist: DensityDistribution,
            p: SystemParams) -> SchemeResult:
    """Consumption pinned at one level when on, with an on/off cut-off.

    The range tracks the largest radius affordable at the level, and the
    cut-off is pushed as high as the floor allows.  The level minimizing
    J = level (1 - F(c)) + Ps F(c) wins: Pmax when dJ/dpf <= 0 there,
    otherwise the root of dJ/dpf between the lowest feasible level and Pmax,
    found by a secant search; the best level evaluated is kept.
    """
    top = _arw_top(u_avg, dist, p)
    pmax, m = p.max_bs_power, dist.lambda_max
    cutoff, tail = _arw_cutoff(u_avg, dist, p, pmax, 0.5 * m)
    last = best = (pmax, cutoff, tail)
    balance = _level_balance(pmax, cutoff, tail, dist, p)

    def balance_at(pf: float) -> tuple:
        nonlocal last, best
        at, c, tail = last
        # start from the last level's cut-off, moved along dc/dpf
        drop = c * tail.x_cut * float(dist.pdf(c))  # -dU/dc / pi
        if drop > 0.0:
            dc = tail.level / ((at - p.static_power) * drop)
            c = min(max(c + dc * (pf - at), 0.0), m)
        last = (pf, *_arw_cutoff(u_avg, dist, p, pf, c))
        if _arw_cost(*last[:2], dist, p) < _arw_cost(*best[:2], dist, p):
            best = last
        return _level_balance(*last, dist, p), None

    if balance < 0.0:
        lowest, _ = _arw_level(u_avg, dist, p, 0.0, top)
        bracketed_newton(balance_at, lowest, pmax, 0.5 * (lowest + pmax),
                         _SEARCH_TOL * pmax, known=(pmax, balance))
    pf, cutoff, tail = best
    return _arw_result(ARW_OFC, pf, cutoff, tail.users, dist, p)


def _arw_cost(pf: float, cutoff: float, dist: DensityDistribution,
              p: SystemParams) -> float:
    on_prob = 1.0 - float(dist.cdf(cutoff))
    return pf * on_prob + p.sleep_power * (1.0 - on_prob)


def _arw_result(tag: str, pf: float, cutoff: float, avg_users: float,
                dist: DensityDistribution, p: SystemParams) -> SchemeResult:
    metrics = PolicyMetrics(avg_power_w=_arw_cost(pf, cutoff, dist, p),
                            avg_users=avg_users,
                            on_probability=1.0 - float(dist.cdf(cutoff)),
                            peak_bs_power_w=pf)
    return SchemeResult(scheme=tag, cutoff=cutoff, fixed_radius=None,
                        fixed_power=pf, metrics=metrics)


def arw_oofc(u_avg: float, dist: DensityDistribution,
             p: SystemParams) -> SchemeResult:
    """Constant consumption, always on: the lowest level meeting the floor."""
    pf, tail = _arw_level(u_avg, dist, p, 0.0, _arw_top(u_avg, dist, p))
    return _arw_result(ARW_OOFC, pf, 0.0, tail.users, dist, p)
