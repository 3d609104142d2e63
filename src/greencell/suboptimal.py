"""Reduced-complexity adaptation schemes: fixed or power-capped range, with or
without an on/off traffic cut-off.

Range adaptation sets the policy above a cut-off density c: one fixed radius
(FRw) or one consumption level (ARw), the least that meets the throughput
floor.  On/off control sets c: 0 for the always-on schemes, the cheapest up
to the family's feasibility edge for the OFC ones, which share one edge
search and one cut-off search.  Every tail integral above a cut-off runs on
that cut-off's one rule.  Each scheme returns (policy, metrics) as
``solve`` does, feasible and an upper bound on the optimal consumption.  A
target above a family's throughput cap is rejected before any search; every
root is found by ``numerics.bracketed_newton`` on exact derivatives.  Each
scheme solves (dist, p), or the ``optimal.Problem`` passed as ``dist``, whose
cap tail serves its cut-off 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .metrics import PolicyMetrics
from .numerics import as_densities, bracketed_newton, gauss_legendre, shaped
# bound here for perfbench/selftest.py, which checks its tracer rebinds it
from .numerics import conditional_expect  # noqa: F401
from .optimal import Problem
from .params import SystemParams, derive_constants
from .scaling import bs_power, max_range_x

FRW_OFC = "FRwOFC"
FRW_OOFC = "FRwoOFC"
ARW_OFC = "ARwOFC"
ARW_OOFC = "ARwoOFC"

_CUT_TOL = 1e-14  # cut-off root tolerance, relative to lambda_max
_LEVEL_TOL = 1e-14  # level root tolerance in log of the share above Pc


@dataclass(frozen=True)
class SchemePolicy:
    """Off below ``cutoff``, then one radius (FRw) or one level Pc +
    ``fixed_share`` (ARw), the share a transmit Pt that sets the range."""

    scheme: str
    cutoff: float
    fixed_radius: Optional[float]
    fixed_share: Optional[float]
    lambda_max: float
    params: SystemParams

    @property
    def breakpoints(self) -> Tuple[float, ...]:
        return (self.cutoff,) if 0.0 < self.cutoff < self.lambda_max else ()

    def radius_at(self, density):
        """Radius at ``density``, elementwise; 0 below the cut-off."""
        shape, lam = as_densities(density)
        r = np.zeros_like(lam)
        on = lam >= self.cutoff
        if self.fixed_radius is not None:
            r[on] = self.fixed_radius
        else:
            on &= lam > 0.0
            r[on] = np.sqrt(max_range_x(lam[on], self.fixed_share,
                                        self.params))
        return shaped(r, shape)

    def summary(self) -> dict:
        out = {"scheme": self.scheme, "cutoff": self.cutoff}
        if self.fixed_radius is not None:
            out["fixed_radius_m"] = self.fixed_radius
        if self.fixed_share is not None:
            out["fixed_power_w"] = self.params.static_power + self.fixed_share
        return out


class _Cut(NamedTuple):
    """A family's policy at a cut-off c in [0, edge] that meets the floor,
    its on-probability, cost J(c) and h = gain - loss; dJ/dc = f(c) h(c)."""

    cutoff: float
    radius: Optional[float]  # FRw's fixed radius
    share: Optional[float]  # ARw's transmit share above Pc
    users: float
    on: float
    cost: float
    gain: float
    loss: float


def _cheapest_cutoff(at_edge: _Cut, point, falls_at_zero: bool,
                     m: float) -> _Cut:
    """The cheapest cut-off on [0, edge], from the point at the edge.

    h changes sign at most once there, from - to +.  So the edge wins when
    h(edge) <= 0; when h(0) >= 0 as well (not ``falls_at_zero``) J rises
    from 0, which wins.  Otherwise a secant search finds the root of
    log(gain / loss), of the sign of h and close to linear where h is flat;
    ``point(c, near)`` gives the family's point at c, started from the one
    evaluated last.  The search's point at the root wins (h >= 0 there).
    """
    if at_edge.gain <= at_edge.loss:
        return at_edge
    if not falls_at_zero:
        return min(point(0.0, at_edge), at_edge, key=lambda at: at.cost)
    edge, g_edge = at_edge.cutoff, math.log(at_edge.gain / at_edge.loss)
    found = {edge: at_edge}

    def log_ratio(cutoff: float) -> tuple:
        at = found[cutoff] = point(cutoff, next(reversed(found.values())))
        g = math.log(at.gain / at.loss)
        # the first secant runs through the edge, later ones through the
        # point before, as bracketed_newton draws them
        return g, (g - g_edge) / (cutoff - edge) if len(found) == 2 else None

    return found[bracketed_newton(log_ratio, edge, 0.0, 0.5 * edge,
                                  _CUT_TOL * m)]


def _result(tag: str, at: _Cut, problem: Problem) -> tuple:
    p, m = problem.params, problem.dist.lambda_max
    peak = p.static_power + at.share if at.radius is None \
        else bs_power(at.radius, m, p)
    return (SchemePolicy(tag, at.cutoff, at.radius, at.share, m, p),
            PolicyMetrics(at.cost, at.users, at.on, peak))


def _tail_rule(problem: Problem, cutoff: float):
    """The rule on [cutoff, lambda_max]; at cut-off 0, the cap tail's."""
    return problem.cap_tail[0] if cutoff == 0.0 \
        else gauss_legendre(problem.dist, cutoff, problem.dist.lambda_max)


def _on_mass(rule, cutoff: float) -> float:
    """On-probability: the tail rule's mass as ``evaluate`` sums it; 1 at 0."""
    return min(float(rule.weights.sum()), 1.0) if cutoff > 0.0 else 1.0


def _edge(u_avg: float, problem: Problem, at_cap) -> tuple:
    """The largest cut-off c meeting the floor at the family's cap, by Newton
    on U(c) - u_avg, with dU/dc = -pi c x(c) f(c); ``at_cap(c, rule)`` gives
    (U, x(c), ...) at the cap on c's rule.  Returns c, its rule and
    ``at_cap`` there, kept from the search when it evaluated c."""
    m, pdf = problem.dist.lambda_max, problem.dist.pdf
    seen = {}

    def gap(c: float) -> tuple:
        rule = _tail_rule(problem, c)
        seen[c] = rule, at = rule, at_cap(c, rule)
        return at[0] - u_avg, -math.pi * c * at[1] * float(pdf(c))

    c = bracketed_newton(gap, 0.0, m, 0.5 * m, _CUT_TOL * m)
    if c not in seen:  # the cut-off 0, unevaluated
        gap(c)
    return (c, *seen[c])


def _frw_cut(rule, cutoff: float, u_avg: float, p: SystemParams) -> _Cut:
    """The smallest radius meeting the floor above a cut-off in [0, edge],
    on the cut-off's tail rule.

    With x_f = u_avg / (pi T1(c)), T1 the tail first moment, dT1/dc =
    -c f(c) gives dx_f/dc = x_f c f(c) / T1, so J(c) = integral over
    [c, lambda_max] of P(x_f, lam) f + Ps (1 - ``_on_mass``) has loss
    P(x_f, c) - Ps and gain c x_f / T1 times the tail integral of a Pt' f.
    """
    t1 = rule.integrate(rule.nodes)
    r_f = math.sqrt(u_avg / (math.pi * t1))
    while math.pi * r_f * r_f * t1 < u_avg:  # the root can round below
        r_f = math.nextafter(r_f, math.inf)
    x = r_f * r_f
    on = _on_mass(rule, cutoff)
    cost = rule.integrate(bs_power(r_f, rule.nodes, p)) \
        + p.sleep_power * (1.0 - on)
    # Pt'(x) = d1 x^(alpha/2-1) (alpha/2 (e^y - 1) + y e^y), y = d3 pi lam x
    c, h = derive_constants(p), 0.5 * p.pathloss_exp
    y = c.d3 * math.pi * rule.nodes * x
    tail = rule.integrate(c.d1 * x ** (h - 1.0) * (h * np.expm1(y)
                                                  + y * np.exp(y)))
    return _Cut(cutoff, r_f, None, math.pi * r_f * r_f * t1, on, cost,
                gain=cutoff * x / t1 * p.amp_scaling * tail,
                loss=bs_power(r_f, cutoff, p) - p.sleep_power)


def frw_ofc(u_avg: float, dist,
            p: Optional[SystemParams] = None) -> tuple:
    """Fixed radius with an on/off cut-off.

    At the edge the radius is x_cap's, whose reach pi x_cap T1(c) is the
    target; the search's rule there serves the point.  h(0) = Ps - Pc, so a
    cut-off search runs only when sleeping saves power.
    """
    problem = dist if p is None else Problem(dist, p)
    problem.check(u_avg, problem.frw_cap)
    p, x_cap = problem.params, problem.x_cap
    edge, rule, _ = _edge(u_avg, problem, lambda c, rule: (
        math.pi * x_cap * rule.integrate(rule.nodes), x_cap))
    best = _cheapest_cutoff(
        _frw_cut(rule, edge, u_avg, p),
        lambda c, near: _frw_cut(_tail_rule(problem, c), c, u_avg, p),
        p.sleep_power < p.static_power, problem.dist.lambda_max)
    return _result(FRW_OFC, best, problem)


def frw_oofc(u_avg: float, dist,
             p: Optional[SystemParams] = None) -> tuple:
    """Fixed radius, always on: the cut-off 0."""
    problem = dist if p is None else Problem(dist, p)
    problem.check(u_avg, problem.frw_cap)
    return _result(FRW_OOFC, _frw_cut(_tail_rule(problem, 0.0), 0.0, u_avg,
                                      problem.params), problem)


class _ArwTail(NamedTuple):
    """Tail integrals at one (cut-off c, share) pair; see ``_arw_tail``."""

    users: float  # U
    x_cut: float  # x(c), 0 at c = 0
    level: float  # I


def _arw_tail(rule, cutoff: float, share: float,
              p: SystemParams) -> _ArwTail:
    """U, x(c) and I from one kernel call on the cut-off's tail rule.

    U = integral over [c, lambda_max] of pi lam x f, x = max_range_x(lam,
    share); I = integral of lam x / (alpha/2 + y / (1 - e^-y)) f,
    y = d3 pi lam x.  Then dU/dshare = pi I / share and
    dU/dc = -pi c x(c) f(c).
    """
    n = rule.nodes.size
    xs = max_range_x(np.append(rule.nodes, cutoff) if cutoff > 0.0
                     else rule.nodes, share, p)
    x = xs[:n]
    y = derive_constants(p).d3 * math.pi * rule.nodes * x
    return _ArwTail(rule.integrate(math.pi * rule.nodes * x),
                    float(xs[n]) if cutoff > 0.0 else 0.0,
                    rule.integrate(rule.nodes * x / (
                        0.5 * p.pathloss_exp - y / np.expm1(-y))))


def _arw_at(rule, cutoff: float, share: float, tail: _ArwTail,
            p: SystemParams) -> _Cut:
    """The ARw point at (c, share) on the floor, level pf = Pc + share: with
    dshare/dc = c x(c) f(c) share / I, J(c) = pf on + Ps (1 - on), on =
    ``_on_mass``, has gain on c x(c) share / I and loss share + Pc - Ps."""
    on = _on_mass(rule, cutoff)
    return _Cut(cutoff, None, share, tail.users, on,
                (p.static_power + share) * on + p.sleep_power * (1.0 - on),
                gain=on * cutoff * tail.x_cut * share / tail.level,
                loss=share + (p.static_power - p.sleep_power))


def _arw_cut(cutoff: float, u_avg: float, problem: Problem,
             start: float) -> _Cut:
    """The least share meeting the floor above a cut-off in [0, edge]:
    Newton on log(U / u_avg) in s = log(share) - a, dlog U/ds = pi I / U,
    from a = ``start`` (else log top), between top = Pmax - Pc (unevaluated)
    and e^-700 top.  s is small near the root: finer grained than log share."""
    p = problem.params
    top = p.max_bs_power - p.static_power
    log_top = math.log(top)
    a = start if log_top - 700.0 < start < log_top else log_top
    rule = _tail_rule(problem, cutoff)
    tails = {}

    def gap(s: float) -> tuple:
        share = math.exp(a) * math.exp(s)
        tails[s] = share, tail = share, _arw_tail(rule, cutoff, share, p)
        return math.log(tail.users / u_avg), math.pi * tail.level / tail.users

    s = bracketed_newton(gap, log_top - a, log_top - a - 700.0, 0.0,
                         _LEVEL_TOL)
    share, tail = tails.get(s) or (top, _arw_tail(rule, cutoff, top, p))
    return _arw_at(rule, cutoff, share, tail, p)


def arw_ofc(u_avg: float, dist,
            p: Optional[SystemParams] = None) -> tuple:
    """Consumption pinned at one level when on, the range the largest it
    affords, with an on/off cut-off; h(0) = Ps - pf < 0."""
    problem = dist if p is None else Problem(dist, p)
    problem.check(u_avg)
    p, dist = problem.params, problem.dist
    top = p.max_bs_power - p.static_power
    edge, rule, tail = _edge(u_avg, problem, lambda c, rule: _arw_tail(
        rule, c, top, p))
    at_edge = _arw_at(rule, edge, top, tail, p)

    def point(cutoff: float, near: _Cut) -> _Cut:
        # near's s moved along ds/dc = gain f(c) / (on share)
        c = near.cutoff
        rate = near.gain * float(dist.pdf(c)) / (near.on * near.share)
        return _arw_cut(cutoff, u_avg, problem,
                        math.log(near.share) + rate * (cutoff - c))

    best = _cheapest_cutoff(at_edge, point, True, dist.lambda_max)
    return _result(ARW_OFC, best, problem)


def arw_oofc(u_avg: float, dist,
             p: Optional[SystemParams] = None) -> tuple:
    """Constant consumption, always on: the level at the cut-off 0, by
    Newton from the cap's share, stepped down to the floor at log U's
    steepest slope in log share, 1 / (alpha/2 + 1): so the start meets it."""
    problem = dist if p is None else Problem(dist, p)
    problem.check(u_avg)
    p = problem.params
    start = math.log(p.max_bs_power - p.static_power) \
        - math.log(problem.cap / u_avg) * (0.5 * p.pathloss_exp + 1.0)
    return _result(ARW_OOFC, _arw_cut(0.0, u_avg, problem, start), problem)
