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
root is found by ``numerics.bracketed_newton``'s search on exact
derivatives.  Each scheme solves (dist, p), or the ``optimal.Problem``
passed as ``dist``, whose cap state serves its cut-off 0.

Each scheme's search is a generator, which ``numerics.lockstep`` drives:
an ARw search yields the (rule, cut-off, share) of each tail integral it
needs, and ``solve_many`` runs every search of a sweep, ``solve``'s too,
in one lockstep, whose rounds evaluate the requests of every ARw search,
and the capped points of every price, in one ``max_range_x`` call
(``_round``).  FRw needs no kernel, so its steps are searches that return
without yielding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .metrics import PolicyMetrics
from .numerics import (as_densities, gauss_legendre, joined, lockstep,
                       newton_search, shaped, split_like)
# bound here for perfbench/selftest.py, which checks its tracer rebinds it
from .numerics import conditional_expect  # noqa: F401
from . import optimal
from .optimal import InfeasibleError, Problem, _solved
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


def _cheapest_cutoff(at_edge: _Cut, point, falls_at_zero: bool, m: float):
    """The cheapest cut-off on [0, edge], from the point at the edge: a
    search.

    h changes sign at most once there, from - to +.  So the edge wins when
    h(edge) <= 0; when h(0) >= 0 as well (not ``falls_at_zero``) J rises
    from 0, which wins.  Otherwise a secant search finds the root of
    log(gain / loss), of the sign of h and close to linear where h is flat;
    ``point(c, near)`` is the search for the family's point at c, started
    from the one evaluated last.  The search's point at the root wins
    (h >= 0 there).
    """
    if at_edge.gain <= at_edge.loss:
        return at_edge
    if not falls_at_zero:
        at_zero = yield from point(0.0, at_edge)
        return min(at_zero, at_edge, key=lambda at: at.cost)
    edge, g_edge = at_edge.cutoff, math.log(at_edge.gain / at_edge.loss)
    found = {edge: at_edge}

    def log_ratio(cutoff: float):
        at = found[cutoff] = yield from point(
            cutoff, next(reversed(found.values())))
        g = math.log(at.gain / at.loss)
        # the first secant runs through the edge, later ones through the
        # point before, as bracketed_newton draws them
        return g, (g - g_edge) / (cutoff - edge) if len(found) == 2 else None

    return found[(yield from newton_search(log_ratio, edge, 0.0, 0.5 * edge,
                                           _CUT_TOL * m))]


def _result(tag: str, at: _Cut, problem: Problem) -> tuple:
    p, m = problem.params, problem.dist.lambda_max
    peak = p.static_power + at.share if at.radius is None \
        else bs_power(at.radius, m, p)
    return (SchemePolicy(tag, at.cutoff, at.radius, at.share, m, p),
            PolicyMetrics(at.cost, at.users, at.on, peak))


def _tail_rule(problem: Problem, cutoff: float):
    """The rule on [cutoff, lambda_max]; at cut-off 0, the cap state's."""
    return problem.cap_state.rule if cutoff == 0.0 \
        else gauss_legendre(problem.dist, cutoff, problem.dist.lambda_max)


def _on_mass(rule, cutoff: float) -> float:
    """On-probability: the tail rule's mass as ``evaluate`` sums it; 1 at 0."""
    return min(float(rule.weights.sum()), 1.0) if cutoff > 0.0 else 1.0


def _edge(u_avg: float, problem: Problem, at_cap):
    """The largest cut-off c meeting the floor at the family's cap, by Newton
    on U(c) - u_avg, with dU/dc = -pi c x(c) f(c): a search.
    ``at_cap(c, rule)`` is the search for (U, x(c), ...) at the cap on c's
    rule.  Returns c, its rule and ``at_cap`` there, kept from the search
    when it evaluated c."""
    m, pdf = problem.dist.lambda_max, problem.dist.pdf
    seen = {}

    def gap(c: float):
        rule = _tail_rule(problem, c)
        at = yield from at_cap(c, rule)
        seen[c] = rule, at
        return at[0] - u_avg, -math.pi * c * at[1] * float(pdf(c))

    c = yield from newton_search(gap, 0.0, m, 0.5 * m, _CUT_TOL * m)
    if c not in seen:  # the cut-off 0, unevaluated
        yield from gap(c)
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


def _frw_ofc(u_avg: float, problem: Problem):
    """Fixed radius with an on/off cut-off (``frw_ofc``'s search).

    At the edge the radius is x_cap's, whose reach pi x_cap T1(c) is the
    target; the search's rule there serves the point.  h(0) = Ps - Pc, so a
    cut-off search runs only when sleeping saves power.
    """
    problem.check(u_avg, problem.frw_cap)
    p, x_cap = problem.params, problem.x_cap

    def at_cap(c: float, rule):  # searches with no kernel to ask for
        return math.pi * x_cap * rule.integrate(rule.nodes), x_cap
        yield

    def point(c: float, near: _Cut):
        return _frw_cut(_tail_rule(problem, c), c, u_avg, p)
        yield

    edge, rule, _ = yield from _edge(u_avg, problem, at_cap)
    best = yield from _cheapest_cutoff(
        _frw_cut(rule, edge, u_avg, p), point,
        p.sleep_power < p.static_power, problem.dist.lambda_max)
    return _result(FRW_OFC, best, problem)


def _frw_oofc(u_avg: float, problem: Problem):
    """Fixed radius, always on: the cut-off 0 (``frw_oofc``'s search)."""
    problem.check(u_avg, problem.frw_cap)
    return _result(FRW_OOFC, _frw_cut(_tail_rule(problem, 0.0), 0.0, u_avg,
                                      problem.params), problem)
    yield  # a search with no kernel to ask for


class _ArwTail(NamedTuple):
    """Tail integrals at one (cut-off c, share) pair; see ``_arw_tails``."""

    users: float  # U
    x_cut: float  # x(c), 0 at c = 0
    level: float  # I


def _tail_nodes(requests: list) -> list:
    """Each (rule, cut-off c, share) request's densities: its rule's nodes,
    then c when c > 0."""
    return [np.append(rule.nodes, cutoff) if cutoff > 0.0 else rule.nodes
            for rule, cutoff, _ in requests]


def _max_ranges(parts: list, shares: list, p: SystemParams) -> list:
    """``max_range_x`` at each part's densities and share, from one kernel
    call: one share per density, or a float where every part has the
    same."""
    per_node = shares[0] if len(set(shares)) == 1 \
        else np.repeat(shares, [a.size for a in parts])
    return split_like(max_range_x(joined(parts), per_node, p), parts)


def _arw_tails(requests: list, p: SystemParams, xs=None) -> list:
    """The ``_ArwTail`` of each (rule, cut-off c, share) request, from one
    kernel call over every request's tail rule (its share per density),
    or from ``xs``, that call's result per request, where ``_round``
    made it.

    U = integral over [c, lambda_max] of pi lam x f, x = max_range_x(lam,
    share); I = integral of lam x / (alpha/2 + y / (1 - e^-y)) f,
    y = d3 pi lam x.  Then dU/dshare = pi I / share and
    dU/dc = -pi c x(c) f(c).
    """
    if xs is None:
        xs = _max_ranges(_tail_nodes(requests),
                         [share for *_, share in requests], p)
    # the integrands on every request's nodes at once, less the cut-offs
    nodes = [rule.nodes for rule, *_ in requests]
    lam, x = joined(nodes), joined([a[:n.size] for a, n in zip(xs, nodes)])
    y = derive_constants(p).d3 * math.pi * lam * x
    users = split_like(math.pi * lam * x, nodes)
    levels = split_like(lam * x / (0.5 * p.pathloss_exp - y / np.expm1(-y)),
                        nodes)
    return [_ArwTail(rule.integrate(u), float(a[-1]) if cutoff > 0.0 else 0.0,
                     rule.integrate(level))
            for (rule, cutoff, _), a, u, level in zip(requests, xs, users,
                                                      levels)]


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


def _arw_tail(rule, cutoff: float, share: float):
    """The ``_ArwTail`` at (``cutoff``, ``share``) on the cut-off's rule,
    asked of the driver (``_arw_tails``): a search."""
    return (yield rule, cutoff, share)


def _arw_cut(cutoff: float, u_avg: float, problem: Problem, start: float):
    """The least share meeting the floor above a cut-off in [0, edge], a
    search: Newton on log(U / u_avg) in s = log(share) - a, dlog U/ds =
    pi I / U, from a = ``start`` (else log top), between top = Pmax - Pc
    (unevaluated) and e^-700 top.  s is small near the root: finer grained
    than log share."""
    p = problem.params
    top = p.max_bs_power - p.static_power
    log_top = math.log(top)
    a = start if log_top - 700.0 < start < log_top else log_top
    rule = _tail_rule(problem, cutoff)
    tails = {}

    def gap(s: float):
        share = math.exp(a) * math.exp(s)
        tail = yield from _arw_tail(rule, cutoff, share)
        tails[s] = share, tail
        return math.log(tail.users / u_avg), math.pi * tail.level / tail.users

    s = yield from newton_search(gap, log_top - a, log_top - a - 700.0, 0.0,
                                 _LEVEL_TOL)
    if s in tails:
        share, tail = tails[s]
    else:
        share, tail = top, (yield from _arw_tail(rule, cutoff, top))
    return _arw_at(rule, cutoff, share, tail, p)


def _arw_ofc(u_avg: float, problem: Problem):
    """Consumption pinned at one level when on, the range the largest it
    affords, with an on/off cut-off; h(0) = Ps - pf < 0 (``arw_ofc``'s
    search)."""
    problem.check(u_avg)
    p, dist = problem.params, problem.dist
    top = p.max_bs_power - p.static_power
    edge, rule, tail = yield from _edge(u_avg, problem, lambda c, rule:
                                        _arw_tail(rule, c, top))
    at_edge = _arw_at(rule, edge, top, tail, p)

    def point(cutoff: float, near: _Cut):
        # near's s moved along ds/dc = gain f(c) / (on share)
        c = near.cutoff
        rate = near.gain * float(dist.pdf(c)) / (near.on * near.share)
        return _arw_cut(cutoff, u_avg, problem,
                        math.log(near.share) + rate * (cutoff - c))

    best = yield from _cheapest_cutoff(at_edge, point, True, dist.lambda_max)
    return _result(ARW_OFC, best, problem)


def _arw_oofc(u_avg: float, problem: Problem):
    """Constant consumption, always on: the level at the cut-off 0, by
    Newton from the cap's share, stepped down to the floor at log U's
    steepest slope in log share, 1 / (alpha/2 + 1): so the start meets it
    (``arw_oofc``'s search)."""
    problem.check(u_avg)
    p = problem.params
    start = math.log(p.max_bs_power - p.static_power) \
        - math.log(problem.cap / u_avg) * (0.5 * p.pathloss_exp + 1.0)
    at = yield from _arw_cut(0.0, u_avg, problem, start)
    return _result(ARW_OOFC, at, problem)


# each policy's search at one target, by name, ``solve``'s included
_SEARCHES = {"optimal": _solved, FRW_OFC: _frw_ofc, FRW_OOFC: _frw_oofc,
             ARW_OFC: _arw_ofc, ARW_OOFC: _arw_oofc}


def _round(requests: list, problem: Problem) -> list:
    """The answers to one round of requests from any mix of searches: the
    ``DualState`` of each price, from one dual evaluation
    (``optimal._avg_throughput``, looked up each round), and the
    ``_ArwTail`` of each tail request (``_arw_tails``).  The dual
    evaluation's capped points and every tail's densities go into one
    ``max_range_x`` call, its ``x2`` where the round has tail requests."""
    p = problem.params
    prices = [r for r in requests if not isinstance(r, tuple)]
    tails = [r for r in requests if isinstance(r, tuple)]
    lams, shares = _tail_nodes(tails), [share for *_, share in tails]
    found = []  # the tails' x, where the capped points' call made them

    def capped_and_tails(density, p: SystemParams):  # x2_star's stand-in
        xs = _max_ranges([density, *lams],
                         [p.max_bs_power - p.static_power, *shares], p)
        found.extend(xs[1:])
        return xs[0]

    args = (problem.dist, p) + ((capped_and_tails,) if tails else ())
    states = iter(optimal._avg_throughput(prices, *args) if prices else ())
    answers = iter(_arw_tails(tails, p, found or None) if tails else ())
    return [next(answers) if isinstance(r, tuple) else next(states)
            for r in requests]


def _row(search):
    """``search``, whose InfeasibleError (``Problem.check``'s, before its
    first request) is its result."""
    try:
        return (yield from search)
    except InfeasibleError as exc:
        return exc


def solve_many(schemes, u_avgs, dist,
               p: Optional[SystemParams] = None) -> list:
    """Each policy of ``schemes`` (names: "optimal" for ``solve``, or a
    scheme's) at each target of ``u_avgs``, on one Problem: per policy,
    per target its (policy, metrics), or the InfeasibleError its lone call
    raises there.  Any other error is raised where it happens.

    Every search runs in one lockstep (``numerics.lockstep``): each round,
    the prices every dual search asks for go into one dual evaluation, and
    its capped points and the tail requests of every ARw search into one
    ``max_range_x`` call (``_round``).  Kernels act elementwise, so each
    result has the bits of a lone call.
    """
    problem = dist if p is None else Problem(dist, p)
    out = iter(lockstep([_row(_SEARCHES[name](u, problem))
                         for name in schemes for u in u_avgs],
                        partial(_round, problem=problem)))
    return [[next(out) for _ in u_avgs] for _ in schemes]


def _alone(scheme: str, u_avg: float, dist, p: Optional[SystemParams]):
    """``scheme`` at one target: its one search, run on ``lockstep`` with
    ``_round``."""
    problem = dist if p is None else Problem(dist, p)
    return lockstep([_SEARCHES[scheme](u_avg, problem)],
                    partial(_round, problem=problem))[0]


def frw_ofc(u_avg: float, dist,
            p: Optional[SystemParams] = None) -> tuple:
    """Fixed radius with an on/off cut-off (``_frw_ofc``)."""
    return _alone(FRW_OFC, u_avg, dist, p)


def frw_oofc(u_avg: float, dist,
             p: Optional[SystemParams] = None) -> tuple:
    """Fixed radius, always on (``_frw_oofc``)."""
    return _alone(FRW_OOFC, u_avg, dist, p)


def arw_ofc(u_avg: float, dist,
            p: Optional[SystemParams] = None) -> tuple:
    """One consumption level when on, with an on/off cut-off
    (``_arw_ofc``)."""
    return _alone(ARW_OFC, u_avg, dist, p)


def arw_oofc(u_avg: float, dist,
             p: Optional[SystemParams] = None) -> tuple:
    """One consumption level, always on (``_arw_oofc``)."""
    return _alone(ARW_OOFC, u_avg, dist, p)
