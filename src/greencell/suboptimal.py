"""Reduced-complexity adaptation schemes: fixed or power-capped range, with or
without an on/off traffic cut-off.

All four are one-dimensional constrained searches over (cut-off density,
fixed radius) or (cut-off density, fixed consumption) pairs; each is feasible
for the original problem and upper-bounds the optimal consumption.

A target above a scheme's throughput cap (the always-on policy at the power
cap for ARw, the fixed radius that just meets the cap at full load for FRw)
is rejected before any search.  ARwOFC ranks its consumption levels with a
trapezoid tail table, several levels per kernel call, then re-solves the
winner's cut-off by quadrature.  FRwOFC runs a bounded scalar search over
its feasible interval of cut-offs, whose edge is found by Newton on the tail
first moment, and reports metrics on its own quadrature rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize

from .metrics import PolicyMetrics
from .numerics import Bracket, QuadratureRule, bisect, gauss_legendre
# bound here for perfbench/selftest.py, which checks its tracer rebinds it
from .numerics import conditional_expect  # noqa: F401
from .optimal import InfeasibleError
from .params import SystemParams
from .scaling import bs_power, max_range_x
from .traffic import DensityDistribution

FRW_OFC = "FRwOFC"
FRW_OOFC = "FRwoOFC"
ARW_OFC = "ARwOFC"
ARW_OOFC = "ARwoOFC"

_GRID = 512  # ARwOFC consumption levels scanned
_LAM_GRID = 513  # densities in the ARwOFC trapezoid tail table
# levels per kernel call in the ARwOFC scan.  The kernel's temporaries grow
# with the call: a single 512-level call raises a sweep's peak RSS by about
# 38 MB, 32 levels by about 4 MB and 8 levels by under 2 MB.
_LEVELS_PER_CALL = 8
_BIG = 1e30  # finite stand-in for an infeasible search point


@dataclass(frozen=True)
class SchemeResult:
    """Outcome of one scheme search."""

    scheme: str
    cutoff: float
    fixed_radius: Optional[float]
    fixed_power: Optional[float]
    metrics: PolicyMetrics

    def radius_at(self, density: float, p: SystemParams) -> float:
        if density < self.cutoff:
            return 0.0
        if self.fixed_radius is not None:
            return self.fixed_radius
        if density <= 0.0:
            return 0.0
        return math.sqrt(max_range_x(density, self.fixed_power, p))

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


def _tail_rule(dist: DensityDistribution, cutoff: float) -> QuadratureRule:
    return gauss_legendre(dist, cutoff, dist.lambda_max)


def _tail_mean_density(dist: DensityDistribution, cutoff: float) -> float:
    """Unnormalized tail first moment of the density distribution."""
    rule = _tail_rule(dist, cutoff)
    return rule.integrate(rule.nodes)


def _tail_users(rule: QuadratureRule, pf: float, p: SystemParams) -> float:
    """Tail throughput with the range tracking consumption level ``pf``."""
    return rule.integrate(math.pi * rule.nodes * max_range_x(rule.nodes, pf, p))


def _frw_point(cutoff: float, u_avg: float, dist: DensityDistribution,
               x_cap: float) -> Optional[tuple]:
    """(tail rule, tail first moment, fixed radius) at one cut-off.

    The radius is the smallest whose tail throughput meets the floor; None
    when it breaks the cap, which is checked at the highest density only
    since transmit power grows with density at fixed radius.
    """
    rule = _tail_rule(dist, cutoff)
    t1 = rule.integrate(rule.nodes)
    if not t1 > 0.0:
        return None
    r_f = math.sqrt(u_avg / (math.pi * t1))
    return None if r_f * r_f > x_cap * (1.0 + 1e-12) else (rule, t1, r_f)


def _frw_cost(cutoff: float, point: tuple, dist: DensityDistribution,
              p: SystemParams) -> float:
    rule, _, r_f = point
    return rule.integrate(bs_power(r_f, rule.nodes, p)) \
        + p.sleep_power * float(dist.cdf(cutoff))


def _frw_result(tag: str, cutoff: float, point: tuple,
                dist: DensityDistribution, p: SystemParams) -> SchemeResult:
    """The scheme's result, with metrics on its own tail rule."""
    _, t1, r_f = point
    metrics = PolicyMetrics(
        avg_power_w=_frw_cost(cutoff, point, dist, p),
        avg_users=math.pi * r_f * r_f * t1,
        on_probability=1.0 - float(dist.cdf(cutoff)),
        peak_bs_power_w=bs_power(r_f, dist.lambda_max, p))
    return SchemeResult(scheme=tag, cutoff=cutoff, fixed_radius=r_f,
                        fixed_power=None, metrics=metrics)


def _frw_edge(u_avg: float, dist: DensityDistribution, x_cap: float) -> float:
    """Largest cut-off c with pi x_cap T1(c) = u_avg, T1 the tail first moment.

    Newton with the exact slope dT1/dc = -c f(c), kept inside a bracket
    that bisection shrinks whenever a step would leave it (or f(c) = 0).
    Callers have checked that c = 0 is feasible; the satisfied side of the
    bracket is returned if 100 steps do not close it.
    """
    lo, hi = 0.0, dist.lambda_max
    tol = 1e-13 * hi
    c = 0.5 * hi
    for _ in range(100):
        if hi - lo <= tol:
            break
        gap = math.pi * x_cap * _tail_mean_density(dist, c) - u_avg
        if gap >= 0.0:
            lo = c
        else:
            hi = c
        slope = -math.pi * x_cap * c * float(dist.pdf(c))
        step = c - gap / slope if slope < 0.0 else math.nan
        if abs(step - c) <= tol:
            return step
        c = step if lo < step < hi else 0.5 * (lo + hi)
    return lo


def frw_ofc(u_avg: float, dist: DensityDistribution, p: SystemParams,
            force_cutoff: Optional[float] = None) -> SchemeResult:
    """Fixed radius with an on/off cut-off.

    For each cut-off the radius is the smallest one whose tail throughput
    meets the floor.  Cut-offs past the feasibility edge ``_frw_edge`` break
    the cap, so a bounded scalar search runs on [0, edge], and the better
    of its result and the two end points wins.
    """
    _check_target(u_avg)
    m = dist.lambda_max
    x_cap = max_range_x(m, p.max_bs_power, p)
    first = 0.0 if force_cutoff is None else force_cutoff
    point = _frw_point(first, u_avg, dist, x_cap)
    if point is None:
        raise InfeasibleError(
            u_avg, math.pi * x_cap * _tail_mean_density(dist, first))
    if force_cutoff is not None:
        tag = FRW_OOFC if force_cutoff == 0.0 else FRW_OFC
        return _frw_result(tag, force_cutoff, point, dist, p)

    def objective(cutoff: float) -> float:
        at = _frw_point(cutoff, u_avg, dist, x_cap)
        return _BIG if at is None else _frw_cost(cutoff, at, dist, p)

    edge = _frw_edge(u_avg, dist, x_cap)
    res = optimize.minimize_scalar(objective, bounds=(0.0, edge),
                                   method="bounded",
                                   options={"xatol": m * 1e-9})
    # the bounded search never evaluates the end points, and the optimum
    # often lies at one of them
    best_cut = min((0.0, float(res.x), edge), key=objective)
    return _frw_result(FRW_OFC, best_cut,
                       _frw_point(best_cut, u_avg, dist, x_cap), dist, p)


def frw_oofc(u_avg: float, dist: DensityDistribution,
             p: SystemParams) -> SchemeResult:
    """Fixed radius, always on: the cut-off pinned to zero."""
    return frw_ofc(u_avg, dist, p, force_cutoff=0.0)


def _level_costs(pfs: np.ndarray, u_avg: float, dist: DensityDistribution,
                 p: SystemParams, lam_grid: np.ndarray,
                 pdf_grid: np.ndarray) -> np.ndarray:
    """Average consumption at each consumption level in ``pfs``; _BIG where
    the level cannot meet the floor.

    Tail throughput is tabulated with trapezoids over a dense density grid,
    ``_LEVELS_PER_CALL`` levels per kernel call; accurate enough to rank
    candidates, with the winner re-solved by quadrature afterwards.  The
    cut-off is where the tail throughput falls to the floor.
    """
    cutoffs = np.full(pfs.size, np.nan)
    width = np.diff(lam_grid)
    for s in range(0, pfs.size, _LEVELS_PER_CALL):
        xs = max_range_x(lam_grid, pfs[s:s + _LEVELS_PER_CALL, None], p)
        integ = math.pi * lam_grid * xs * pdf_grid
        seg = 0.5 * (integ[:, 1:] + integ[:, :-1]) * width
        tails = np.cumsum(seg[:, ::-1], axis=1)
        for j, tail in enumerate(tails):
            if tail[-1] >= u_avg:
                # tail decreases along the grid; invert by interpolation
                cutoffs[s + j] = np.interp(u_avg, np.append(0.0, tail),
                                           lam_grid[::-1])
    costs = np.full(pfs.size, _BIG)
    ok = ~np.isnan(cutoffs)
    on_prob = 1.0 - np.asarray(dist.cdf(cutoffs[ok]), dtype=float)
    costs[ok] = pfs[ok] * on_prob + p.sleep_power * (1.0 - on_prob)
    return costs


def _accurate_cutoff(pf: float, u_avg: float, dist: DensityDistribution,
                     p: SystemParams) -> Optional[float]:
    """Largest cut-off whose quadrature tail throughput still meets the floor."""
    def tail(cut: float) -> float:
        return _tail_users(_tail_rule(dist, cut), pf, p)

    if tail(0.0) < u_avg:
        return None
    lo, hi = 0.0, dist.lambda_max
    for _ in range(60):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if tail(mid) >= u_avg:
            lo = mid
        else:
            hi = mid
    return lo  # the satisfied side, so the constraint holds at the result


def arw_ofc(u_avg: float, dist: DensityDistribution, p: SystemParams,
            force_cutoff: Optional[float] = None) -> SchemeResult:
    """Consumption pinned at one level when on, with an on/off cut-off.

    The range tracks the largest radius affordable at the chosen level; the
    cut-off is pushed as high as the throughput floor allows, and the level
    minimizing (level * on-probability) wins.
    """
    _check_target(u_avg)
    if force_cutoff is not None:
        return _arw_fixed_cutoff(u_avg, dist, p, force_cutoff)
    cap = _tail_users(_tail_rule(dist, 0.0), p.max_bs_power, p)
    if cap < u_avg:
        raise InfeasibleError(u_avg, cap)
    m = dist.lambda_max
    lam_grid = np.linspace(m * 1e-9, m, _LAM_GRID)
    pdf_grid = np.asarray(dist.pdf(lam_grid), dtype=float)
    pfs = np.linspace(p.static_power, p.max_bs_power, _GRID + 1)[1:]

    def fast_cost(pf: float) -> float:
        return float(_level_costs(np.array([pf]), u_avg, dist, p,
                                  lam_grid, pdf_grid)[0])

    costs = _level_costs(pfs, u_avg, dist, p, lam_grid, pdf_grid)
    i = int(np.argmin(costs))
    levels = [p.max_bs_power]  # meets the floor: the cap covers it
    if costs[i] < _BIG:
        lo = float(pfs[max(i - 1, 0)])
        hi = float(pfs[min(i + 1, len(pfs) - 1)])
        res = optimize.minimize_scalar(
            fast_cost, bounds=(lo, hi), method="bounded",
            options={"xatol": p.max_bs_power * 1e-9})
        best = float(res.x) if res.fun <= costs[i] else float(pfs[i])
        levels = [best, float(pfs[i])] + levels
    for pf in levels:  # the cap, last, always has a cut-off
        cutoff = _accurate_cutoff(pf, u_avg, dist, p)
        if cutoff is not None:
            break
    return _arw_result(ARW_OFC, pf, cutoff, dist, p)


def _arw_fixed_cutoff(u_avg: float, dist: DensityDistribution,
                      p: SystemParams, cutoff: float) -> SchemeResult:
    """Smallest consumption level meeting the floor at a pinned cut-off."""
    _check_target(u_avg)
    rule = _tail_rule(dist, cutoff)

    def tail(pf: float) -> float:
        return _tail_users(rule, pf, p)

    if tail(p.max_bs_power) < u_avg:
        raise InfeasibleError(u_avg, tail(p.max_bs_power))

    def f(pf: float) -> float:
        return tail(pf) - u_avg

    eps = (p.max_bs_power - p.static_power) * 1e-9
    pf = bisect(f, Bracket.from_function(f, p.static_power + eps,
                                         p.max_bs_power), rel_tol=1e-10)
    if f(pf) < 0.0:
        pf = min(pf * (1.0 + 1e-9) + eps, p.max_bs_power)
    tag = ARW_OOFC if cutoff == 0.0 else ARW_OFC
    return _arw_result(tag, pf, cutoff, dist, p)


def _arw_result(tag: str, pf: float, cutoff: float,
                dist: DensityDistribution, p: SystemParams) -> SchemeResult:
    on_prob = 1.0 - float(dist.cdf(cutoff))
    avg_users = _tail_users(_tail_rule(dist, cutoff), pf, p)
    avg_power = pf * on_prob + p.sleep_power * (1.0 - on_prob)
    metrics = PolicyMetrics(avg_power_w=avg_power, avg_users=avg_users,
                            on_probability=on_prob, peak_bs_power_w=pf)
    return SchemeResult(scheme=tag, cutoff=cutoff, fixed_radius=None,
                        fixed_power=pf, metrics=metrics)


def arw_oofc(u_avg: float, dist: DensityDistribution,
             p: SystemParams) -> SchemeResult:
    """Constant consumption, always on: the cut-off pinned to zero."""
    return _arw_fixed_cutoff(u_avg, dist, p, 0.0)
