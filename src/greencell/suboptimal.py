"""Reduced-complexity adaptation schemes: fixed or power-capped range, with or
without an on/off traffic cut-off.

All four are one-dimensional constrained searches over (cut-off density,
fixed radius) or (cut-off density, fixed consumption) pairs; each is feasible
for the original problem and upper-bounds the optimal consumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize

from .metrics import PolicyMetrics, evaluate
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

_GRID = 512
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


def _fixed_radius_for(t1: float, u_avg: float) -> Optional[float]:
    """Smallest fixed radius meeting the floor given the tail first moment t1."""
    return math.sqrt(u_avg / (math.pi * t1)) if t1 > 0.0 else None


def frw_ofc(u_avg: float, dist: DensityDistribution, p: SystemParams,
            grid_size: int = _GRID, force_cutoff: Optional[float] = None
            ) -> SchemeResult:
    """Fixed radius with an on/off cut-off.

    For each candidate cut-off the radius is the smallest one whose tail
    throughput meets the floor; the cap is checked at the highest density
    only since transmit power grows with density at fixed radius.  The
    cut-off minimizing average consumption wins, refined locally after the
    grid scan.
    """
    _check_target(u_avg)
    m = dist.lambda_max
    x_cap = max_range_x(m, p.max_bs_power, p)

    def objective(cutoff: float) -> tuple:
        rule = _tail_rule(dist, cutoff)
        r_f = _fixed_radius_for(rule.integrate(rule.nodes), u_avg)
        if r_f is None or r_f * r_f > x_cap * (1.0 + 1e-12):
            return _BIG, None
        cost = rule.integrate(bs_power(r_f, rule.nodes, p)) \
            + p.sleep_power * float(dist.cdf(cutoff))
        return cost, r_f

    if force_cutoff is not None:
        best_cut = force_cutoff
        cost, r_f = objective(best_cut)
        if r_f is None:
            raise InfeasibleError(
                u_avg, math.pi * x_cap * _tail_mean_density(dist, best_cut))
    else:
        cuts = np.linspace(0.0, m, grid_size + 1)[:-1]
        costs = np.array([objective(float(c))[0] for c in cuts])
        i = int(np.argmin(costs))
        if costs[i] >= _BIG:
            raise InfeasibleError(
                u_avg, math.pi * x_cap * _tail_mean_density(dist, 0.0))
        lo = float(cuts[max(i - 1, 0)])
        hi = float(cuts[min(i + 1, len(cuts) - 1)])
        res = optimize.minimize_scalar(lambda c: objective(c)[0],
                                       bounds=(lo, hi), method="bounded",
                                       options={"xatol": m * 1e-9})
        best_cut = float(res.x) if res.fun <= costs[i] else float(cuts[i])
        _, r_f = objective(best_cut)
    metrics = evaluate(lambda lam: r_f if lam >= best_cut else 0.0,
                       dist, p, breakpoints=(best_cut,))
    tag = FRW_OOFC if best_cut == 0.0 else FRW_OFC
    return SchemeResult(scheme=tag if force_cutoff is not None else FRW_OFC,
                        cutoff=best_cut, fixed_radius=r_f, fixed_power=None,
                        metrics=metrics)


def frw_oofc(u_avg: float, dist: DensityDistribution,
             p: SystemParams) -> SchemeResult:
    """Fixed radius, always on: the cut-off pinned to zero."""
    res = frw_ofc(u_avg, dist, p, force_cutoff=0.0)
    return SchemeResult(scheme=FRW_OOFC, cutoff=0.0,
                        fixed_radius=res.fixed_radius, fixed_power=None,
                        metrics=res.metrics)


def _tail_throughput_fast(pf: float, u_avg: float, dist: DensityDistribution,
                          p: SystemParams, lam_grid: np.ndarray,
                          pdf_grid: np.ndarray) -> Optional[tuple]:
    """Grid-tabulated (cutoff, objective) for one fixed consumption level.

    Tail throughput is tabulated with trapezoids over a dense density grid;
    accurate enough to rank candidates, with the winner re-solved by
    quadrature afterwards.
    """
    if pf <= p.static_power:
        return None
    xs = max_range_x(lam_grid, pf, p)
    integ = math.pi * lam_grid * xs * pdf_grid
    seg = 0.5 * (integ[1:] + integ[:-1]) * np.diff(lam_grid)
    tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    if tail[0] < u_avg:
        return None
    # tail decreases along the grid; invert by interpolation
    cutoff = float(np.interp(u_avg, tail[::-1], lam_grid[::-1]))
    on_prob = 1.0 - float(dist.cdf(cutoff))
    return cutoff, pf * on_prob + p.sleep_power * (1.0 - on_prob)


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
            grid_size: int = _GRID, lam_grid_size: int = 513,
            force_cutoff: Optional[float] = None) -> SchemeResult:
    """Consumption pinned at one level when on, with an on/off cut-off.

    The range tracks the largest radius affordable at the chosen level; the
    cut-off is pushed as high as the throughput floor allows, and the level
    minimizing (level * on-probability) wins.
    """
    _check_target(u_avg)
    if force_cutoff is not None:
        return _arw_fixed_cutoff(u_avg, dist, p, force_cutoff)
    m = dist.lambda_max
    lam_grid = np.linspace(m * 1e-9, m, lam_grid_size)
    pdf_grid = np.asarray(dist.pdf(lam_grid), dtype=float)
    pfs = np.linspace(p.static_power, p.max_bs_power, grid_size + 1)[1:]

    def fast_cost(pf: float) -> float:
        got = _tail_throughput_fast(float(pf), u_avg, dist, p,
                                    lam_grid, pdf_grid)
        return got[1] if got is not None else _BIG

    costs = np.array([fast_cost(pf) for pf in pfs])
    i = int(np.argmin(costs))
    if costs[i] >= _BIG:
        raise InfeasibleError(
            u_avg, _tail_users(_tail_rule(dist, 0.0), p.max_bs_power, p))
    lo = float(pfs[max(i - 1, 0)])
    hi = float(pfs[min(i + 1, len(pfs) - 1)])
    res = optimize.minimize_scalar(fast_cost, bounds=(lo, hi),
                                   method="bounded",
                                   options={"xatol": p.max_bs_power * 1e-9})
    pf = float(res.x) if res.fun <= costs[i] else float(pfs[i])
    cutoff = _accurate_cutoff(pf, u_avg, dist, p)
    if cutoff is None:
        pf = float(pfs[i])
        cutoff = _accurate_cutoff(pf, u_avg, dist, p)
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
