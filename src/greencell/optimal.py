"""Optimal range adaptation and long-term power control via Lagrangian duality.

Everything here works in x = R^2 space, where the consumption model is convex
and each per-density subproblem has at most one interior stationary point;
the public policy objects expose radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .metrics import PolicyMetrics
from .numerics import (ConvergenceError, as_arrays, gauss_legendre,
                       lambert_w0, newton_log, shaped)
# bound here for perfbench/selftest.py, which checks its tracer rebinds it
from .numerics import expect  # noqa: F401
from .params import SystemParams, derive_constants
from .scaling import bs_power_x, max_range_x
from .traffic import DensityDistribution


CASE_A = "case_A"  # power cap becomes binding only after switch-on
CASE_B = "case_B"  # cap binds immediately: constant-power transmission when on


class InfeasibleError(ValueError):
    """The throughput requirement exceeds what the power cap allows."""

    def __init__(self, u_avg: float, max_achievable: float):
        super().__init__(
            f"required average throughput {u_avg} exceeds the maximum "
            f"achievable {max_achievable:.6g} under the BS power cap")
        self.u_avg = u_avg
        self.max_achievable = max_achievable


@dataclass(frozen=True)
class CriticalDensities:
    """Density thresholds separating off / stationary / power-capped regimes.

    Values may be ``inf`` when the defining crossing lies beyond the scan
    ceiling (never reached) or ``0.0`` when it lies below it.
    """

    lambda1: float
    lambda2: float
    lambda3: float

    @property
    def case_tag(self) -> str:
        # relative tolerance avoids tag flip-flop at near-equality
        if self.lambda2 == self.lambda1:
            return CASE_A
        if math.isinf(self.lambda1) and math.isinf(self.lambda2):
            return CASE_A
        return CASE_A if self.lambda2 >= self.lambda1 * (1.0 - 1e-9) else CASE_B

    @property
    def on_cutoff(self) -> float:
        """Density below which the BS stays off."""
        return self.lambda1 if self.case_tag == CASE_A else self.lambda3


def lagrangian_x(x, density, mu: float, p: SystemParams):
    """Per-density Lagrangian L = consumption - mu * supported users, in x space."""
    shape, (x, lam) = as_arrays(x, density)
    return shaped(bs_power_x(x, lam, p) - mu * math.pi * lam * x, shape)


def x1_star(density, mu: float, p: SystemParams):
    """Interior stationary point: unique positive root of dL/dx = 0.

    Elementwise over densities.  The power term's slope
    Pt'(x) = d1 x^(alpha/2-1) e^y (alpha/2 (1 - e^-y) + y), y = D2 pi lambda
    x ln 2, vanishes as x -> 0+ for pathloss exponents above 2 and grows
    without bound, so Pt'(x) = mu pi lambda / a has exactly one root.  Its
    logarithm is convex and increasing in log x; Newton there starts from
    the closed form ``hse_x1``, which drops the first term of Pt' and so
    lies above the root, and descends monotonically onto it.
    """
    shape, (lam,) = as_arrays(density)
    if (lam <= 0.0).any():
        raise ValueError(f"density must be positive, got {lam.min()}")
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    c = derive_constants(p)
    h = 0.5 * p.pathloss_exp

    def log_slope(x, qp, log_rhs):
        # log(Pt'(x) / target) and its derivative in log x
        y = qp * x
        em = -np.expm1(-y)
        t = h * em + y
        return ((h - 1.0) * np.log(x) + y + np.log(t) - log_rhs,
                (h * (h - 1.0) * em + (2.0 * h + y) * y) / t)

    qp = c.d3 * math.pi * lam
    log_rhs = np.log(mu * math.pi * lam / (p.amp_scaling * c.d1))
    x = newton_log(log_slope, hse_x1(lam, mu, p), qp, log_rhs)
    return shaped(x, shape)


def x2_star(density, p: SystemParams):
    """Largest admissible x: consumption pinned at the BS power cap."""
    return max_range_x(density, p.max_bs_power, p)


def subproblem(density, mu: float, p: SystemParams):
    """Pointwise minimizer of the per-density Lagrangian over x >= 0.

    Returns the interior stationary point when it is admissible and beats
    switching off, the power-capped point when the stationary one violates
    the cap, and 0 otherwise.  Elementwise over densities.
    """
    shape, (lam,) = as_arrays(density)
    out = np.zeros_like(lam)
    on = lam > 0.0
    if mu > 0.0 and on.any():
        lam = lam[on]
        x = x1_star(lam, mu, p)
        capped = bs_power_x(x, lam, p) > p.max_bs_power
        if capped.any():
            x[capped] = x2_star(lam[capped], p)
        out[on] = np.where(lagrangian_x(x, lam, mu, p) < 0.0, x, 0.0)
    return shaped(out, shape)


# sign each threshold function takes past its root: L along x1* falls,
# consumption along x1* rises, L along x2* falls
_PAST_ROOT = np.array([[-1.0], [1.0], [-1.0]])


def _threshold_values(lams: np.ndarray, mu: float,
                      p: SystemParams) -> np.ndarray:
    """The three threshold functions, row i at densities ``lams[i]``.

    Signs are flipped so that every row is positive past its root.
    """
    x = np.concatenate([np.ravel(x1_star(lams[:2], mu, p)),
                        np.ravel(x2_star(lams[2], p))]).reshape(lams.shape)
    power = bs_power_x(x, lams, p)
    rows = power - mu * math.pi * lams * x
    rows[1] = power[1] - p.max_bs_power
    return rows * _PAST_ROOT


def critical_densities(mu: float, p: SystemParams, lambda_max: float,
                       scan_factor: float = 1e3) -> CriticalDensities:
    """The three threshold densities for a given dual variable.

    Each defining function is monotone in density.  All three are evaluated
    on one geometric scan grid over [1e-6, scan_factor] * lambda_max; the
    first grid cell where a function crosses is then bisected, the three
    cells together, until its width is below 1e-10 * max(1, lambda), the
    stopping rule of ``numerics.bisect``.  A crossing above the grid is
    reported as inf, one below it as 0.
    """
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    lam_lo = lambda_max * 1e-6
    lam_hi = lambda_max * scan_factor
    n = max(8, int(math.ceil(10.0 * math.log10(lam_hi / lam_lo))))
    grid = np.geomspace(lam_lo, lam_hi, n)
    vals = _threshold_values(np.broadcast_to(grid, (3, n)), mu, p)
    roots = np.full(3, math.inf)
    # rows without a bracket keep a dummy one and are never active
    lo, hi = np.full(3, lam_lo), np.full(3, lam_lo)
    active = np.zeros(3, dtype=bool)
    for i, row in enumerate(vals):
        hits = np.flatnonzero(row >= 0.0)
        if not hits.size:
            continue
        j = hits[0]
        if j == 0 and row[0] > 0.0:
            roots[i] = 0.0
        elif row[j] == 0.0:
            roots[i] = grid[j]
        else:
            lo[i], hi[i], active[i] = grid[j - 1], grid[j], True
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        done = active & (hi - lo <= 1e-10 * np.maximum(1.0, mid))
        roots[done] = mid[done]
        active &= ~done
        if not active.any():
            break
        v = _threshold_values(mid[:, None], mu, p)[:, 0]
        hit = active & (v == 0.0)
        roots[hit] = mid[hit]
        active &= ~hit
        hi = np.where(active & (v > 0.0), mid, hi)
        lo = np.where(active & (v < 0.0), mid, lo)
    else:
        raise ConvergenceError("threshold bisection did not converge")
    return CriticalDensities(lambda1=float(roots[0]), lambda2=float(roots[1]),
                             lambda3=float(roots[2]))


# --- closed forms under the high-spectrum-efficiency approximation ---------

def hse_x1(density, mu: float, p: SystemParams):
    """Closed-form stationary point when the per-cell load exponent is large."""
    shape, (lam,) = as_arrays(density)
    if (lam <= 0.0).any():
        raise ValueError(f"density must be positive, got {lam.min()}")
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    c = derive_constants(p)
    alpha = p.pathloss_exp
    k = 2.0 * c.d3 * math.pi * lam / alpha
    arg = k * (mu / (p.amp_scaling * c.d1 * c.d3)) ** (2.0 / alpha)
    return shaped(lambert_w0(arg) / k, shape)


def hse_x2(density, p: SystemParams):
    """Closed-form power-capped point when the load exponent is large."""
    shape, (lam,) = as_arrays(density)
    if (lam <= 0.0).any():
        raise ValueError(f"density must be positive, got {lam.min()}")
    c = derive_constants(p)
    alpha = p.pathloss_exp
    pt_max = (p.max_bs_power - p.static_power) / p.amp_scaling
    if pt_max <= 0.0:
        raise ValueError("max_bs_power must exceed static_power")
    k = 2.0 * c.d3 * math.pi * lam / alpha
    arg = k * (pt_max / c.d1) ** (2.0 / alpha)
    return shaped(lambert_w0(arg) / k, shape)


def hse_critical_densities(mu: float, p: SystemParams) -> CriticalDensities:
    """Closed-form threshold densities; each strictly decreasing in mu.

    The middle threshold's closed form requires mu > d3 * (Pmax - Pc);
    otherwise its denominator is nonpositive and the value is reported
    as inf.
    """
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    c = derive_constants(p)
    alpha = p.pathloss_exp
    pc = p.static_power
    pt_max = (p.max_bs_power - pc) / p.amp_scaling
    lam1 = ((1.0 / (math.pi * c.d3) + pc / (mu * math.pi))
            * (p.amp_scaling * c.d1 * c.d3 / mu) ** (2.0 / alpha)
            * math.exp(2.0 / alpha + 2.0 * c.d3 * pc / (mu * alpha)))
    denom = mu - c.d3 * pt_max * p.amp_scaling
    if denom > 0.0:
        lam2 = (alpha * p.amp_scaling * pt_max / (2.0 * math.pi * denom)
                * (p.amp_scaling * c.d1 * c.d3 / mu) ** (2.0 / alpha)
                * math.exp(c.d3 * pt_max * p.amp_scaling / denom))
    else:
        lam2 = math.inf
    lam3 = (p.max_bs_power / (mu * math.pi)
            * (c.d1 / pt_max) ** (2.0 / alpha)
            * math.exp(2.0 * c.d3 * p.max_bs_power / (mu * alpha)))
    return CriticalDensities(lambda1=lam1, lambda2=lam2, lambda3=lam3)


# --- policy tabulation and the outer dual search ----------------------------

@dataclass(frozen=True)
class AdaptationPolicy:
    """Tabulated density -> (radius, consumption) map for one dual variable."""

    mu: float
    criticals: CriticalDensities
    lambdas: np.ndarray
    radii: np.ndarray
    powers: np.ndarray
    mode: str  # "exact" or "hse"
    lambda_max: float

    @property
    def case_tag(self) -> str:
        return self.criticals.case_tag

    @property
    def breakpoints(self) -> Tuple[float, ...]:
        crits = (self.criticals.lambda1, self.criticals.lambda2,
                 self.criticals.lambda3)
        return tuple(sorted({c for c in crits if 0.0 < c < self.lambda_max}))

    def radius_at(self, density: float) -> float:
        """Radius interpolated piecewise-linearly in x = R^2; off below the cut-off."""
        cut = self.criticals.on_cutoff
        if density <= cut or density <= 0.0:
            return 0.0
        x = np.interp(density, self.lambdas, self.radii ** 2)
        return math.sqrt(max(x, 0.0))

    def rows(self):
        for lam, r, pw in zip(self.lambdas, self.radii, self.powers):
            yield float(lam), float(r), float(pw)

    def summary(self) -> dict:
        def enc(v):
            return None if math.isinf(v) else v
        return {
            "mu": self.mu,
            "mode": self.mode,
            "case_tag": self.case_tag,
            "lambda1": enc(self.criticals.lambda1),
            "lambda2": enc(self.criticals.lambda2),
            "lambda3": enc(self.criticals.lambda3),
            "lambda_max": self.lambda_max,
        }


def _policy_x(lams: np.ndarray, mu: float, crits: CriticalDensities,
              p: SystemParams, mode: str = "exact") -> np.ndarray:
    """x = R^2 of the policy with thresholds ``crits``, by regime.

    Off at or below the switch-on cut-off; then, in case A, the stationary
    point up to lambda2; the power-capped point above.  ``mode="hse"``
    takes both points from their closed forms.
    """
    xs = np.zeros_like(lams)
    on = lams > max(crits.on_cutoff, 0.0)
    stationary = on & (lams <= crits.lambda2) if crits.case_tag == CASE_A \
        else np.zeros_like(on)
    capped = on & ~stationary
    x1_fn, x2_fn = (x1_star, x2_star) if mode == "exact" else (hse_x1, hse_x2)
    if stationary.any():
        xs[stationary] = x1_fn(lams[stationary], mu, p)
    if capped.any():
        xs[capped] = x2_fn(lams[capped], p)
    return xs


def policy_for_mu(mu: float, p: SystemParams, lambda_max: float,
                  grid_size: int = 2048, mode: str = "exact") -> AdaptationPolicy:
    """Tabulate the per-density minimizer over a uniform grid plus the cut-offs."""
    if mode not in ("exact", "hse"):
        raise ValueError(f"mode must be 'exact' or 'hse', got {mode}")
    if mu <= 0.0:
        crits = CriticalDensities(math.inf, math.inf, math.inf)
    elif mode == "exact":
        crits = critical_densities(mu, p, lambda_max)
    else:
        crits = hse_critical_densities(mu, p)
    inner = _breakpoints(crits, lambda_max)
    lams = np.unique(np.concatenate([
        np.linspace(0.0, lambda_max, grid_size), inner,
        np.nextafter(inner, lambda_max)]))
    xs = _policy_x(lams, mu, crits, p, mode)
    return AdaptationPolicy(mu=mu, criticals=crits, lambdas=lams,
                            radii=np.sqrt(xs), powers=bs_power_x(xs, lams, p),
                            mode=mode, lambda_max=lambda_max)


def _breakpoints(crits: CriticalDensities, lambda_max: float) -> list:
    return [c for c in (crits.lambda1, crits.lambda2, crits.lambda3)
            if 0.0 < c < lambda_max]


def _avg_throughput(mu: float, dist: DensityDistribution, p: SystemParams,
                    crits: Optional[CriticalDensities] = None) -> float:
    if mu <= 0.0:
        return 0.0
    if crits is None:
        crits = critical_densities(mu, p, dist.lambda_max)
    rule = gauss_legendre(dist, 0.0, dist.lambda_max,
                          _breakpoints(crits, dist.lambda_max))
    return rule.integrate(math.pi * rule.nodes
                          * _policy_x(rule.nodes, mu, crits, p))


def max_achievable_throughput(dist: DensityDistribution,
                              p: SystemParams) -> float:
    """Long-term throughput of the always-at-cap policy (the feasibility bound)."""
    rule = gauss_legendre(dist, 0.0, dist.lambda_max)
    return rule.integrate(math.pi * rule.nodes * x2_star(rule.nodes, p))


def solve(u_avg: float, dist: DensityDistribution, p: SystemParams,
          grid_size: int = 2048, constraint_rel_tol: float = 1e-4,
          mode: str = "exact") -> Tuple[AdaptationPolicy, PolicyMetrics]:
    """Minimize long-term consumption subject to a long-term throughput floor.

    Outer bisection on the dual variable until the achieved throughput matches
    ``u_avg`` within tolerance.  When ``u_avg`` falls inside a jump of the
    throughput-versus-mu curve, the nearest policy from above is returned and
    its achieved throughput is reported in the metrics.
    """
    if not (math.isfinite(u_avg) and u_avg > 0.0):
        raise ValueError(f"u_avg must be finite and positive, got {u_avg}")
    cap = max_achievable_throughput(dist, p)
    if cap < u_avg:
        raise InfeasibleError(u_avg, cap)

    def achieved(mu: float) -> float:
        return _avg_throughput(mu, dist, p)

    lo, e_lo = 0.0, 0.0
    hi = 1.0
    e_hi = achieved(hi)
    while e_hi < u_avg:
        lo, e_lo = hi, e_hi
        hi *= 2.0
        if hi > 1e12:
            raise InfeasibleError(u_avg, e_hi)
        e_hi = achieved(hi)
    # bisect, keeping hi on the satisfied side
    for _ in range(200):
        if abs(e_hi - u_avg) <= constraint_rel_tol * u_avg:
            break
        if hi - lo <= 1e-12 * max(1.0, hi):
            break  # throughput jump: accept the nearest-above dual point
        mid = 0.5 * (lo + hi)
        e_mid = achieved(mid)
        if e_mid >= u_avg:
            hi, e_hi = mid, e_mid
        else:
            lo, e_lo = mid, e_mid

    mu = hi
    policy = policy_for_mu(mu, p, dist.lambda_max, grid_size=grid_size,
                           mode=mode)
    if mode == "exact":
        return policy, _exact_policy_metrics(mu, policy.criticals, dist, p)
    # ROADMAP known defect, unchanged here: hse mode reports the exact
    # policy's averages, with its own cut-off for on-probability and peak
    return policy, _exact_policy_metrics(
        mu, critical_densities(mu, p, dist.lambda_max), dist, p,
        cutoff=policy.criticals.on_cutoff)


def _exact_policy_metrics(mu: float, crits: CriticalDensities,
                          dist: DensityDistribution, p: SystemParams,
                          cutoff: Optional[float] = None) -> PolicyMetrics:
    """Metrics of the exact policy with thresholds ``crits``.

    ``cutoff`` (default: the policy's own) bounds the on-probability and
    the peak-power scan.
    """
    rule = gauss_legendre(dist, 0.0, dist.lambda_max,
                          _breakpoints(crits, dist.lambda_max))
    x = _policy_x(rule.nodes, mu, crits, p)
    avg_power = rule.integrate(bs_power_x(x, rule.nodes, p))
    avg_users = rule.integrate(math.pi * rule.nodes * x)
    cut = min(crits.on_cutoff if cutoff is None else cutoff, dist.lambda_max)
    on_prob = 1.0 - float(dist.cdf(cut))
    grid = np.linspace(cut, dist.lambda_max, 257) if cut < dist.lambda_max \
        else np.array([dist.lambda_max])
    grid = grid[grid > 0.0]
    peak = float(np.max(bs_power_x(_policy_x(grid, mu, crits, p), grid, p))) \
        if grid.size else p.sleep_power
    return PolicyMetrics(avg_power_w=avg_power, avg_users=avg_users,
                         on_probability=on_prob, peak_bs_power_w=peak)
