"""Optimal range adaptation and long-term power control via Lagrangian duality.

Everything here works in x = R^2 space, where the consumption model is convex
and each per-density subproblem has at most one interior stationary point;
the public policy objects expose radii.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .metrics import PolicyMetrics
from .numerics import (as_arrays, as_densities, bracketed_newton,
                       gauss_legendre, shaped)
# bound here for perfbench/selftest.py, which checks its tracer rebinds it
from .numerics import expect  # noqa: F401
from .params import SystemParams, derive_constants
from .scaling import (_cap_law, _curve_x, _stationary_law, bs_power_x,
                      max_range_x)
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


def _check_mu(mu: float) -> None:
    """ValueError unless the dual variable ``mu`` is finite and positive."""
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")


@dataclass(frozen=True)
class CriticalDensities:
    """Density thresholds separating off / stationary / power-capped regimes.

    The same three numbers in both modes, each the value its solver finds:
    inf only where it has no root or would overflow the float range, 0 only
    where it has no root or falls below the least normal float, which no
    kernel takes (``from_logs``).
    """

    lambda1: float
    lambda2: float
    lambda3: float

    @classmethod
    def from_logs(cls, *logs: float) -> CriticalDensities:
        """The thresholds with these logs; inf where exp would overflow, 0
        where it is subnormal."""
        lams = (math.exp(v) if v < 709.78 else math.inf for v in logs)
        return cls(*(v if v >= sys.float_info.min else 0.0 for v in lams))

    @property
    def case_tag(self) -> str:
        return CASE_A if self.lambda2 >= self.lambda1 else CASE_B

    @property
    def on_cutoff(self) -> float:
        """Density below which the BS stays off."""
        return self.lambda1 if self.case_tag == CASE_A else self.lambda3


def lagrangian_x(x, density, mu: float, p: SystemParams):
    """Per-density Lagrangian L = consumption - mu * supported users, in x space.

    A non-finite ``mu`` raises ValueError.
    """
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    shape, (x, lam) = as_arrays(x, density)
    return shaped(bs_power_x(x, lam, p) - mu * math.pi * lam * x, shape)


def x1_star(density, mu: float, p: SystemParams):
    """Interior stationary point, elementwise over densities: the unique
    positive root of dL/dx = 0, a Pt'(x) = mu pi lambda, which is that of
    ``_stationary_law`` (``_curve_x``).  Pt'(x) rises from 0 at x = 0+
    (alpha > 2) without bound."""
    _check_mu(mu)
    c = derive_constants(p)
    a_d1 = p.amp_scaling * c.d1
    log_on = math.log(mu) + math.log(math.pi / a_d1)

    def log_rhs(lam):  # in parts where a product is not a normal float
        tiny = sys.float_info.min
        mu_pi_lam = mu * math.pi * lam
        v = mu_pi_lam / a_d1
        normal = ((mu * math.pi >= tiny) & (mu_pi_lam >= tiny) & (v >= tiny)
                  & (v < math.inf))
        return np.where(normal, np.log(v), log_on + np.log(lam))
    return _curve_x(density, c.d3 * math.pi, mu / (a_d1 * c.d3),
                    0.5 * p.pathloss_exp, ("mu", mu), _stationary_law,
                    log_rhs)


def x2_star(density, p: SystemParams):
    """Largest admissible x: consumption pinned at the BS power cap."""
    return max_range_x(density, p.max_bs_power - p.static_power, p)


def subproblem(density, mu: float, p: SystemParams):
    """Pointwise minimizer of the per-density Lagrangian over x >= 0.

    Returns the interior stationary point when it is admissible and beats
    switching off (L = Ps), the power-capped point when the stationary one
    violates the cap, and 0 otherwise.  Elementwise over densities.
    """
    shape, (lam,) = as_arrays(density)
    out = np.zeros_like(lam)
    on = lam > 0.0
    if not mu <= 0.0:  # positive, or NaN, which _check_mu rejects
        _check_mu(mu)
    if mu > 0.0 and on.any():
        lam = lam[on]
        x = x1_star(lam, mu, p)
        capped = bs_power_x(x, lam, p) > p.max_bs_power
        if capped.any():
            x[capped] = x2_star(lam[capped], p)
        out[on] = np.where(lagrangian_x(x, lam, mu, p) < p.sleep_power,
                           x, 0.0)
    return shaped(out, shape)


# threshold roots stop within this distance in log y
THRESHOLD_TOL = 1e-14


def critical_densities(mu: float, p: SystemParams) -> CriticalDensities:
    """The three threshold densities for a given dual variable.

    With load exponent y = d3 pi lambda x (nats), h = alpha/2 and
    E = 1 - e^-y, a Pt = mu y E / (d3 (hE + y)) on the stationary curve.
    The BS switches on where L falls below the sleep power Ps.  lambda1
    (L = Ps) solves y - yE/(hE + y) = d3 (Pc - Ps) / mu; lambda2 (P = Pmax)
    solves yE/(hE + y) = d3 (Pmax - Pc) / mu, and is inf once the right
    side reaches 1.  Both left sides rise with y; each is solved by Newton
    in log y (``bracketed_newton``, on Python floats) inside a bracket from
    its asymptotes.  lambda3 (P = Pmax and L = Ps on the capped curve) is
    at y3 = d3 (Pmax - Ps) / mu.  As x = y / (d3 pi lambda), each curve's
    law (``_stationary_law``, ``_cap_law``) at x = y / (d3 pi), qp = d3 pi
    and its right side at lambda = 1 reads h log lambda, which is reported
    as its value (``CriticalDensities.from_logs``).
    """
    _check_mu(mu)
    c = derive_constants(p)
    h = 0.5 * p.pathloss_exp
    pc, pmax, ps = p.static_power, p.max_bs_power, p.sleep_power

    def log_load(s, cap, log_r):
        # log of either left side at y = e^s minus log_r, and its slope in
        # s; w = E - y e^-y >= 0 keeps both slopes free of cancellation
        y = math.exp(s)
        em = -math.expm1(-y)
        t = h * em + y
        ye = y * math.exp(-y)
        w = em - ye
        if cap:
            return (math.log(em) - math.log1p(h * em / y) - log_r,
                    ye / em + h * w / t)
        return s + math.log1p(-em / t) - log_r, 1.0 + y / t * (w / (t - em))

    def solve_log_y(cap, r, seed, other):
        # y at the root; Newton starts from the seed, which lies above the
        # root for lambda1 and below it for lambda2
        log_r = math.log(r)
        s0 = math.log(seed)
        g0, slope0 = log_load(s0, cap, log_r)
        if (g0 >= 0.0) == cap:  # on the wrong side by rounding: at the root
            return seed
        good, bad = (math.log(other), s0) if cap else (s0, math.log(other))
        # the first step, aimed past the root as ``bracketed_newton`` aims
        # its own, so that a seed at the root does not fall back to halving
        return math.exp(bracketed_newton(
            lambda v: log_load(v, cap, log_r), good, bad,
            s0 - g0 / slope0 + math.copysign(0.5 * THRESHOLD_TOL, good - bad),
            THRESHOLD_TOL))

    d3pi, a_d1 = c.d3 * math.pi, p.amp_scaling * c.d1

    def read(law, y, log_rhs):  # log lambda; y is inf at a subnormal mu
        return (law(y / d3pi, d3pi, log_rhs, h)[0] / h if y < math.inf
                else math.inf)

    # right sides d3 (Pc - Ps) / mu, d3 (Pmax - Pc) / mu; the left sides lie
    # between y h/(h+1) or y - 1 and y (lambda1), and between
    # y/(h+1+y) and y/(h+1) or y/(h+y) (lambda2), which bracket each root
    r1, r2 = c.d3 * (pc - ps) / mu, c.d3 * (pmax - pc) / mu
    log_lam = [-math.inf, math.inf]  # lambda1 = 0, lambda2 = inf unless solved
    log_on = math.log(mu * math.pi / a_d1)
    if r1 > 0.0:  # else Pc = Ps and the BS is always on
        log_lam[0] = read(_stationary_law, solve_log_y(
            False, r1, min(r1 * (h + 1.0) / h, r1 + 1.0), r1), log_on)
    if r2 < 1.0:  # else the stationary point never reaches the cap
        log_lam[1] = read(_stationary_law, solve_log_y(
            True, r2, max(r2 * (h + 1.0), h * r2 / (1.0 - r2)),
            r2 * (h + 1.0) / (1.0 - r2)), log_on)
    log_lam.append(read(_cap_law, c.d3 * (pmax - ps) / mu,
                        math.log((pmax - pc) / a_d1)))
    return CriticalDensities.from_logs(*log_lam)


# --- closed forms under the high-spectrum-efficiency approximation ---------

def hse_x1(density, mu: float, p: SystemParams):
    """Closed-form stationary point when the per-cell load exponent is large."""
    _check_mu(mu)
    c = derive_constants(p)
    return _curve_x(density, c.d3 * math.pi,
                    mu / (p.amp_scaling * c.d1 * c.d3), 0.5 * p.pathloss_exp,
                    ("mu", mu))


def hse_x2(density, p: SystemParams):
    """Closed-form power-capped point when the load exponent is large."""
    c = derive_constants(p)
    pt_max = (p.max_bs_power - p.static_power) / p.amp_scaling
    return _curve_x(density, c.d3 * math.pi, pt_max / c.d1,
                    0.5 * p.pathloss_exp,
                    ("share", p.max_bs_power - p.static_power))


def hse_critical_densities(mu: float, p: SystemParams) -> CriticalDensities:
    """Closed-form threshold densities; each strictly decreasing in mu.

    ``critical_densities``' reads of h log lambda, on the laws with the -1
    dropped, h log x + qp x = log r (``_curve_x``), at its r1, r2 and y3
    and closed-form y1 = 1 + r1, y2 = h r2 / (1 - r2) (inf from r2 = 1).
    """
    _check_mu(mu)
    c = derive_constants(p)
    h, d3pi = 0.5 * p.pathloss_exp, c.d3 * math.pi
    pc, pmax, ps = p.static_power, p.max_bs_power, p.sleep_power
    r1, r2 = c.d3 * (pc - ps) / mu, c.d3 * (pmax - pc) / mu
    log_r = -math.log(p.amp_scaling * c.d1 * c.d3 / mu)
    reads = ((1.0 + r1, log_r),
             (h * r2 / (1.0 - r2) if r2 < 1.0 else math.inf, log_r),
             (c.d3 * (pmax - ps) / mu,
              math.log((pmax - pc) / (p.amp_scaling * c.d1))))
    return CriticalDensities.from_logs(
        *((h * math.log(y / d3pi) + y - lr) / h for y, lr in reads))


# --- policy tabulation and the outer dual search ----------------------------

@dataclass(frozen=True)
class AdaptationPolicy:
    """Density -> (radius, consumption) map for one dual variable.

    ``mu`` and its thresholds ``criticals`` set the policy.  Its table
    (``lambdas``, ``radii``, ``powers``, ``rows()``) is output only and is
    built when one of them is first read: a uniform grid of
    ``POLICY_GRID`` densities on [0, lambda_max], each threshold inside it
    and the density just above each threshold.
    """

    mu: float
    criticals: CriticalDensities
    mode: str  # "exact" or "hse"
    lambda_max: float
    params: SystemParams

    @cached_property
    def _table(self) -> tuple:
        inner = _breakpoints(self.criticals, self.lambda_max)
        lams = np.sort(np.concatenate([
            np.linspace(0.0, self.lambda_max, POLICY_GRID), inner,
            np.nextafter(inner, self.lambda_max)]))
        # np.unique would do, but its first call imports numpy.ma
        lams = lams[np.insert(lams[1:] != lams[:-1], 0, True)]
        xs, _ = _policy_x(lams, self.mu, self.criticals, self.params,
                          self.mode)
        return lams, np.sqrt(xs), bs_power_x(xs, lams, self.params)

    @property
    def lambdas(self) -> np.ndarray:
        return self._table[0]

    @property
    def radii(self) -> np.ndarray:
        return self._table[1]

    @property
    def powers(self) -> np.ndarray:
        return self._table[2]

    @property
    def case_tag(self) -> str:
        return self.criticals.case_tag

    @property
    def breakpoints(self) -> Tuple[float, ...]:
        return tuple(_breakpoints(self.criticals, self.lambda_max))

    def radius_at(self, density):
        """Radius at ``density`` from the per-density kernels; elementwise.

        Off at or below the cut-off.  The table (``lambdas``, ``radii``,
        ``powers``) is output only: this does not interpolate it.
        """
        shape, lams = as_densities(density)
        xs, _ = _policy_x(lams, self.mu, self.criticals, self.params,
                          self.mode)
        return shaped(np.sqrt(xs), shape)

    def rows(self):
        for lam, r, pw in zip(self.lambdas, self.radii, self.powers):
            yield float(lam), float(r), float(pw)

    def summary(self) -> dict:
        def enc(v):
            return None if math.isinf(v) else v
        return {
            "mu": enc(self.mu),
            "mode": self.mode,
            "case_tag": self.case_tag,
            "lambda1": enc(self.criticals.lambda1),
            "lambda2": enc(self.criticals.lambda2),
            "lambda3": enc(self.criticals.lambda3),
            "lambda_max": self.lambda_max,
        }


def _regimes(lams: np.ndarray, crits: CriticalDensities) -> tuple:
    """Masks of the stationary and the power-capped densities in ``lams``.

    Off at or below the switch-on cut-off; then, in case A, the stationary
    point up to lambda2; the power-capped point above.
    """
    on = lams > max(crits.on_cutoff, 0.0)
    stationary = on & (lams <= crits.lambda2) if crits.case_tag == CASE_A \
        else np.zeros_like(on)
    return stationary, on & ~stationary


def _policy_x(lams: np.ndarray, mu: float, crits: CriticalDensities,
              p: SystemParams, mode: str = "exact") -> tuple:
    """x = R^2 of the policy with thresholds ``crits``, by regime, and the
    mask of the stationary densities in ``lams``.

    ``mode="hse"`` takes both points from their closed forms.
    """
    xs = np.zeros_like(lams)
    stationary, capped = _regimes(lams, crits)
    x1_fn, x2_fn = (x1_star, x2_star) if mode == "exact" else (hse_x1, hse_x2)
    if stationary.any():
        xs[stationary] = x1_fn(lams[stationary], mu, p)
    if capped.any():
        xs[capped] = x2_fn(lams[capped], p)
    return xs, stationary


POLICY_GRID = 2048  # uniform grid of a policy table


def policy_for_mu(mu: float, p: SystemParams, lambda_max: float,
                  mode: str = "exact") -> AdaptationPolicy:
    """The per-density minimizer at ``mu``: its thresholds, and a table
    built when first read.  Off everywhere at mu <= 0, at the cap everywhere
    at mu = inf."""
    if mode not in ("exact", "hse"):
        raise ValueError(f"mode must be 'exact' or 'hse', got {mode}")
    if mu <= 0.0:
        crits = CriticalDensities(math.inf, math.inf, math.inf)
    elif mu == math.inf:
        crits = CriticalDensities(0.0, 0.0, 0.0)
    elif mode == "exact":
        crits = critical_densities(mu, p)
    else:
        crits = hse_critical_densities(mu, p)
    return AdaptationPolicy(mu, crits, mode, lambda_max, p)


def _breakpoints(crits: CriticalDensities, lambda_max: float) -> list:
    return sorted({c for c in (crits.lambda1, crits.lambda2, crits.lambda3)
                   if 0.0 < c < lambda_max})


def _avg_throughput(mu: float, dist: DensityDistribution,
                    p: SystemParams) -> tuple:
    """One dual evaluation: u(mu), its exact slope du/dmu, and the state used.

    u is the long-term throughput E[pi lambda x] of the exact policy at
    ``mu``; the state is (thresholds, the rule split at them, x at its
    nodes and then at lambda_max), from which ``solve`` reports the metrics
    of its final mu.  x at lambda_max, and x just above the switch-on
    cut-off lambda_on when 0 < lambda_on < lambda_max, ride on the one
    kernel call.  The slope has two terms.  On the stationary segment x1*
    solves log Pt'(x) = log(mu pi lambda / (a d1)), so dx1*/dmu =
    x1* / (mu s), with s the log-x slope of the left side at x1*; the
    capped point does not move with mu.  The cut-off moves, which adds
    -pi lambda_on x(lambda_on+) f(lambda_on) dlambda_on/dmu.  There L = Ps,
    and either dL/dx = 0 (case A) or x is the capped point (case B), so in
    both cases d log lambda_on / d log mu = -(1 + y / (h E)), with
    y = d3 pi lambda_on x(lambda_on+), h = alpha/2 and E = 1 - e^-y, and
    the term is (y / d3) (1 + y / (h E)) f(lambda_on) lambda_on / mu.
    x is continuous at lambda2, which adds nothing.
    """
    m = dist.lambda_max
    crits = critical_densities(mu, p)
    rule = gauss_legendre(dist, 0.0, m, _breakpoints(crits, m))
    lams = rule.nodes
    n = lams.size
    cut = crits.on_cutoff
    inside = 0.0 < cut < m
    ends = [m, np.nextafter(cut, m)] if inside else [m]
    x_ends, stationary = _policy_x(np.append(lams, ends), mu, crits, p)
    x_all, x, stationary = x_ends[:n + 1], x_ends[:n], stationary[:n]
    d3, h = derive_constants(p).d3, 0.5 * p.pathloss_exp
    dx = np.zeros_like(x)
    if stationary.any():
        lam, xs = lams[stationary], x[stationary]
        _, s = _stationary_law(xs, d3 * math.pi * lam, 0.0, h)
        dx[stationary] = xs / (mu * s)
    slope = rule.integrate(math.pi * lams * dx)
    if inside:
        y = d3 * math.pi * cut * float(x_ends[-1])
        slope += (y / d3 * (1.0 + y / (h * -math.expm1(-y))) * dist.pdf(cut)
                  * cut / mu)
    return rule.integrate(math.pi * lams * x), slope, (crits, rule, x_all)


@dataclass(frozen=True)
class Problem:
    """One long-term power control problem, a density distribution and the
    system params, and what the pair fixes: the policy at the cap
    everywhere, built when first read.  ``solve``, the schemes and
    ``max_achievable_throughput`` take one as ``dist``, with no ``p``."""

    dist: DensityDistribution
    params: SystemParams

    @cached_property
    def cap_tail(self) -> tuple:
        """``solve``'s state at the cap: the rule on [0, lambda_max] and
        x2_star on its nodes, then at lambda_max (one call); read-only."""
        rule = gauss_legendre(self.dist, 0.0, self.dist.lambda_max)
        x = x2_star(np.append(rule.nodes, self.dist.lambda_max), self.params)
        for a in (rule.nodes, rule.weights, x):
            a.flags.writeable = False
        return rule, x

    @cached_property
    def cap(self) -> float:
        """Throughput at the cap everywhere: ``solve``'s and ARw's bound."""
        rule, x = self.cap_tail
        return rule.integrate(math.pi * rule.nodes * x[:-1])

    @property
    def x_cap(self) -> float:
        """The most x within the cap at lambda_max; FRw's bound is its
        reach at every density, pi x_cap T1(0) (``frw_cap``)."""
        return float(self.cap_tail[1][-1])

    @property
    def frw_cap(self) -> float:
        rule = self.cap_tail[0]
        return math.pi * self.x_cap * rule.integrate(rule.nodes)

    def check(self, u_avg: float, cap: Optional[float] = None) -> None:
        """ValueError unless ``u_avg`` is finite and positive;
        InfeasibleError above ``cap``, by default ``self.cap``."""
        cap = self.cap if cap is None else cap
        if not (math.isfinite(u_avg) and u_avg > 0.0):
            raise ValueError(f"u_avg must be finite and positive, got {u_avg}")
        if cap < u_avg:
            raise InfeasibleError(u_avg, cap)


def max_achievable_throughput(dist, p: Optional[SystemParams] = None) -> float:
    """Long-term throughput of the always-at-cap policy (the feasibility
    bound) of (``dist``, ``p``), or of the Problem ``dist``."""
    return (dist if p is None else Problem(dist, p)).cap


# the dual search stops within this distance in log mu
DUAL_TOL = 1e-13


def solve(u_avg: float, dist, p: Optional[SystemParams] = None,
          mode: str = "exact") -> Tuple[AdaptationPolicy, PolicyMetrics]:
    """Minimize long-term consumption subject to a long-term throughput floor
    on (``dist``, ``p``), or on the Problem ``dist``.

    A floor at the cap, the feasibility bound (``Problem.cap``), is met
    only by the policy at the cap everywhere, mu = inf: its state is the
    cap tail (``Problem.cap_tail``), with no dual evaluation.  Below the
    cap the dual variable mu is bracketed by a gallop from 1 (below 1,
    down to the least normal float, unevaluated: u(0) = 0 is below every
    target): mu doubles to 64, then its step in
    log mu doubles up to 2^261, where u is flat; a floor not met there is
    within rounding of the cap, and the cap state meets it.  Else mu is
    found by Newton steps in t = log mu on
    H(t) = log(cap - ``u_avg``) - log(cap - u(mu)).  Near the cap, cap - u
    falls like a power of mu, so H is close to linear in t; at low load H
    is close to (u - ``u_avg``) / (cap - ``u_avg``).  H >= 0 exactly when
    u >= ``u_avg``, and its slope mu du/dmu / (cap - u) comes from the
    exact du/dmu of each dual evaluation (``_avg_throughput``); where u
    reaches the cap by rounding, H is inf and carries no slope.  The steps
    are safeguarded by the bracket (``bracketed_newton``) and start from
    the bracket end nearer the floor, to within ``DUAL_TOL`` in log mu.
    The result is an evaluated mu on the floor's satisfied side, or the cap
    state, so the reported throughput is never below ``u_avg``.  That
    state's thresholds, rule and x give the policy and the reported
    metrics, so none is computed twice and no kernel runs after the search
    (``_state_metrics``); the policy builds its table only when read.
    """
    if mode not in ("exact", "hse"):
        raise ValueError(f"mode must be 'exact' or 'hse', got {mode}")
    problem = dist if p is None else Problem(dist, p)
    dist, p, cap = problem.dist, problem.params, problem.cap
    problem.check(u_avg)
    # (mu, state) of the latest evaluation with u >= u_avg; at first the cap's
    satisfied = [math.inf, (CriticalDensities(0.0, 0.0, 0.0),
                            *problem.cap_tail)]

    def gap(mu: float) -> tuple:
        """H and its slope in log mu."""
        u, slope, state = _avg_throughput(mu, dist, p)
        if u >= u_avg:
            satisfied[:] = [mu, state]
        room = cap - u
        if room <= 0.0:  # u at the cap by rounding
            return math.inf, 0.0
        # log1p keeps H's sign that of u - u_avg, whatever the rounding;
        # where the ratio rounds to -1, u is far below u_avg < cap
        ratio = (u - u_avg) / room
        return (math.log1p(ratio) if ratio > -1.0
                else math.log((cap - u_avg) / room),
                None if slope is None else mu * slope / room)

    if u_avg < cap:
        lo, h_lo, s_lo, hi = sys.float_info.min, -math.inf, 0.0, 1.0
        h_hi, s_hi = gap(hi)
        while h_hi < 0.0 and hi < 2.0 ** 261:
            lo, h_lo, s_lo = hi, h_hi, s_hi
            hi = 2.0 * hi if hi < 64.0 else hi * hi / 32.0
            h_hi, s_hi = gap(hi)
        if h_hi >= 0.0:
            # Newton's first step from the end nearer the floor, else from
            # the other; with neither inside, bracketed_newton halves
            t_lo, t_hi = math.log(lo), math.log(hi)
            ends = sorted([(t_lo, h_lo, s_lo), (t_hi, h_hi, s_hi)],
                          key=lambda end: abs(end[1]))
            starts = [t - h / s if s else math.nan for t, h, s in ends]
            bracketed_newton(lambda t: gap(math.exp(t)), t_hi, t_lo,
                             next((t for t in starts if t_lo < t < t_hi),
                                  math.nan), DUAL_TOL)
    # the latest evaluated mu with H >= 0, else the cap state (mu = inf)
    mu, state = satisfied
    policy = AdaptationPolicy(mu, state[0], mode, dist.lambda_max, p) \
        if mode == "exact" else policy_for_mu(mu, p, dist.lambda_max, mode)
    return policy, _state_metrics(state, policy, p)


def _state_metrics(state: tuple, policy: AdaptationPolicy,
                   p: SystemParams) -> PolicyMetrics:
    """Metrics of ``policy`` from the state of ``solve``'s last evaluation.

    The averages and the on-probability (the mass of the nodes served, as
    ``metrics.evaluate`` sums it) integrate the exact policy's x on the
    state's rule (ROADMAP known defect: in hse mode too).  Along the exact
    policy consumption rises with the density, so its peak is the
    consumption at lambda_max, from the state's last x (Ps when the policy
    is off there).  The hse peak is the largest consumption in its table,
    whose grid holds each threshold and the density just above: ``hse_x2``
    overshoots the cap, so the rise is not assured there.
    """
    _, rule, x_all = state
    x = x_all[:-1]
    peak = bs_power_x(x_all[-1], policy.lambda_max, p) \
        if policy.mode == "exact" else float(policy.powers.max())
    return PolicyMetrics(
        avg_power_w=rule.integrate(bs_power_x(x, rule.nodes, p)),
        avg_users=rule.integrate(math.pi * rule.nodes * x),
        on_probability=min(rule.integrate(x > 0.0), 1.0),
        peak_bs_power_w=peak)
