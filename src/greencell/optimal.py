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
from .numerics import (QuadratureRule, as_arrays, as_densities,
                       bracketed_newton, by_runs, gauss_legendre, joined,
                       lockstep, newton_search, shaped)
# bound here for perfbench/selftest.py, which checks its tracer rebinds it
from .numerics import expect  # noqa: F401
from .params import SystemParams, derive_constants
from .scaling import (_cap_law, _curve_x, _stationary_law, _stationary_slope,
                      bs_power_x, max_range_x, transmit_power_x)
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


def x1_star(density, mu, p: SystemParams):
    """Interior stationary point, elementwise over densities, and over
    prices where ``mu`` is an array: the unique positive root of dL/dx = 0,
    a Pt'(x) = mu pi lambda, which is that of ``_stationary_law``
    (``_curve_x``).  Pt'(x) rises from 0 at x = 0+ (alpha > 2) without
    bound.  Each price's scalars are formed once (``by_runs``), so a
    density gets the same bits in a call over many prices as alone."""
    c = derive_constants(p)
    a_d1 = p.amp_scaling * c.d1
    h = 0.5 * p.pathloss_exp

    def scalars(mu: float) -> tuple:  # mu pi, log(mu pi / a d1), r^(1/h)
        _check_mu(mu)
        return (mu * math.pi, math.log(mu) + math.log(math.pi / a_d1),
                (mu / (a_d1 * c.d3)) ** (1.0 / h))

    shape, lam = None, density
    if isinstance(mu, np.ndarray):
        shape, (lam, mu) = as_arrays(density, mu)
    mu_pi, log_on, root = by_runs(mu, scalars)

    def log_rhs(lam):  # in parts where a product is not a normal float
        tiny = sys.float_info.min
        mu_pi_lam = mu_pi * lam
        v = mu_pi_lam / a_d1
        normal = ((mu_pi >= tiny) & (mu_pi_lam >= tiny) & (v >= tiny)
                  & (v < math.inf))
        return np.where(normal, np.log(v), log_on + np.log(lam))
    x = _curve_x(lam, c.d3 * math.pi, root, h, ("mu", mu), _stationary_law,
                 log_rhs)
    return x if shape is None else shaped(x, shape)


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
    h = 0.5 * p.pathloss_exp
    return _curve_x(density, c.d3 * math.pi,
                    (mu / (p.amp_scaling * c.d1 * c.d3)) ** (1.0 / h), h,
                    ("mu", mu))


def hse_x2(density, p: SystemParams):
    """Closed-form power-capped point when the load exponent is large."""
    c = derive_constants(p)
    pt_max = (p.max_bs_power - p.static_power) / p.amp_scaling
    h = 0.5 * p.pathloss_exp
    return _curve_x(density, c.d3 * math.pi, (pt_max / c.d1) ** (1.0 / h), h,
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
        xs, _ = _policy_x([lams], [self.mu], [self.criticals], self.params,
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
        xs, _ = _policy_x([lams], [self.mu], [self.criticals], self.params,
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


def _policy_x(lams: list, mus: list, crits: list, p: SystemParams,
              mode: str = "exact", x2=None) -> tuple:
    """x = R^2 of the policy at each price ``mus[k]``, thresholds
    ``crits[k]``, at its densities ``lams[k]``, and the mask of the
    stationary densities, each over the densities end to end (``joined``).
    One call of each kernel serves every price.

    By regime: off at or below the switch-on cut-off; then, in case A, the
    stationary point up to lambda2; the power-capped point above, from
    ``x2(densities, p)``, by default ``x2_star``.  ``mode="hse"`` takes
    both points from their closed forms.
    """
    lam = joined(lams)
    on = lam > _per_node([max(c.on_cutoff, 0.0) for c in crits], lams)
    stationary = on & (lam <= _per_node([
        c.lambda2 if c.case_tag == CASE_A else -math.inf for c in crits],
        lams))
    capped = on & ~stationary
    x = np.zeros_like(lam)
    x1_fn, x2_fn = (x1_star, x2 or x2_star) if mode == "exact" \
        else (hse_x1, hse_x2)
    if np.count_nonzero(stationary):
        x[stationary] = x1_fn(lam[stationary],
                              _per_node(mus, lams, stationary), p)
    if np.count_nonzero(capped):
        x[capped] = x2_fn(lam[capped], p)
    return x, stationary


def _per_node(values: list, parts: list, mask=None):
    """One value per part, repeated over the part's densities (at
    ``mask``, if given); a single part's value stays a float."""
    if len(values) == 1:
        return values[0]
    out = np.repeat(values, [a.size for a in parts])
    return out if mask is None else out[mask]


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


@dataclass(frozen=True)
class DualState:
    """One dual evaluation, which ``solve`` keeps and reports: the exact
    policy at ``mu``, with x at the nodes of ``rule`` on [0, lambda_max],
    split at the thresholds ``criticals``, and ``x_end`` at lambda_max from
    one kernel call; ``users`` = E[pi lambda x] on the rule and ``slope`` =
    du/dmu (None if unknown).  ``metrics`` reads the same x, with no kernel
    call and in hse mode too (ROADMAP known defect).  The on-probability is
    the mass of the nodes served, as ``metrics.evaluate`` sums it.  Exact
    consumption rises with the density, so the peak is at ``x_end`` (Ps if
    off).  The hse peak is the largest in its table, which holds each
    threshold and the density just above: ``hse_x2`` overshoots the cap."""

    mu: float
    users: float
    slope: Optional[float]
    criticals: CriticalDensities
    rule: QuadratureRule
    x: np.ndarray
    x_end: float

    def metrics(self, policy: AdaptationPolicy) -> PolicyMetrics:
        """The metrics of ``policy``, the policy at ``mu``."""
        p, rule, x = policy.params, self.rule, self.x
        peak = bs_power_x(self.x_end, policy.lambda_max, p) \
            if policy.mode == "exact" else float(policy.powers.max())
        return PolicyMetrics(rule.integrate(bs_power_x(x, rule.nodes, p)),
                             self.users, min(rule.integrate(x > 0.0), 1.0),
                             peak)


def _avg_throughput(mus: list, dist: DensityDistribution, p: SystemParams,
                    x2=None) -> list:
    """The ``DualState`` of each price of ``mus``, each on its own
    thresholds and rule, from one ``_policy_x`` call (``x2`` as there) and
    so one call of each kernel.  x just above the switch-on cut-off
    lambda_on, when 0 < lambda_on < lambda_max, rides on it.
    The slope has two terms.  On the stationary segment x1* solves
    log Pt'(x) = log(mu pi lambda / (a d1)), so dx1*/dmu = x1* / (mu s),
    with s the log-x slope of the left side at x1*; the capped point does
    not move with mu.  The cut-off moves, which adds
    -pi lambda_on x(lambda_on+) f(lambda_on) dlambda_on/dmu.  There L = Ps,
    and either dL/dx = 0 (case A) or x is the capped point (case B), so in
    both cases d log lambda_on / d log mu = -(1 + y / (h E)), with
    y = d3 pi lambda_on x(lambda_on+), h = alpha/2 and E = 1 - e^-y, and
    the term is (y / d3) (1 + y / (h E)) f(lambda_on) lambda_on / mu.
    x is continuous at lambda2, which adds nothing.
    """
    m = dist.lambda_max
    crits = [critical_densities(v, p) for v in mus]
    rules = [gauss_legendre(dist, 0.0, m, _breakpoints(c, m)) for c in crits]
    cuts = [c.on_cutoff if 0.0 < c.on_cutoff < m else None for c in crits]
    # each price's nodes, then lambda_max and the density just above its
    # cut-off, end to end
    parts = [np.append(rule.nodes, [m] if cut is None
                       else [m, np.nextafter(cut, m)])
             for rule, cut in zip(rules, cuts)]
    x, stationary = _policy_x(parts, mus, crits, p, x2=x2)
    lam, starts, a = joined(parts), [], 0
    for rule, part in zip(rules, parts):
        starts.append(a)
        stationary[a + rule.nodes.size:a + part.size] = False  # the ends
        a += part.size
    d3, h = derive_constants(p).d3, 0.5 * p.pathloss_exp
    dx = np.zeros_like(x)
    if np.count_nonzero(stationary):
        xs = x[stationary]
        *_, s = _stationary_slope(xs, d3 * math.pi * lam[stationary], h)
        dx[stationary] = xs / (_per_node(mus, parts, stationary) * s)
    users, slopes = math.pi * lam * x, math.pi * lam * dx
    inside = [cut for cut in cuts if cut is not None]
    pdf_cuts = iter(dist.pdf(np.array(inside)).tolist() if inside else ())
    states = []
    for v, c, rule, cut, a in zip(mus, crits, rules, cuts, starts):
        n = rule.nodes.size
        slope = rule.integrate(slopes[a:a + n])
        if cut is not None:
            y = d3 * math.pi * cut * float(x[a + n + 1])
            slope += (y / d3 * (1.0 + y / (h * -math.expm1(-y)))
                      * next(pdf_cuts) * cut / v)
        states.append(DualState(v, rule.integrate(users[a:a + n]), slope, c,
                                rule, x[a:a + n], float(x[a + n])))
    return states


@dataclass(frozen=True)
class Problem:
    """One long-term power control problem, a density distribution and the
    system params, and what the pair fixes: the policy at the cap
    everywhere, built when first read.  ``solve``, the schemes and
    ``max_achievable_throughput`` take one as ``dist``, with no ``p``."""

    dist: DensityDistribution
    params: SystemParams

    @cached_property
    def cap_state(self) -> DualState:
        """The ``DualState`` at mu = inf, the cap everywhere: every
        threshold 0, on the unsplit rule; its arrays are read-only."""
        rule = gauss_legendre(self.dist, 0.0, self.dist.lambda_max)
        x = x2_star(np.append(rule.nodes, self.dist.lambda_max), self.params)
        for a in (rule.nodes, rule.weights, x):
            a.flags.writeable = False
        u = rule.integrate(math.pi * rule.nodes * x[:-1])
        return DualState(math.inf, u, 0.0, CriticalDensities(0.0, 0.0, 0.0),
                         rule, x[:-1], float(x[-1]))

    @cached_property
    def mu0(self) -> float:
        """The switch-on price: at mu <= mu0 every policy is off and u = 0.
        It is the least watts per served user at lambda_max,
        (a Pt(x, lambda_max) + Pc - Ps) / (pi lambda_max x) over
        0 < x <= ``x_cap``, and 0 when Pc = Ps.  With y = d3 pi lambda_max x,
        h = alpha/2 and E = 1 - e^-y, the ratio's stationary point solves
        A y^h e^y (y + (h - 1) E) = Pc - Ps, A = a d1 / (d3 pi lambda_max)^h,
        whose log is convex and increasing in log y.  As h y <= y + (h - 1) E
        <= h y e^y, the root lies below where A h y^(h+1) reaches Pc - Ps,
        and, once log((Pc - Ps) / A) >= 1, below y = log((Pc - Ps) / A);
        Newton in log y (``bracketed_newton``) descends onto it from there.
        The ratio falls up to that point, so past ``x_cap`` it is read at
        ``x_cap``."""
        p, m = self.params, self.dist.lambda_max
        room = p.static_power - p.sleep_power
        if room == 0.0:
            return 0.0
        c = derive_constants(p)
        h, qp = 0.5 * p.pathloss_exp, c.d3 * math.pi * m
        log_r = math.log(room / (p.amp_scaling * c.d1)) + h * math.log(qp)

        def law(s):  # log of the left side over A, less log_r; slope in s
            y = math.exp(s)
            t = y - (h - 1.0) * math.expm1(-y)
            return h * s + y + math.log(t) - log_r, h + y * (h + y) / t

        s_small = (log_r - math.log(h)) / (h + 1.0)
        s = min(s_small, math.log(log_r)) if log_r >= 1.0 else s_small
        g, slope = law(s)
        if g > 0.0:  # else at the root by rounding
            s = bracketed_newton(law, s, s_small - math.exp(s) / (h + 1.0),
                                 s - g / slope, THRESHOLD_TOL)
        x = min(math.exp(s) / qp, self.x_cap)
        return ((p.amp_scaling * float(transmit_power_x(x, m, p)) + room)
                / (math.pi * m * x))

    @property
    def cap(self) -> float:
        """Throughput at the cap everywhere: ``solve``'s and ARw's bound."""
        return self.cap_state.users

    @property
    def x_cap(self) -> float:
        """The most x within the cap at lambda_max; FRw's bound is its
        reach at every density, pi x_cap T1(0) (``frw_cap``)."""
        return self.cap_state.x_end

    @property
    def frw_cap(self) -> float:
        rule = self.cap_state.rule
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


# the dual search stops within this distance in log mu, and its bracket
# within this in t = log(mu - mu0)
DUAL_TOL = 1e-13
# prices this close in log mu are not told apart: u's rounding, mostly the
# thresholds' (THRESHOLD_TOL in log y), moves u by up to about half as much
DUAL_GRAIN = 3e-15
# the first price is mu0 (1 + DUAL_FIRST), or 1 where mu0 = 0
DUAL_FIRST = 0.3


def solve(u_avg: float, dist, p: Optional[SystemParams] = None,
          mode: str = "exact") -> Tuple[AdaptationPolicy, PolicyMetrics]:
    """Minimize long-term consumption subject to a long-term throughput floor
    on (``dist``, ``p``), or on the Problem ``dist``.

    A floor at the cap, the feasibility bound (``Problem.cap``), is met
    only by the policy at the cap everywhere, mu = inf: its state is
    ``Problem.cap_state``, with no dual evaluation.  So is a floor within an
    ulp of the cap: there a dual evaluation, on the rule split at the
    thresholds, rounds 1-2 ulps below the cap state's throughput, and
    whether a finite mu meets the floor is left to rounding.

    Below that, the dual variable mu is searched above the switch-on price
    ``Problem.mu0``, where every policy is off (u = 0 there is below every
    target, and no price at or below mu0 is evaluated), in
    t = log(mu - mu0), on H = log1p((u - ``u_avg``) / ``u_avg``)
    + log1p((u - ``u_avg``) / (cap - u)), which is logit(u / cap) -
    logit(``u_avg`` / cap).  Near mu0, u grows like a power of mu - mu0,
    and near the cap, cap - u falls like a power of mu, so H is close to
    linear in t at both ends.  H >= 0 exactly when u >= ``u_avg``, and its
    slope (mu - mu0) du/dmu (1/u + 1/(cap - u)) comes from the exact
    du/dmu of each dual evaluation (``_avg_throughput``); where u reaches
    the cap by rounding, H is inf and carries no slope.

    A gallop in mu - mu0 brackets the floor: from ``DUAL_FIRST`` mu0 (1
    where mu0 = 0) it doubles to 64, then its step in log doubles, or it
    takes Newton's step in t where that is longer, up to mu = 2^261, where
    u is flat; a floor not met there is within rounding of the cap, and the
    cap state meets it.  Then Newton steps in t start from the bracket end
    nearer the floor, safeguarded by the bracket (``bracketed_newton``'s
    search, to ``DUAL_TOL`` in t), which they halve where a step is not
    half the one two points before.  They stop at a u on the floor's side
    whose Newton step is within ``DUAL_TOL`` in log mu and 10 ``DUAL_TOL``
    in t, or once mu is resolved: a price nearer than ``DUAL_GRAIN`` in log
    mu to an end of the bracket moves that far inside it, and the search
    ends where no such price is left, at a Newton step within
    ``DUAL_GRAIN``, or once both ends of the bracket are within 2 ulps of
    the floor.  The result is the last evaluated state on the floor's
    satisfied side, or the cap state, so the reported throughput is never
    below ``u_avg``, and the policy and metrics read it: no kernel runs
    after the search.  ``numerics.lockstep`` runs the search (``_solved``),
    each round one ``_avg_throughput`` call; many targets go through
    ``suboptimal.solve_many(["optimal"], ...)``, as ``sweep``'s do.
    """
    if mode not in ("exact", "hse"):
        raise ValueError(f"mode must be 'exact' or 'hse', got {mode}")
    problem = dist if p is None else Problem(dist, p)
    # looked up each round, so that a rebinding of it applies
    out, = lockstep([_solved(u_avg, problem, mode)], lambda mus:
                    _avg_throughput(mus, problem.dist, problem.params))
    if isinstance(out, Exception):
        raise out
    return out


def _solved(u_avg: float, problem: Problem, mode: str = "exact"):
    """``solve`` at one target as a search (``_dual_search``), which
    returns the policy at the state it keeps and that state's metrics."""
    state = yield from _dual_search(u_avg, problem)
    dist, p = problem.dist, problem.params
    policy = AdaptationPolicy(state.mu, state.criticals, mode,
                              dist.lambda_max, p) if mode == "exact" \
        else policy_for_mu(state.mu, p, dist.lambda_max, mode)
    return policy, state.metrics(policy)


def _dual_search(u_avg: float, problem: Problem):
    """``solve``'s search at one target, as a generator: it yields each
    price to evaluate, is sent its ``DualState``, and returns the state
    that meets the floor, the cap state at the cap."""
    dist, p, cap = problem.dist, problem.params, problem.cap
    problem.check(u_avg)
    mu0 = problem.mu0
    # the latest evaluation with u >= u_avg, at first the cap's, and the
    # greatest price with u < u_avg and its u, at first mu0 (or the least
    # normal float) and 0
    state, below, u_below = problem.cap_state, mu0 or sys.float_info.min, 0.0
    tie = 2.0 * math.ulp(u_avg)  # u this near u_avg is u_avg within rounding

    def gap(mu: float) -> tuple:
        """H at mu, or at the nearest price DUAL_GRAIN inside the bracket,
        and its slope in t; or (0, None), which ends the search, once mu is
        resolved."""
        nonlocal state, below, u_below
        lo, hi = below * (1.0 + DUAL_GRAIN), state.mu * (1.0 - DUAL_GRAIN)
        if not lo < hi:
            return 0.0, None
        at = yield min(max(mu, lo), hi)
        u, mu = at.users, at.mu
        if u < u_avg:
            below, u_below = mu, u
        else:
            state = at
        if state.users - u_avg <= tie and u_avg - u_below <= tie:
            return 0.0, None
        room = cap - u
        if room <= 0.0:  # u at the cap by rounding
            return math.inf, 0.0
        if u <= 0.0:  # off everywhere by rounding
            return -math.inf, 0.0
        # each log1p keeps its sign that of u - u_avg, whatever the
        # rounding; where a ratio rounds to -1, u is far below u_avg
        low, high = (u - u_avg) / u_avg, (u - u_avg) / room
        h = ((math.log1p(low) if low > -1.0
              else math.log(u) - math.log(u_avg))
             + (math.log1p(high) if high > -1.0
                else math.log((cap - u_avg) / room)))
        if at.slope is None:
            return h, None
        d = mu - mu0
        slope = d * at.slope * (1.0 / u + 1.0 / room)
        # the Newton step's bound in log mu: DUAL_TOL, or 10 DUAL_TOL in t
        # where that is finer, near mu0, where u grows like (mu - mu0)^k and
        # it holds the over-delivery to about k 1e-12; never below the grain
        tol = max(DUAL_GRAIN, DUAL_TOL * min(1.0, 10.0 * d / mu))
        if 0.0 < h <= tol * mu / d * slope:
            return 0.0, None
        return h, slope

    if cap - u_avg > math.ulp(cap):
        # the gallop in d = mu - mu0; the bracket's lower end is unevaluated
        top = 2.0 ** 261  # where the gallop ends
        d_lo, h_lo, s_lo = mu0 * DUAL_GRAIN or below, -math.inf, 0.0
        d_hi = DUAL_FIRST * mu0 or 1.0
        h_hi, s_hi = yield from gap(mu0 + d_hi)
        while h_hi < 0.0 and mu0 + d_hi < top:
            d_lo, h_lo, s_lo = d_hi, h_hi, s_hi
            t_hi = math.log(2.0 * d_hi if d_hi < 64.0 else d_hi * d_hi / 32.0)
            if s_hi and h_hi > -math.inf:
                t_hi = max(t_hi, math.log(d_hi) - h_hi / s_hi)
            d_hi = min(math.exp(min(t_hi, math.log(top))), top - mu0)
            h_hi, s_hi = yield from gap(mu0 + d_hi)
        if h_hi > 0.0:
            # Newton's first step from the end nearer the floor, else from
            # the other; with neither inside, bracketed_newton halves
            t_lo, t_hi = math.log(d_lo), math.log(d_hi)
            ends = sorted([(t_lo, h_lo, s_lo), (t_hi, h_hi, s_hi)],
                          key=lambda end: abs(end[1]))
            starts = [t - h / s if s else math.nan for t, h, s in ends]
            steps = []  # the length of Newton's step from each point

            def newton(t: float) -> tuple:
                """gap at t; a zero slope, and so a halving, where Newton's
                step is not half the one two points before."""
                h, slope = yield from gap(mu0 + math.exp(t))
                steps.append(abs(h / slope) if slope else math.inf)
                if len(steps) > 2 and steps[-1] > 0.5 * steps[-3]:
                    return h, 0.0
                return h, slope

            start = next((t for t in starts if t_lo < t < t_hi), math.nan)
            yield from newton_search(newton, t_hi, t_lo, start, DUAL_TOL)
    return state
