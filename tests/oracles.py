"""Reference algorithms the tests check greencell against.

Plain bisection (``Bracket``, ``bisect``, ``grow_bracket``) is the oracle
for the Newton kernels and thresholds, and ``accurate_cutoff`` is the
bisection the ARwOFC scheme used for its cut-off before it moved to Newton
on exact derivatives.  ``minimize_bounded`` is Brent's bounded minimiser,
which FRwOFC used the same way.  ``stpc_power_formula`` is the short-term
power control as written before ``stpc_power`` ran in place.
``sample_users`` and ``simulate_outage`` are Monte Carlo checks of the user
placement and of the short-term power control's outage target.
``paper_hse_thresholds`` are the paper's three closed-form threshold
densities as it writes them, which ``optimal.hse_critical_densities`` now
reads from its laws.  None of this is used by the package itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from greencell.mcsim import _TRIAL_CHUNK, McEstimate
from greencell.numerics import ConvergenceError, gauss_legendre
from greencell.optimal import CriticalDensities
from greencell.params import SystemParams, derive_constants
from greencell.scaling import (EXPONENT_GUARD_BITS, PowerOverflowError,
                               _check_nonneg_finite, max_range_x)


class NoSignChangeError(ValueError):
    """The supplied interval does not bracket a sign change."""


@dataclass(frozen=True)
class Bracket:
    """A sign-changing interval [lo, hi] for a scalar root."""

    lo: float
    hi: float
    f_lo_sign: int
    f_hi_sign: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.f_lo_sign == self.f_hi_sign:
            raise NoSignChangeError(
                f"no sign change on [{self.lo}, {self.hi}]")

    @classmethod
    def from_function(cls, f: Callable[[float], float],
                      lo: float, hi: float) -> "Bracket":
        flo, fhi = f(lo), f(hi)
        if flo == 0.0:
            # degenerate: widen an epsilon so bisect still works
            return cls(lo, hi, -1 if fhi > 0 else 1, 1 if fhi > 0 else -1)
        if flo * fhi > 0.0:
            raise NoSignChangeError(
                f"f({lo})={flo} and f({hi})={fhi} have the same sign")
        return cls(lo, hi, int(math.copysign(1, flo)), int(math.copysign(1, fhi)))


def bisect(f: Callable[[float], float], bracket: Bracket,
           rel_tol: float = 1e-10, max_iter: int = 200) -> float:
    """Bisection on a bracketed root.

    Terminates when the bracket width drops below rel_tol * max(1, |x|).
    Monotone convergence; raises ConvergenceError after max_iter halvings.
    """
    lo, hi = bracket.lo, bracket.hi
    sign_lo = bracket.f_lo_sign
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * max(1.0, abs(mid)):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if math.copysign(1, fm) == sign_lo:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"bisection did not converge in {max_iter} iterations on "
        f"[{bracket.lo}, {bracket.hi}]")


def grow_bracket(f: Callable[[float], float], lo: float, hi0: float,
                 max_doublings: int = 200) -> Bracket:
    """Double ``hi`` from ``hi0`` until [lo, hi] brackets a sign change."""
    flo = f(lo)
    hi = hi0
    for _ in range(max_doublings):
        fhi = f(hi)
        if flo == 0.0 or flo * fhi <= 0.0:
            return Bracket(lo, hi,
                           int(math.copysign(1, flo)) if flo != 0 else -1,
                           int(math.copysign(1, fhi)) if fhi != 0 else 1)
        hi *= 2.0
    raise NoSignChangeError(
        f"no sign change found while doubling up to hi={hi}")


def arw_tail_users(share, cutoff, dist, p) -> float:
    """Tail throughput above ``cutoff`` with the range tracking the level
    Pc + ``share``: the transmit share a Pt is ``share`` at every density."""
    rule = gauss_legendre(dist, cutoff, dist.lambda_max)
    return rule.integrate(math.pi * rule.nodes
                          * max_range_x(rule.nodes, share, p))


def accurate_cutoff(share, u_avg, dist, p) -> Optional[float]:
    """Largest cut-off whose quadrature tail throughput at the transmit
    ``share`` still meets the floor, by bisection to an absolute width of
    1e-12; None when even the always-on tail misses it."""
    if arw_tail_users(share, 0.0, dist, p) < u_avg:
        return None
    lo, hi = 0.0, dist.lambda_max
    for _ in range(60):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if arw_tail_users(share, mid, dist, p) >= u_avg:
            lo = mid
        else:
            hi = mid
    return lo  # the satisfied side, so the constraint holds at the result


def minimize_bounded(fn: Callable[[float], float], lo: float, hi: float,
                     xatol: float) -> tuple:
    """(x, fn(x)) minimizing ``fn`` on [lo, hi] by Brent's bounded method.

    Golden-section and parabolic steps (Forsythe, Malcolm and Moler's FMIN),
    step for step as SciPy's ``minimize_scalar(method="bounded")``: the same
    points and the same result.  The end points are never evaluated; the
    search stops within about ``xatol`` or after 500 evaluations.  FRwOFC
    ran it over its cut-off before it moved to the root of its exact cost
    derivative.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    # xf is the best point so far, nfc and fulc the second and third best
    xf = nfc = fulc = lo + golden_mean * (hi - lo)
    fx = fnfc = ffulc = fn(xf)
    rat = e = 0.0
    for _ in range(499):  # evaluations after the first
        xm = 0.5 * (lo + hi)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(xf - xm) <= tol2 - 0.5 * (hi - lo):
            break
        golden = abs(e) <= tol1
        if not golden:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            golden = not (abs(p) < abs(0.5 * q * r)
                          and q * (lo - xf) < p < q * (hi - xf))
            if not golden:
                rat = p / q
                if xf + rat - lo < tol2 or hi - (xf + rat) < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (lo if xf >= xm else hi) - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = fn(x)
        if fu <= fx:
            lo, hi = (xf, hi) if x >= xf else (lo, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            lo, hi = (x, hi) if x < xf else (lo, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
    return xf, fx


def paper_hse_thresholds(mu: float, p: SystemParams) -> CriticalDensities:
    """The paper's high-spectrum-efficiency thresholds, formed in logs.

    With k = 2/alpha, Pt,max = (Pmax - Pc) / a and on-power differences
    from the sleep power Ps:
    lambda1 = (1/(pi d3) + (Pc - Ps)/(mu pi)) (a d1 d3/mu)^k
              e^(k + k d3 (Pc - Ps)/mu),
    lambda2 = a Pt,max / (k pi D) (a d1 d3/mu)^k e^(d3 a Pt,max / D), with
              D = mu - d3 a Pt,max, and inf for D <= 0,
    lambda3 = (Pmax - Ps)/(mu pi) (d1/Pt,max)^k e^(k d3 (Pmax - Ps)/mu).
    """
    c = derive_constants(p)
    k = 2.0 / p.pathloss_exp
    pt_max = (p.max_bs_power - p.static_power) / p.amp_scaling
    on_pc = p.static_power - p.sleep_power
    on_pmax = p.max_bs_power - p.sleep_power
    log_scale = k * math.log(p.amp_scaling * c.d1 * c.d3 / mu)
    denom = mu - c.d3 * pt_max * p.amp_scaling
    return CriticalDensities.from_logs(
        math.log(1.0 / (math.pi * c.d3) + on_pc / (mu * math.pi))
        + log_scale + k + k * c.d3 * on_pc / mu,
        math.log(p.amp_scaling * pt_max / (k * math.pi * denom)) + log_scale
        + c.d3 * pt_max * p.amp_scaling / denom if denom > 0.0 else math.inf,
        math.log(on_pmax / (mu * math.pi)) + k * math.log(c.d1 / pt_max)
        + k * c.d3 * on_pmax / mu)


def stpc_power_formula(distance, n_users, p: SystemParams):
    """``scaling.stpc_power`` term by term: (const * load(n)) * max(d/r0, 1)^alpha."""
    c = derive_constants(p)
    n = np.asarray(n_users, dtype=float)
    if np.any(n < 1):
        raise ValueError("n_users must be >= 1")
    bits = n * c.c2
    if np.any(bits > EXPONENT_GUARD_BITS):
        raise PowerOverflowError(
            f"per-cell load exponent {np.max(bits)} bits exceeds guard "
            f"({EXPONENT_GUARD_BITS})")
    load = np.expm1(bits * math.log(2.0)) / n
    geom = np.maximum(np.asarray(distance, dtype=float) / p.ref_distance, 1.0) \
        ** p.pathloss_exp
    out = (p.snr_gap * p.noise_psd * p.bandwidth_w / (p.ref_pathloss * c.c1)) \
        * load * geom
    return out if out.ndim else float(out)


def sample_users(density: float, radius: float,
                 rng: np.random.Generator) -> np.ndarray:
    """One realization of user distances in a disc of the given radius.

    The count is Poisson with mean lambda * pi * R^2; given the count each
    distance has pdf 2r/R^2 on [0, R] (uniform placement in the disc).
    """
    _check_nonneg_finite(density=density, radius=radius)
    mean_count = density * math.pi * radius * radius
    n = rng.poisson(mean_count)
    return radius * np.sqrt(rng.random(n))


def simulate_outage(distance: float, n_users: int, per_user_power: float,
                    p: SystemParams, trials: int,
                    rng: np.random.Generator) -> McEstimate:
    """Empirical probability that the L-block average rate misses the target.

    Evaluates the exact multi-block outage event (average of the per-block
    rates below the target), not its single-block product approximation.
    """
    if n_users < 1 or trials < 1:
        raise ValueError("n_users and trials must be >= 1")
    _check_nonneg_finite(distance=distance, per_user_power=per_user_power)
    ell = p.coding_blocks
    gain = per_user_power * p.ref_pathloss \
        * min(p.ref_distance / distance, 1.0) ** p.pathloss_exp \
        if distance > 0 else per_user_power * p.ref_pathloss
    noise = p.snr_gap * p.noise_psd * p.bandwidth_w
    outages = 0
    done = 0
    while done < trials:
        chunk = min(_TRIAL_CHUNK, trials - done)
        fades = rng.exponential(1.0, size=(chunk, ell))
        snr = n_users * gain * fades / noise
        rate = (p.bandwidth_w / n_users) * np.log2(1.0 + snr).mean(axis=1)
        outages += int(np.count_nonzero(rate < p.user_rate))
        done += chunk
    prob = outages / trials
    se = math.sqrt(max(prob * (1.0 - prob), 0.0) / trials)
    return McEstimate(mean=prob, std_err=se, trials=trials)
