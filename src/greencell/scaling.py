"""Analytic power model: per-user power control, average-power scaling law, inverses."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import as_arrays, lambert_w0, newton_log, shaped
from .params import SystemParams, derive_constants

_LN2 = math.log(2.0)

# exponents (in bits) beyond this correspond to unphysical per-cell load
EXPONENT_GUARD_BITS = 1024.0


class PowerOverflowError(OverflowError):
    """Per-cell load implies an exponent outside the guarded range."""


class InfeasibleBudgetError(ValueError):
    """The requested power budget cannot cover the static consumption."""


@dataclass(frozen=True)
class CellState:
    """A (coverage radius, user density) operating point."""

    radius: float
    density: float

    def __post_init__(self):
        if self.radius < 0.0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.density < 0.0:
            raise ValueError(f"density must be >= 0, got {self.density}")


def stpc_power(distance, n_users, p: SystemParams):
    """Transmit power towards one user at ``distance`` with ``n_users`` sharing the band.

    Short-term power control: enough power that the Rayleigh-faded link meets
    the rate target within the allowed outage probability.  Flat inside the
    reference distance.  Accepts numpy arrays for either argument.
    """
    c = derive_constants(p)
    n = np.asarray(n_users, dtype=float)
    if np.any(n < 1):
        raise ValueError("n_users must be >= 1")
    bits = n * c.c2
    if np.any(bits > EXPONENT_GUARD_BITS):
        raise PowerOverflowError(
            f"per-cell load exponent {np.max(bits)} bits exceeds guard "
            f"({EXPONENT_GUARD_BITS})")
    load = np.expm1(bits * _LN2) / n
    geom = np.maximum(np.asarray(distance, dtype=float) / p.ref_distance, 1.0) \
        ** p.pathloss_exp
    out = (p.snr_gap * p.noise_psd * p.bandwidth_w / (p.ref_pathloss * c.c1)) \
        * load * geom
    return out if out.ndim else float(out)


def transmit_power_x(x, density, p: SystemParams):
    """Average transmit power as a function of x = R^2 (the solver's variable).

    Zero where x <= 0 or density < 0; elementwise for arrays.
    """
    shape, (x, lam) = as_arrays(x, density)
    out = np.zeros_like(x)
    on = (x > 0.0) & (lam >= 0.0)
    if on.any():
        c = derive_constants(p)
        xo = x[on]
        bits = c.d2 * math.pi * lam[on] * xo
        if bits.max() > EXPONENT_GUARD_BITS:
            raise PowerOverflowError(
                f"load exponent {bits.max()} bits exceeds guard "
                f"({EXPONENT_GUARD_BITS})")
        out[on] = c.d1 * xo ** (0.5 * p.pathloss_exp) * np.expm1(bits * _LN2)
    return shaped(out, shape)


def avg_transmit_power(radius: float, density: float, p: SystemParams) -> float:
    """Average BS transmit power D1 * R^alpha * (2^(D2*pi*lambda*R^2) - 1).

    Strictly increasing in both arguments on the positive quadrant and
    convex in x = R^2; zero when either argument is zero.
    """
    return transmit_power_x(radius * radius, density, p)


def avg_transmit_power_exact(radius: float, density: float,
                             p: SystemParams) -> float:
    """Average transmit power without the two closing approximations.

    Keeps the near-field correction term alpha*r0^(alpha+2)/(2 R^2) and the
    exact exponent base (2^(v/W) - 1 instead of (ln 2) v/W), so it equals the
    expectation of the per-user power over the Poisson population exactly.
    Intended for validation; the scaling law above is the modeling surface.
    """
    if radius <= 0.0 or density < 0.0:
        return 0.0
    c = derive_constants(p)
    alpha = p.pathloss_exp
    d1_exp = math.expm1(c.c2 * _LN2)  # 2^(v/W) - 1
    ex = d1_exp * math.pi * density * radius * radius
    if ex > EXPONENT_GUARD_BITS * _LN2:
        raise PowerOverflowError(
            f"load exponent {ex} nats exceeds guard")
    geom = radius ** alpha + alpha * p.ref_distance ** (alpha + 2.0) \
        / (2.0 * radius * radius)
    return c.d1 * geom * math.expm1(ex)


def bs_power_x(x, density, p: SystemParams):
    """BS consumption in x = R^2: a * Pt + Pc when on, sleep power when off."""
    shape, (x, lam) = as_arrays(x, density)
    on = p.amp_scaling * transmit_power_x(x, lam, p) + p.static_power
    return shaped(np.where(x > 0.0, on, p.sleep_power), shape)


def bs_power(radius, density, p: SystemParams):
    """BS power consumption; discontinuous at R = 0 (sleep mode) by design."""
    return bs_power_x(radius * radius, density, p)


def max_range_x(density, budget: float, p: SystemParams):
    """Largest x = R^2 whose BS consumption stays within ``budget`` at ``density``.

    Elementwise over densities.  Newton in log x on log Pt(x) = log target,
    seeded by the high-spectrum-efficiency form (2^(D2 pi lambda x) - 1
    replaced by its exponential, solved with Lambert W), which lies below
    the root; log Pt is convex and increasing in log x, so after the first
    step Newton descends monotonically onto the root.
    """
    if budget <= p.static_power:
        raise InfeasibleBudgetError(
            f"budget {budget} W does not exceed static power {p.static_power} W")
    shape, (lam,) = as_arrays(density)
    if (lam <= 0.0).any():
        raise ValueError(f"density must be positive, got {lam.min()}")
    c = derive_constants(p)
    half_alpha = 0.5 * p.pathloss_exp
    ratio = (budget - p.static_power) / (p.amp_scaling * c.d1)
    log_ratio = math.log(ratio)

    def log_power(x, qp):
        # log(Pt / target) and its slope in log x, with y = qp * x nats;
        # written with 1 - e^-y so that neither overflows
        y = qp * x
        em = -np.expm1(-y)
        return (half_alpha * np.log(x) + y + np.log(em) - log_ratio,
                half_alpha + y / em)

    qp = c.d3 * math.pi * lam
    k = qp / half_alpha
    seed = lambert_w0(k * ratio ** (1.0 / half_alpha)) / k
    x = newton_log(log_power, seed, qp)
    return shaped(x, shape)


def max_range(density, budget: float, p: SystemParams):
    """Coverage radius with consumption exactly at ``budget``; decreasing in density."""
    shape, (x,) = as_arrays(max_range_x(density, budget, p))
    return shaped(np.sqrt(x), shape)


def throughput(radius: float, density: float) -> float:
    """Average number of simultaneously supported users, pi * lambda * R^2."""
    return math.pi * density * radius * radius
