"""Analytic power model: per-user power control, average-power scaling law, inverses."""

from __future__ import annotations

import math
import sys
from functools import partial

import numpy as np

from .numerics import (_winitzki, all_set, as_arrays, by_runs, lambert_w0,
                       newton_log, shaped)
from .params import SystemParams, derive_constants

_LN2 = math.log(2.0)

# exponents (in bits) beyond this correspond to unphysical per-cell load
EXPONENT_GUARD_BITS = 1024.0


class PowerOverflowError(OverflowError):
    """Per-cell load implies an exponent outside the guarded range, or a
    transmit power past the float range."""


class InfeasibleBudgetError(ValueError):
    """The requested power budget cannot cover the static consumption."""


def _check_load(bits) -> None:
    """PowerOverflowError if any per-cell load exponent in ``bits`` (n v/W,
    a float or an array) exceeds ``EXPONENT_GUARD_BITS``; NaN passes."""
    if np.count_nonzero(bits > EXPONENT_GUARD_BITS):
        raise PowerOverflowError(
            f"per-cell load exponent {np.max(bits)} bits exceeds guard "
            f"({EXPONENT_GUARD_BITS})")


def _check_power(power) -> None:
    """PowerOverflowError unless every element of ``power`` (W, a float or
    an array) is a finite float.  ``_check_load`` bounds the exponent, but
    2^1024 is already the float maximum, so a power whose load passes it
    can still overflow; computed under ``np.errstate``, it raises here
    instead of turning into inf with a RuntimeWarning."""
    if not np.isfinite(power).all():
        raise PowerOverflowError(
            f"transmit power {np.max(power)} W is not a finite float")


def stpc_power(distance, n_users, p: SystemParams):
    """Transmit power towards one user at ``distance`` with ``n_users`` sharing the band.

    Short-term power control: enough power that the Rayleigh-faded link meets
    the rate target within the allowed outage probability.  Flat inside the
    reference distance.  Accepts numpy arrays for either argument.  The
    power is a constant times the path-loss factor max(d/r0, 1)^alpha and
    the bandwidth-sharing factor (2^(n v/W) - 1) / n, the same for every
    user of a drop.  Where that product is not a float (the path-loss
    factor overflows while the other is tiny), it is formed in logs.  An
    ``n_users`` below 1 or NaN, or a distance that is negative or not
    finite, raises ValueError, and a load exponent n v/W above
    ``EXPONENT_GUARD_BITS``, or a power past the float range,
    PowerOverflowError.
    """
    c = derive_constants(p)
    d = np.asarray(distance, dtype=float)
    n = np.asarray(n_users, dtype=float)
    if not np.all(n >= 1):  # NaN fails it too
        raise ValueError("n_users must be >= 1")
    bad = ~(np.isfinite(d) & (d >= 0.0))
    if bad.any():
        raise ValueError(
            f"distance must be finite and >= 0, got {float(d[bad][0])!r}")
    bits = n * c.c2
    _check_load(bits)
    with np.errstate(over="ignore"):
        scale = (p.snr_gap * p.noise_psd * p.bandwidth_w
                 / (p.ref_pathloss * c.c1)) * (np.expm1(bits * _LN2) / n)
        # max(d, r0) / r0 has the bits of max(d / r0, 1)
        ratio = np.maximum(d, p.ref_distance) / p.ref_distance
        out = ratio ** p.pathloss_exp * scale
        if not all_set(np.isfinite(out)):
            out = np.where(np.isfinite(out), out, np.exp(
                p.pathloss_exp * np.log(ratio) + np.log(scale)))
            _check_power(out)
    return out if out.ndim else float(out)


def transmit_power_x(x, density, p: SystemParams):
    """Average transmit power as a function of x = R^2 (the solver's variable).

    Zero where x <= 0 or density < 0; elementwise for arrays.  Where a
    factor of the product leaves the float range (x^(alpha/2) overflows
    while 2^bits - 1 is tiny), the product is formed in logs; a power past
    the float range raises PowerOverflowError.
    """
    shape, (x, lam) = as_arrays(x, density)
    out = np.zeros_like(x)
    on = (x > 0.0) & (lam >= 0.0)
    if np.count_nonzero(on):
        c = derive_constants(p)
        xo = x[on]
        bits = c.d2 * math.pi * lam[on] * xo
        _check_load(bits)
        h = 0.5 * p.pathloss_exp
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            power = c.d1 * xo ** h * np.expm1(bits * _LN2)
            if not all_set(np.isfinite(power)):
                far = ~np.isfinite(power)
                power[far] = np.exp(math.log(c.d1) + h * np.log(xo[far])
                                    + np.log(np.expm1(bits[far] * _LN2)))
                _check_power(power)
        out[on] = power
    return shaped(out, shape)


def _check_nonneg_finite(**values: float) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def avg_transmit_power(radius: float, density: float, p: SystemParams) -> float:
    """Average BS transmit power D1 * R^alpha * (2^(D2*pi*lambda*R^2) - 1).

    Strictly increasing in both arguments on the positive quadrant and
    convex in x = R^2; zero when either argument is zero.  A negative or
    non-finite argument raises ValueError.
    """
    _check_nonneg_finite(radius=radius, density=density)
    return transmit_power_x(radius * radius, density, p)


def avg_transmit_power_exact(radius: float, density: float,
                             p: SystemParams) -> float:
    """Average transmit power without the two closing approximations.

    Keeps the near-field correction term alpha*r0^(alpha+2)/(2 R^2) and the
    exact exponent base (2^(v/W) - 1 instead of (ln 2) v/W), so it equals the
    expectation of the per-user power over the Poisson population exactly.
    Inside r0 every user is at r0, so there the geometry factor is its value
    at R = r0, (alpha+2)/2 r0^alpha.
    Intended for validation; the scaling law above is the modeling surface.
    Where a factor leaves the float range (R^alpha overflows, or R^2
    underflows to 0), the far-field product is formed in logs and the
    near-field one as (e^ex - 1) / ex pi lambda (2^(v/W) - 1), ex the load
    in nats.  A negative or non-finite argument raises ValueError, and a
    power past the float range PowerOverflowError.
    """
    _check_nonneg_finite(radius=radius, density=density)
    if radius == 0.0:
        return 0.0
    c = derive_constants(p)
    alpha = p.pathloss_exp
    d1_exp = math.expm1(c.c2 * _LN2)  # 2^(v/W) - 1
    ex = d1_exp * math.pi * density * radius * radius
    _check_load(ex / _LN2)
    near = alpha * p.ref_distance ** (alpha + 2.0)
    try:
        if radius < p.ref_distance:  # every user at r0: the far form at r0
            geom = (alpha + 2.0) / 2.0 * p.ref_distance ** alpha
        else:
            geom = radius ** alpha + near / (2.0 * radius * radius)
        power = c.d1 * geom * math.expm1(ex)
    except (OverflowError, ZeroDivisionError):
        power = math.inf
    if not math.isfinite(power):
        em = math.expm1(ex)
        log_far = math.log(c.d1) + alpha * math.log(radius) + math.log(em) \
            if em > 0.0 else -math.inf
        with np.errstate(over="ignore"):
            power = float(np.exp(log_far)) + c.d1 * near / 2.0 \
                * (em / ex if ex else 1.0) * d1_exp * math.pi * density
    _check_power(power)
    return power


def bs_power_x(x, density, p: SystemParams):
    """BS consumption in x = R^2: a * Pt + Pc when on, sleep power when off."""
    shape, (x, lam) = as_arrays(x, density)
    on = p.amp_scaling * transmit_power_x(x, lam, p) + p.static_power
    return shaped(np.where(x > 0.0, on, p.sleep_power), shape)


def bs_power(radius, density, p: SystemParams):
    """BS power consumption; discontinuous at R = 0 (sleep mode) by design."""
    return bs_power_x(radius * radius, density, p)


def _stationary_law(x, qp, log_rhs, h):
    """log(Pt'(x) / d1) - ``log_rhs`` and its slope s in log x, y = ``qp`` x:
    Pt'(x) = d1 x^(h-1) e^y (hE + y), h = alpha/2, E = 1 - e^-y.  The
    stationary point's own log-x slope in mu is 1 / s."""
    y, t, slope = _stationary_slope(x, qp, h)
    return (h - 1.0) * np.log(x) + y + np.log(t) - log_rhs, slope


def _stationary_slope(x, qp, h):
    """``_stationary_law``'s y and t = hE + y, and its slope in log x."""
    y = qp * x
    em = -np.expm1(-y)
    t = h * em + y
    return y, t, (h * (h - 1.0) * em + (2.0 * h + y) * y) / t


def _cap_law(x, qp, log_rhs, h):
    """log(Pt(x) / d1) - ``log_rhs`` and its slope in log x, y = ``qp`` x:
    Pt(x) = d1 x^h (e^y - 1), written with E so that neither overflows."""
    y = qp * x
    em = -np.expm1(-y)
    return h * np.log(x) + y + np.log(em) - log_rhs, h + y / em


def _hse_root(num: float, den: float, h: float) -> float:
    """r^(1/h), r = ``num`` / ``den`` > 0, formed in logs where r overflows
    (``_curve_x``'s ``root``)."""
    r = num / den
    if r < math.inf:
        return r ** (1.0 / h)
    return math.exp((math.log(num) - math.log(den)) / h)


def _small_load_x(law, qp, rhs, h):
    """The root of ``law`` where its load y = ``qp`` x is so small that the
    law is linear in log x: one Newton step from y = 2^-60."""
    x = 2.0 ** -60 / qp
    g, slope = law(x, qp, rhs, h)
    return np.exp(np.log(x) - g / slope)


def _curve_x(density, qp1, root, h, given, law=None, log_rhs=None):
    """x on one curve at each density, with qp = ``qp1`` lambda.

    With the -1 of e^y - 1 dropped, both laws read h log x + qp x = log r,
    whose root x = W(k r^(1/h)) / k, k = qp / h (Corless et al. 1996), is
    the hse closed form, returned with no ``law``; ``root`` is r^(1/h).
    Where w = k r^(1/h) overflows, W is formed in logs: its asymptotic
    series in L = log k + log r^(1/h) (Corless et al. 1996), within 5e-8
    relative from L = log 2^1024 up, then two Newton steps on W + log W =
    L (one reaches 4e-16).  Else Newton in log x (``newton_log``) on
    ``law``, its right side ``log_rhs`` (or ``log_rhs(lambda)`` if
    callable), from that root with Winitzki's W; both laws are convex and
    increasing in log x, so each step after the first descends onto the
    root.  Where w underflows, so that this seed is 0 or subnormal, the
    root's load is tiny too, and the seed is the small-load law's
    (``_small_load_x``); where w overflows, the seed is the series' W / k.
    ``root``, the right side and the value of ``given`` are floats, or
    arrays aligned with the densities (``by_runs``).  Where the seed, the
    right side or the root leaves the float range, ValueError names the
    density and ``given``, the (name, value) of the price or share that
    set r.
    """
    shape, (lam,) = as_arrays(density)
    normal = (lam >= sys.float_info.min) & (lam <= sys.float_info.max)
    if not all_set(normal):
        raise ValueError("density must be positive, normal and finite: "
                         f"{lam[~normal][0]}")
    qp = qp1 * lam
    k = qp / h
    with np.errstate(all="ignore"):  # a non-finite x is reported below
        w = k * root
        big = ~np.isfinite(w)
        if np.count_nonzero(big):  # W(e^L) = L - log L + log L / L + ...
            L = (np.log(k) + np.log(root))[big]
            w_big = L - np.log(L) + np.log(L) / L
        if law is None:
            x = lambert_w0(w) / k
            if np.count_nonzero(big):  # Newton on W + log W = L, twice
                for _ in range(2):
                    w_big -= (w_big + np.log(w_big) - L) / (1.0 + 1.0 / w_big)
                x[big] = w_big / k[big]
        else:
            rhs = log_rhs(lam) if callable(log_rhs) else log_rhs
            per_density = isinstance(rhs, np.ndarray)
            x0 = _winitzki(w) / k
            small = x0 < sys.float_info.min
            if np.count_nonzero(small):
                x0[small] = _small_load_x(
                    law, qp[small], rhs[small] if per_density else rhs, h)
            if np.count_nonzero(big):
                x0[big] = w_big / k[big]
            if per_density:  # a right side per density
                x = newton_log(partial(law, h=h), x0, qp, rhs)
            else:
                x = newton_log(partial(law, h=h, log_rhs=rhs), x0, qp)
    found = (x > 0.0) & (x < math.inf)
    if not all_set(found):
        bad = ~found
        name, value = given
        if isinstance(value, np.ndarray):
            value = float(value[bad][0])
        raise ValueError("the root search leaves the float range at density "
                         "%s and %s %r" % (lam[bad][0], name, value))
    return shaped(x, shape)


def max_range_x(density, share, p: SystemParams):
    """Largest x = R^2 whose consumption above Pc, a Pt, stays within
    ``share`` (W, finite and > 0) at ``density``: the root of ``_cap_law``
    (``_curve_x``), elementwise over densities, and over shares where
    ``share`` is an array."""
    c = derive_constants(p)
    a_d1 = p.amp_scaling * c.d1
    h = 0.5 * p.pathloss_exp

    def scalars(share: float) -> tuple:  # r^(1/h) and log r, r = share / a d1
        if not (math.isfinite(share) and share > 0.0):
            raise InfeasibleBudgetError(
                f"budget above static power must be finite and > 0 W: "
                f"{share!r}")
        ratio = share / a_d1
        # in parts where the ratio is not a normal float
        if sys.float_info.min <= ratio < math.inf:
            return ratio ** (1.0 / h), math.log(ratio)
        return _hse_root(share, a_d1, h), math.log(share) - math.log(a_d1)

    shape, lam = None, density
    if isinstance(share, np.ndarray):
        shape, (lam, share) = as_arrays(density, share)
    root, log_rhs = by_runs(share, scalars)
    x = _curve_x(lam, c.d3 * math.pi, root, h, ("share", share), _cap_law,
                 log_rhs)
    return x if shape is None else shaped(x, shape)
