"""The power guard: every transmit power is a finite float or an error.

The load guard bounds the exponent n v/W at 1,024 bits, but 2^1024 is
already the float maximum, so at the default v/W = 0.03 the power leaves
the float range below the guard.  ``scaling._check_power`` raises
``PowerOverflowError`` there, for ``stpc_power``, ``transmit_power_x`` and
``avg_transmit_power_exact`` alike.
"""

import math
import struct
import sys
import warnings

import numpy as np
import pytest

from greencell import scaling
from greencell.params import SystemParams, derive_constants
from greencell.scaling import PowerOverflowError

P = SystemParams()
MESSAGE = r"^transmit power \S+ W is not a finite float$"


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _last_finite(power, lo: float, hi: float) -> float:
    """The largest positive float x in [lo, hi) at which ``power(x)``
    returns, when it returns at ``lo`` and raises PowerOverflowError at
    ``hi``: bisection on the floats' bit patterns."""
    a, b = _bits(lo), _bits(hi)
    while b - a > 1:
        mid = (a + b) // 2
        try:
            power(_float(mid))
            a = mid
        except PowerOverflowError:
            b = mid
    return _float(a)


def _check_boundary(power, lo: float, hi: float) -> None:
    """At the last x whose power is finite the power is within 1e-12 of the
    float maximum, so the load guard did not stop it first; the next float
    raises PowerOverflowError, and neither warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = _last_finite(power, lo, hi)
        value = power(x)
        assert isinstance(value, float) and math.isfinite(value)
        assert value >= (1.0 - 1e-12) * sys.float_info.max
        with pytest.raises(PowerOverflowError, match=MESSAGE):
            power(math.nextafter(x, math.inf))


def _guard_x(density: float) -> float:
    """The x = R^2 at which the scaling law's load reaches the guard."""
    c = derive_constants(P)
    return scaling.EXPONENT_GUARD_BITS / (c.d2 * math.pi * density)


@pytest.mark.parametrize("density", [1e-6, 1e-4, 1e-2])
def test_transmit_power_x_raises_past_the_last_finite_power(density):
    # the power overflows 1-2% below the load guard's x at these densities
    x0 = _guard_x(density)
    _check_boundary(lambda x: scaling.transmit_power_x(x, density, P),
                    x0 / 2.0, x0)


@pytest.mark.parametrize("density", [1e-6, 1e-4, 1e-2])
def test_avg_transmit_power_exact_raises_past_the_last_finite_power(density):
    r0 = math.sqrt(_guard_x(density))
    _check_boundary(lambda r: scaling.avg_transmit_power_exact(r, density, P),
                    r0 / 2.0, 2.0 * r0)


@pytest.mark.parametrize("n_users", [1_000, 20_000, 34_000])
def test_stpc_power_raises_past_the_last_finite_power(n_users):
    # a count whose bandwidth-sharing factor is above 1, so the product,
    # not the path-loss factor alone, leaves the float range
    _check_boundary(lambda d: scaling.stpc_power(d, n_users, P), 1.0, 1e300)


def test_the_layers_above_report_the_overflow():
    # 103.1 km at 1e-6 users/m^2: a load of 1,002 bits, under the guard
    radius, density = 103_100.0, 1e-6
    x = radius * radius
    assert derive_constants(P).d2 * math.pi * density * x < 1024.0
    for call in (lambda: scaling.avg_transmit_power(radius, density, P),
                 lambda: scaling.bs_power(radius, density, P),
                 lambda: scaling.bs_power_x(x, density, P)):
        with pytest.raises(PowerOverflowError, match=MESSAGE):
            call()


# --- inputs whose power is a float though a factor of it is not -----------

def _law_oracle(radius: float, density: float) -> float:
    """The scaling law d1 R^alpha (2^(d2 pi lambda R^2) - 1) in 40 digits."""
    import mpmath
    c = derive_constants(P)
    with mpmath.workdps(40):
        x = mpmath.mpf(radius) ** 2
        bits = mpmath.mpf(c.d2) * mpmath.pi * mpmath.mpf(density) * x
        return float(mpmath.mpf(c.d1) * x ** (mpmath.mpf(P.pathloss_exp) / 2)
                     * mpmath.expm1(bits * mpmath.log(2)))


def _exact_oracle(radius: float, density: float) -> float:
    """d1 (R^alpha + alpha r0^(alpha+2) / (2 R^2)) (e^ex - 1), ex =
    (2^(v/W) - 1) pi lambda R^2, in 40 digits; inside r0 the geometry
    factor is (alpha+2)/2 r0^alpha."""
    import mpmath
    c = derive_constants(P)
    with mpmath.workdps(40):
        r, alpha = mpmath.mpf(radius), mpmath.mpf(P.pathloss_exp)
        r0 = mpmath.mpf(P.ref_distance)
        ex = mpmath.expm1(mpmath.mpf(c.c2) * mpmath.log(2)) * mpmath.pi \
            * mpmath.mpf(density) * r * r
        geom = (alpha + 2) / 2 * r0 ** alpha if r < r0 else \
            r ** alpha + alpha * r0 ** (alpha + 2) / (2 * r * r)
        return float(mpmath.mpf(c.d1) * geom * mpmath.expm1(ex))


def test_a_radius_whose_square_underflows_has_the_near_field_power():
    # R^2 underflows to 0 below about 1e-162 m; inside r0 the exact law is
    # the load's e^ex - 1 times a constant, and so falls to 0 with it
    radius, density = 1e-170, 1e-5
    assert radius * radius == 0.0
    exact = scaling.avg_transmit_power_exact(radius, density, P)
    assert exact == 0.0
    assert exact == pytest.approx(_exact_oracle(radius, density), rel=1e-13)
    assert scaling.avg_transmit_power(radius, density, P) == 0.0


def test_a_power_whose_path_loss_factor_overflows_is_a_float():
    # R^alpha is 1e330 at 1e110 m, but the load 2^bits - 1 is about 1e-89
    radius, density = 1e110, 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        law = scaling.avg_transmit_power(radius, density, P)
        exact = scaling.avg_transmit_power_exact(radius, density, P)
    assert law == pytest.approx(_law_oracle(radius, density), rel=1e-13)
    assert exact == pytest.approx(_exact_oracle(radius, density), rel=1e-13)
    assert isinstance(law, float) and isinstance(exact, float)
    assert 1e240 < law < exact < 1e241


def test_validate_scaling_reports_a_radius_whose_square_underflows(tmp_path):
    from greencell import cli
    out = tmp_path / "v.csv"
    code = cli.main(["validate-scaling", "--trials", "10", "--radii",
                     "1e-170", "--densities", "1e-5", "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION_FAILED)
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[3]) == scaling.avg_transmit_power_exact(1e-170, 1e-5, P)


@pytest.mark.parametrize("radius", [1.0, 5.0, 250.0, 2_000.0, 1e5])
@pytest.mark.parametrize("density", [0.0, 1e-9, 1e-5, 1e-3])
def test_a_finite_product_keeps_its_bits(radius, density):
    # the log forms serve only where the direct product is not a float
    c, alpha = derive_constants(P), P.pathloss_exp
    try:
        law = scaling.avg_transmit_power(radius, density, P)
    except PowerOverflowError:
        return
    x = radius * radius
    bits = c.d2 * math.pi * density * x
    want = float(c.d1 * np.float64(x) ** (0.5 * alpha)
                 * np.expm1(bits * math.log(2.0)))
    assert law == want
    ex = math.expm1(c.c2 * math.log(2.0)) * math.pi * density * radius * radius
    geom = (alpha + 2.0) / 2.0 * P.ref_distance ** alpha \
        if radius < P.ref_distance else radius ** alpha + alpha \
        * P.ref_distance ** (alpha + 2.0) / (2.0 * radius * radius)
    assert scaling.avg_transmit_power_exact(radius, density, P) \
        == c.d1 * geom * math.expm1(ex)
