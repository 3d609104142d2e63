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
