"""The per-cell load guard: one check, one message, one place.

A load exponent n v/W above ``EXPONENT_GUARD_BITS`` (1,024 bits) raises
``PowerOverflowError`` from ``scaling._check_load``, whichever law or the
Monte Carlo window reaches it.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from greencell import mcsim, scaling
from greencell.params import SystemParams, derive_constants
from greencell.scaling import EXPONENT_GUARD_BITS, PowerOverflowError

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "greencell"
GUARD = "EXPONENT_GUARD_BITS"
MESSAGE = r"^per-cell load exponent \S+ bits exceeds guard \(1024\.0\)$"
# v/W = 2^-10 exactly: n users carry a load exponent of n / 1024 bits
Q = SystemParams(user_rate=SystemParams().bandwidth_w / 1024)
N_MAX = 2 ** 20
# users/m^2: so dense that a cell at the guard is small enough for the
# power there to stay finite
DENSITY = 2.0


# pytest turns a RuntimeWarning, such as an overflow to inf, into an error


def test_the_guard_is_1024_bits():
    assert EXPONENT_GUARD_BITS == 1024.0
    assert derive_constants(Q).c2 == 2.0 ** -10


def test_stpc_power_passes_at_the_guard_and_raises_past_it():
    power = scaling.stpc_power(100.0, N_MAX, Q)
    assert math.isfinite(power)
    assert power == pytest.approx(3.41e300, rel=1e-3)
    with pytest.raises(PowerOverflowError, match=MESSAGE):
        scaling.stpc_power(100.0, N_MAX + 1, Q)
    # one count past the guard in an array raises for the whole array
    with pytest.raises(PowerOverflowError, match=MESSAGE):
        scaling.stpc_power(100.0, np.array([1, N_MAX + 1]), Q)


def test_stpc_power_takes_an_empty_count_array():
    # the edge powers of a chunk whose trials are all empty
    out = scaling.stpc_power(250.0, np.arange(1, 1), Q)
    assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_transmit_power_x_passes_below_the_guard_and_raises_past_it():
    # pi lambda x users at 2^-10 bits each: 1,024 bits at x = x0
    x0 = EXPONENT_GUARD_BITS / (derive_constants(Q).d2 * math.pi * DENSITY)
    assert math.isfinite(scaling.transmit_power_x(x0 * (1 - 1e-12),
                                                  DENSITY, Q))
    with pytest.raises(PowerOverflowError, match=MESSAGE):
        scaling.transmit_power_x(x0 * (1 + 1e-12), DENSITY, Q)
    with pytest.raises(PowerOverflowError, match=MESSAGE):
        scaling.transmit_power_x(np.array([1.0, x0 * (1 + 1e-12)]),
                                 DENSITY, Q)


def test_avg_transmit_power_exact_passes_below_the_guard_and_raises_past_it():
    # the exact law's exponent is (2^(v/W) - 1) pi lambda R^2 nats
    per_user = math.expm1(derive_constants(Q).c2 * math.log(2.0))
    r0 = math.sqrt(EXPONENT_GUARD_BITS * math.log(2.0)
                   / (per_user * math.pi * DENSITY))
    assert math.isfinite(scaling.avg_transmit_power_exact(r0 * (1 - 1e-12),
                                                          DENSITY, Q))
    with pytest.raises(PowerOverflowError, match=MESSAGE):
        scaling.avg_transmit_power_exact(r0 * (1 + 1e-12), DENSITY, Q)


def _mean_with_lo(lo: float) -> float:
    """The Poisson mean m with m - 12 sqrt(m) - 10 = ``lo``."""
    return (6.0 + math.sqrt(46.0 + lo)) ** 2


def test_poisson_window_passes_at_the_guard_and_raises_past_it():
    # the window's lowest count lo is floor(m - 12 sqrt(m) - 10)
    at, past = _mean_with_lo(N_MAX + 0.5), _mean_with_lo(N_MAX + 1.5)
    lo, pmf = mcsim._poisson_window(at, Q)
    assert lo == N_MAX and pmf.sum() == pytest.approx(1.0)
    with pytest.raises(PowerOverflowError, match=MESSAGE):
        mcsim._poisson_window(past, Q)


def test_nan_passes_the_guard():
    scaling._check_load(math.nan)
    scaling._check_load(np.array([math.nan, 1.0]))
    scaling._check_load(np.array([]))


def _guard_reads(tree: ast.Module) -> list:
    """The function (or "<module>") around each read of the guard."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Name) and node.id == GUARD
                and isinstance(node.ctx, ast.Load)) or (
                    isinstance(node, ast.Attribute) and node.attr == GUARD):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_only_the_helper_reads_the_guard():
    reads = {(path.name, where)
             for path in sorted(PACKAGE.glob("*.py"))
             for where in _guard_reads(ast.parse(path.read_text()))}
    assert reads == {("scaling.py", "_check_load")}


@pytest.mark.parametrize("source, where", [
    ("def f(b):\n    return b > EXPONENT_GUARD_BITS", ["f"]),
    ("def g(b):\n    return scaling.EXPONENT_GUARD_BITS * 0.69 < b", ["g"]),
    ("ok = np.greater(b, EXPONENT_GUARD_BITS)", ["<module>"]),
    ("EXPONENT_GUARD_BITS = 1024.0", []),
])
def test_every_read_of_the_guard_is_found(source, where):
    assert _guard_reads(ast.parse(source)) == where
