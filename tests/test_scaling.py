import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from greencell.params import SystemParams, derive_constants
from greencell.scaling import (InfeasibleBudgetError, PowerOverflowError,
                               avg_transmit_power, avg_transmit_power_exact,
                               bs_power, max_range_x, stpc_power)
from oracles import stpc_power_formula

P = SystemParams()


def _stpc_oracle(distance: float, n_users: int) -> float:
    """``stpc_power`` at ``P`` in 40 digits: the constant times the load
    factor (2^(n v/W) - 1) / n times max(d/r0, 1)^alpha."""
    import mpmath
    c = derive_constants(P)
    with mpmath.workdps(40):
        m = mpmath.mpf
        const = m(P.snr_gap) * m(P.noise_psd) * m(P.bandwidth_w) / (
            m(P.ref_pathloss) * m(c.c1))
        load = mpmath.expm1(n_users * m(c.c2) * mpmath.log(2)) / n_users
        ratio = max(m(distance), m(P.ref_distance)) / m(P.ref_distance)
        return float(const * load * ratio ** m(P.pathloss_exp))


class TestStpcPower:
    def test_near_field_clamp(self):
        assert stpc_power(P.ref_distance / 2, 1, P) == \
            stpc_power(P.ref_distance, 1, P)

    def test_reference_value(self):
        # single user at the reference distance, high-precision oracle
        assert stpc_power(P.ref_distance, 1, P) == pytest.approx(
            4.1804473381051063e-7, rel=1e-12)

    def test_pathloss_power_law(self):
        lo = stpc_power(100.0, 1, P)
        hi = stpc_power(200.0, 1, P)
        assert hi == pytest.approx(8.0 * lo, rel=1e-12)

    def test_vectorized(self):
        out = stpc_power(np.array([5.0, 10.0, 20.0]), np.array([1, 2, 3]), P)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(stpc_power(5.0, 1, P), rel=1e-12)

    def test_overflow_guard(self):
        with pytest.raises(PowerOverflowError):
            stpc_power(10.0, 10 ** 6, P)

    def test_a_power_whose_path_loss_factor_overflows_is_a_float(self):
        # (d/r0)^alpha is 1e309 at 1e104 m, but the rest of the product is
        # about 4e-7 W, so the power is a float, yet it raised
        # PowerOverflowError; formed in logs, its exp carries about
        # |log P| eps, 1.6e-13 at most
        want = _stpc_oracle(1e104, 1)  # about 4.18e302 W
        assert stpc_power(1e104, 1, P) == pytest.approx(want, rel=2e-13)
        out = stpc_power(np.array([10.0, 1e104]), 1, P)
        assert out[0] == stpc_power(10.0, 1, P)  # a float product: its bits
        assert out[1] == pytest.approx(want, rel=2e-13)
        # measured: 1.6e-14 here, at most 1.5e-13 over alpha 2.2-6, 1-20
        # users and 1e20-1e160 m; 4.2e320 W at 1e110 m is past the range
        with pytest.raises(PowerOverflowError, match="not a finite float"):
            stpc_power(1e110, 1, P)

    def test_rejects_zero_users(self):
        with pytest.raises(ValueError):
            stpc_power(10.0, 0, P)

    @given(alpha=st.sampled_from([2.5, 3.0, 3.7, 4.0]),
           d=st.lists(st.floats(0.0, 5_000.0), min_size=1, max_size=6),
           n=st.lists(st.integers(1, 60), min_size=1, max_size=6),
           layout=st.sampled_from(["scalar", "d_array", "n_array", "same",
                                   "outer", "outer_t"]))
    def test_bit_identical_to_the_formula(self, alpha, d, n, layout):
        # distances include d < r0; n broadcasts against d both ways
        p = SystemParams(pathloss_exp=alpha)
        dist, users = {
            "scalar": (d[0], n[0]),
            "d_array": (np.array(d), n[0]),
            "n_array": (d[0], np.array(n)),
            "same": (np.array(d), np.resize(np.array(n), len(d))),
            "outer": (np.array(d)[:, None], np.array(n, dtype=float)),
            "outer_t": (np.array(d), np.array(n)[:, None]),
        }[layout]
        got, want = stpc_power(dist, users, p), stpc_power_formula(dist, users, p)
        assert type(got) is type(want)
        assert np.array_equal(got, want)
        if isinstance(got, np.ndarray):
            assert got.shape == want.shape and got.dtype == want.dtype

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 3.7, 4.0])
    def test_long_arrays_bit_identical_to_the_formula(self, alpha):
        # long enough for numpy's vectorised loops, as the simulator calls it
        p = SystemParams(pathloss_exp=alpha)
        rng = np.random.default_rng(17)
        d = 2_000.0 * np.sqrt(rng.random(70_001))
        n = rng.integers(1, 60, d.size)
        for users in (1, n):
            got = stpc_power(d, users, p)
            assert np.array_equal(got, stpc_power_formula(d, users, p))


class TestAvgTransmitPower:
    def test_zero_coverage(self):
        assert avg_transmit_power(0.0, 1e-5, P) == 0.0
        assert avg_transmit_power(1000.0, 0.0, P) == 0.0

    def test_reference_value(self):
        assert avg_transmit_power(1000.0, 1e-5, P) == pytest.approx(
            7.336041129877031, rel=1e-12)

    def test_strictly_increasing_in_both_arguments(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            r = float(rng.uniform(10.0, 3000.0))
            lam = float(rng.uniform(1e-7, 1e-4))
            base = avg_transmit_power(r, lam, P)
            assert avg_transmit_power(r * 1.01, lam, P) > base
            assert avg_transmit_power(r, lam * 1.01, P) > base

    def test_midpoint_convexity_in_x(self):
        rng = np.random.default_rng(12)
        lam = 3e-5
        f = lambda x: avg_transmit_power(math.sqrt(x), lam, P)
        for _ in range(50):
            a, b = sorted(rng.uniform(1.0, 4e6, size=2))
            assert f(0.5 * (a + b)) <= 0.5 * (f(a) + f(b)) * (1.0 + 1e-12)

    def test_purity(self):
        assert avg_transmit_power(777.0, 2e-5, P) == \
            avg_transmit_power(777.0, 2e-5, P)


class TestExactExpression:
    def test_agreement_at_benchmark_point(self):
        # frozen oracle: the two closing approximations together cost
        # 1.41% relative at R=1000 m, lambda=1e-5
        approx = avg_transmit_power(1000.0, 1e-5, P)
        exact = avg_transmit_power_exact(1000.0, 1e-5, P)
        assert exact == pytest.approx(7.4410054554208176, rel=1e-12)
        assert abs(approx - exact) / exact == pytest.approx(0.0141062, rel=1e-3)

    def test_near_field_correction_share(self):
        # the r0 term's share of the geometry factor at R = 10 r0 is
        # alpha*r0^(alpha+2)/(2 R^(alpha+2)) = 1.5e-5 for alpha=3
        r = 10.0 * P.ref_distance
        share = P.pathloss_exp * P.ref_distance ** (P.pathloss_exp + 2.0) \
            / (2.0 * r ** (P.pathloss_exp + 2.0))
        assert share == pytest.approx(1.5e-5, rel=1e-12)

    def test_vanishes_with_density(self):
        assert avg_transmit_power_exact(1000.0, 0.0, P) == 0.0


class TestBsPower:
    def test_sleep_at_zero_radius(self):
        assert bs_power(0.0, 1e-5, P) == P.sleep_power == 0.0

    def test_jump_at_switch_on(self):
        assert bs_power(1e-9, 1e-5, P) == pytest.approx(P.static_power,
                                                        rel=1e-9)

    def test_benchmark_value(self):
        assert bs_power(1000.0, 1e-5, P) == pytest.approx(
            120.0 + 7.336041129877031, rel=1e-12)


def _radius(density, budget):
    """Coverage radius with consumption exactly at ``budget``."""
    return math.sqrt(max_range_x(density, budget - P.static_power, P))


class TestMaxRange:
    def test_round_trip(self):
        for r0 in (200.0, 800.0, 1500.0):
            budget = bs_power(r0, 2e-5, P)
            assert _radius(2e-5, budget) == pytest.approx(r0, rel=1e-8)

    def test_bs_power_round_trip_tolerance(self):
        r = _radius(5e-5, 160.0)
        assert abs(bs_power(r, 5e-5, P) - 160.0) <= 1e-6 * 160.0

    def test_frozen_value(self):
        # root of the 40 W transmit budget equation at density 5e-5
        assert _radius(5e-5, 160.0) == pytest.approx(
            833.59890042925486, rel=1e-9)

    def test_decreasing_in_density(self):
        assert _radius(4e-5, 160.0) > _radius(8e-5, 160.0)

    def test_budget_below_static_rejected(self):
        with pytest.raises(InfeasibleBudgetError):
            _radius(1e-5, P.static_power)
        for budget in (math.nan, math.inf):
            with pytest.raises(ValueError, match="budget"):
                _radius(1e-5, budget)
