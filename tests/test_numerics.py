import math
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, strategies as st
from scipy import optimize

from greencell import numerics, scaling
from greencell.numerics import (ConvergenceError, NonFiniteIntegrandError,
                                bracketed_newton, conditional_expect, expect,
                                lambert_w0)
from oracles import (Bracket, NoSignChangeError, bisect, grow_bracket,
                     minimize_bounded)
from greencell.optimal import x1_star
from greencell.params import SystemParams
from greencell.traffic import triangular


class TestLambertW:
    def test_anchor_values(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)
        assert lambert_w0(1.0) == pytest.approx(0.56714329040978387, rel=1e-14)

    def test_round_trip_identity_on_log_grid(self):
        for y in np.logspace(-12, 12, 200):
            w = lambert_w0(float(y))
            assert abs(w * math.exp(w) - y) <= 1e-12 * max(1.0, y)

    def test_strictly_increasing(self):
        ys = np.logspace(-12, 12, 200)
        ws = [lambert_w0(float(y)) for y in ys]
        assert all(b > a for a, b in zip(ws, ws[1:]))

    def test_matches_scipy(self):
        for y in (1e-6, 0.5, 3.0, 1e4, 1e10):
            assert lambert_w0(y) == pytest.approx(
                float(scipy.special.lambertw(y).real), rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lambert_w0(-1.0)


@given(st.floats(0.0, 1e300))
@example(0.0)
@example(5e-324)
@example(math.e)
@example(1e300)
def test_winitzki_start_is_within_two_percent(y):
    # the start of lambert_w0 and the kernels' Newton seeds
    w = lambert_w0(y)
    assert abs(numerics._winitzki(np.array([y]))[0] - w) <= 0.02 * w


class TestKernelSeeds:
    """Newton steps of the per-density kernels from Winitzki's W against
    full-precision W, per density on a grid."""

    LAMS = np.geomspace(1e-8, 1e-4, 41)

    @staticmethod
    def _steps(monkeypatch, kernel_calls, exact_w):
        real = numerics.newton_log
        steps = []

        def counting(fn, x0, *args):
            steps.append(0)

            def counted(*a):
                steps[-1] += 1
                return fn(*a)
            return real(counted, x0, *args)

        with monkeypatch.context() as m:
            m.setattr(scaling, "newton_log", counting)
            if exact_w:
                m.setattr(scaling, "_winitzki", lambert_w0)
            xs = [call() for call in kernel_calls]
        return np.array(steps), np.array(xs)

    def _compare(self, monkeypatch, kernel_calls):
        new, x_new = self._steps(monkeypatch, kernel_calls, False)
        old, x_old = self._steps(monkeypatch, kernel_calls, True)
        np.testing.assert_allclose(x_new, x_old, rtol=1e-14)
        assert new.max() <= 4
        return new, old

    @staticmethod
    def _params():
        for static, alpha in product((20.0, 60.0, 120.0), (3.0, 3.7)):
            yield SystemParams(static_power=static, pathloss_exp=alpha)

    def test_x1_star_takes_no_more_steps(self, monkeypatch):
        calls = [lambda lam=float(lam), mu=float(mu), p=p: x1_star(lam, mu, p)
                 for p in self._params() for lam in self.LAMS
                 for mu in np.geomspace(1.0, 1e4, 13)]
        new, old = self._compare(monkeypatch, calls)
        assert (new <= old).all()

    def test_max_range_x_takes_at_most_one_more_step(self, monkeypatch):
        # 11 of these 1,476 points take a fourth step where full-precision
        # W took 3, all with alpha = 3 and load exponents of 2.8 to 3.1 nats
        calls = [lambda lam=float(lam), p=p, f=f: scaling.max_range_x(
                     lam, f * (p.max_bs_power - p.static_power), p)
                 for p in self._params() for lam in self.LAMS
                 for f in (0.01, 0.1, 0.3, 0.6, 0.9, 1.0)]
        new, old = self._compare(monkeypatch, calls)
        assert (new <= old + 1).all()
        assert (new > old).sum() <= 11


class TestBisect:
    def test_linear(self):
        root = bisect(lambda x: x - 2.0, Bracket.from_function(
            lambda x: x - 2.0, 0.0, 10.0))
        assert root == pytest.approx(2.0, abs=1e-9)

    def test_sqrt2(self):
        f = lambda x: x * x - 2.0
        root = bisect(f, Bracket.from_function(f, 1.0, 2.0))
        assert root == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_invariant_to_bracket_widening(self):
        f = lambda x: x ** 3 - 7.0
        a = bisect(f, Bracket.from_function(f, 1.0, 3.0))
        b = bisect(f, Bracket.from_function(f, 0.0, 100.0))
        assert a == pytest.approx(b, rel=1e-8)

    def test_stationarity_root_matches_solver(self):
        # root of the consumption-versus-coverage trade-off derivative,
        # frozen from a high-precision scan at density 5e-5, price 1.05
        x = x1_star(5e-5, 1.05, SystemParams())
        assert x == pytest.approx(628228.30900637396, rel=1e-8)

    def test_no_sign_change_raises(self):
        with pytest.raises(NoSignChangeError):
            Bracket.from_function(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_grow_bracket_finds_change(self):
        f = lambda x: x - 1000.0
        b = grow_bracket(f, 0.0, 1.0)
        assert b.lo <= 1000.0 <= b.hi


class TestBracketedNewton:
    def _logged(self, g, slope=None):
        calls = []

        def fn(x):
            calls.append(x)
            return g(x), None if slope is None else slope(x)
        return fn, calls

    def test_root_from_either_side_is_on_the_good_side(self):
        # g >= 0 below sqrt(2) here, so the good end is the low one
        g = lambda x: 2.0 - x * x
        fn, calls = self._logged(g, lambda x: -2.0 * x)
        for start in (0.5, 1.9):
            root = bracketed_newton(fn, 0.0, 2.0, start, 1e-12)
            assert g(root) >= 0.0
            assert root == pytest.approx(math.sqrt(2.0), abs=2e-12)
            assert root in calls  # an evaluated point
        assert len(calls) <= 16

    def test_ends_in_either_order(self):
        g = lambda x: x - 3.0  # good side above the root
        fn, _ = self._logged(g, lambda x: 1.0)
        root = bracketed_newton(fn, 10.0, 0.0, 1.0, 1e-12)
        assert 3.0 <= root <= 3.0 + 1e-12

    def test_secant_without_a_slope(self):
        g = lambda x: math.exp(-x) - 0.25  # good side below log 4
        fn, calls = self._logged(g)
        root = bracketed_newton(fn, 0.0, 5.0, 2.0, 1e-12)
        assert root == pytest.approx(math.log(4.0), abs=2e-12)
        assert g(root) >= 0.0
        assert len(calls) <= 12

    def test_zero_slope_falls_back_to_bisection(self):
        g = lambda x: 1.0 if x < 0.3 else -1.0
        fn, calls = self._logged(g, lambda x: 0.0)
        root = bracketed_newton(fn, 0.0, 1.0, 0.9, 1e-9)
        assert 0.3 - 1e-9 <= root < 0.3
        assert len(calls) <= 35

    def test_infinite_value_takes_no_secant(self):
        # a secant through an infinite g has an infinite slope, and so a
        # zero step that would end the search at 0.2
        g = lambda x: math.inf if x < 0.1 else 0.3 - x
        fn, calls = self._logged(g)
        root = bracketed_newton(fn, 0.0, 0.35, 0.05, 1e-9)
        assert 0.3 - 1e-9 <= root <= 0.3
        assert calls[1] == pytest.approx(0.2)
        assert all(math.isfinite(x) for x in calls)

    def test_exact_root_ends_the_search(self):
        # a zero slope gives no step; g = 0 is a root all the same
        fn, calls = self._logged(lambda x: 0.0 if x >= 0.25 else -1.0,
                                 lambda x: 0.0)
        assert bracketed_newton(fn, 1.0, 0.0, 0.5, 1e-12) == 0.5
        assert calls == [0.5]

    def test_tolerance_below_the_float_grain_still_converges(self):
        # near 300 floats are 5.7e-14 apart, so no step of tol / 2 leaves
        # the bad side of this concave g, on which Newton stays: the steps
        # aim a float spacing past the root, 3e-15 above the float ``at``
        at = 300.0 + 1.23456e-10
        g = lambda x: math.log1p((x - at) / at) - 1e-17
        fn, calls = self._logged(g, lambda x: 1.0 / x)
        got = bracketed_newton(fn, 400.0, 200.0, 250.0, 1e-14)
        assert g(got) >= 0.0
        assert at < got <= at + 2.0 * math.ulp(at)
        assert len(calls) <= 10

    def test_a_bracket_without_a_float_inside_ends_the_search(self):
        # a g that steps over its root between two adjacent floats
        bad = 1.0
        good = math.nextafter(bad, 2.0)
        fn, calls = self._logged(lambda x: 1.0 if x >= good else -1.0,
                                 lambda x: 0.0)
        assert bracketed_newton(fn, 2.0, 0.0, 0.5, 1e-300) == good
        assert len(calls) <= 60

    def test_an_exhausted_budget_raises(self):
        # halving from [0, 1] needs about 1,000 steps to reach 1e-300; the
        # search had returned the good end, 7.9e-31, after 100
        with pytest.raises(ConvergenceError, match="100 evaluations"):
            bracketed_newton(lambda x: (x - 1e-300, 0.0), 1.0, 0.0, 0.5, 0.0)


class TestMinimizeBounded:
    # the oracle for FRwOFC's cut-off, itself checked against SciPy; odd
    # cases put the minimum within the search's tolerance of an end, where a
    # parabolic step has to be pulled back from the bound
    @pytest.mark.parametrize("case", range(40))
    def test_takes_the_reference_method_step_for_step(self, case):
        rng = np.random.default_rng(case)
        a, b, c = rng.uniform(-3.0, 3.0, 3)
        lo, hi = sorted(rng.uniform(-5.0, 5.0, 2))
        xatol = 10.0 ** rng.uniform(-12.0, -3.0)
        if case % 2:
            tol = 1.5e-8 * max(abs(lo), abs(hi)) + xatol
            c = (lo if case % 4 == 1 else hi) + rng.uniform(-1.0, 1.0) * tol
            b = 0.0

        def f(x):
            return (x - c) ** 2 * (1.0 + 0.3 * math.sin(a * x)) \
                + b * abs(x) ** 1.5
        ref_points, points = [], []
        res = optimize.minimize_scalar(
            lambda x: ref_points.append(x) or f(x), bounds=(lo, hi),
            method="bounded", options={"xatol": xatol})
        got = minimize_bounded(lambda x: points.append(x) or f(x), lo, hi,
                               xatol)
        assert points == ref_points
        assert got == (float(res.x), float(res.fun))


def test_package_imports_without_scipy():
    # the child imports greencell from where this process found it, so the
    # test needs no PYTHONPATH or installed package
    src = str(Path(numerics.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import greencell; "
            "assert 'scipy' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True)


class TestExpectation:
    def setup_method(self):
        self.dist = triangular(1e-4)

    def test_pdf_normalization(self):
        assert expect(lambda lam: 1.0, self.dist) == pytest.approx(1.0, abs=1e-8)

    def test_mean_is_half_support(self):
        assert expect(lambda lam: lam, self.dist) == pytest.approx(5e-5, rel=1e-8)

    def test_second_moment(self):
        # piecewise-polynomial closed form: (7/24) * lambda_max^2
        want = 7.0 / 24.0 * 1e-8
        assert expect(lambda lam: lam * lam, self.dist) == pytest.approx(
            want, rel=1e-8)

    def test_conditional_at_zero_cutoff_equals_expect(self):
        g = lambda lam: math.sin(lam * 1e4) + 2.0
        assert conditional_expect(g, self.dist, 0.0) == pytest.approx(
            expect(g, self.dist), rel=1e-9)

    def test_conditional_at_full_cutoff_is_zero(self):
        assert conditional_expect(lambda lam: 1.0, self.dist, 1e-4) == 0.0

    def test_conditional_tail_probability_at_midpoint(self):
        assert conditional_expect(lambda lam: 1.0, self.dist, 5e-5) == \
            pytest.approx(0.5, rel=1e-8)

    def test_breakpoint_handles_jump(self):
        cut = 3.3e-5
        g = lambda lam: 1.0 if lam >= cut else 0.0
        got = expect(g, self.dist, breakpoints=(cut,))
        assert got == pytest.approx(1.0 - self.dist.cdf(cut), rel=1e-7)

    def test_cutoff_outside_support_rejected(self):
        with pytest.raises(ValueError):
            conditional_expect(lambda lam: 1.0, self.dist, 2e-4)

    def test_non_finite_integrand_reported(self):
        with pytest.raises(NonFiniteIntegrandError):
            expect(lambda lam: math.inf, self.dist)


def test_gauss_legendre_rule_is_numpys_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(20)
    assert numerics.GL_RULE[0].tobytes() == nodes.tobytes()
    assert numerics.GL_RULE[1].tobytes() == weights.tobytes()
