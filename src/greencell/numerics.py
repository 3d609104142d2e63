"""Shared numerics: Lambert W, one scalar root finder, Gauss-Legendre rules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its iteration budget."""


class NonFiniteIntegrandError(ValueError):
    """The integrand returned a non-finite value."""

    def __init__(self, value: float, at: float):
        super().__init__(f"integrand returned {value} at lambda={at}")
        self.at = at


# --- array plumbing shared by the per-density kernels -----------------------

def as_arrays(*values):
    """Broadcast ``values`` to flat float arrays; returns (shape, arrays).

    Kernels compute on the flat arrays and hand their result to ``shaped``,
    so a float argument gives a float and an array gives an array.  Scalars
    and arrays take the same numpy code path, which keeps their results
    bit-identical.
    """
    arrays = [np.asarray(v, dtype=float) for v in values]
    shape = np.broadcast(*arrays).shape
    flat = []
    for a in arrays:
        if a.shape != shape:
            # filling a fresh array costs a fraction of np.broadcast_to
            full = np.empty(shape)
            full[...] = a
            a = full
        flat.append(a.ravel())
    return shape, flat


def shaped(flat: np.ndarray, shape):
    """Undo ``as_arrays``: a 0-d shape gives a float."""
    return float(flat[0]) if shape == () else flat.reshape(shape)


def as_densities(density) -> tuple:
    """``as_arrays`` of one density argument, (shape, array); ValueError
    unless every density is finite and >= 0."""
    shape, (lam,) = as_arrays(density)
    bad = ~((lam >= 0.0) & (lam < math.inf))
    if bad.any():
        raise ValueError(f"density must be finite and >= 0, got {lam[bad][0]}")
    return shape, lam


# --- scalar roots -----------------------------------------------------------

def bracketed_newton(fn: Callable[[float], tuple], good: float, bad: float,
                     x: float, tol: float) -> float:
    """Root of g between ``good`` (g >= 0) and ``bad`` (g < 0), either order.

    ``fn(x)`` returns g(x) and its slope, or None for the secant through the
    point evaluated before (after the first point or an infinite g, the
    midpoint); a zero slope also gives the midpoint.  Newton
    starts from ``x``; a point outside the bracket, which each evaluation
    shrinks, is replaced by its midpoint.  Steps aim eps / 2 past the root
    into the good side, eps = ``tol`` or two float spacings at x, if more.
    So the result is an evaluated point with g >= 0 within about eps of the
    root, the first with g = 0, or the good end once the bracket is
    narrower than ``tol`` or holds no float; ConvergenceError at 100 calls.
    """
    prev = None
    for _ in range(100):
        if abs(bad - good) <= tol or math.nextafter(good, bad) == bad:
            return good
        if not min(good, bad) < x < max(good, bad):
            x = 0.5 * (good + bad)
        g, slope = fn(x)
        good, bad = (x, bad) if g >= 0.0 else (good, x)
        if slope is None and prev is not None and x != prev[0]:
            slope = (g - prev[1]) / (x - prev[0])
        prev = (x, g) if math.isfinite(g) else None
        step = -g / slope if slope else math.nan
        eps = max(tol, 2.0 * math.ulp(x))  # no finer than the grain of x
        if g == 0.0 or (abs(step) <= eps and g >= 0.0):
            return x
        x += step + math.copysign(0.5 * eps, good - bad)
    raise ConvergenceError(f"no root in 100 evaluations: [{good}, {bad}]")


# a step below this leaves an error of about its square: full double precision
NEWTON_STEP_TOL = 1e-9
# largest step in log x, guarding the first step from a poor seed
NEWTON_STEP_CAP = 30.0
NEWTON_MAX_ITER = 60


def newton_log(fn, x0: np.ndarray, *args: np.ndarray) -> np.ndarray:
    """Elementwise root of an increasing function of s = log x by Newton.

    ``fn(x, *args)`` returns the function value and its derivative in s
    for the active elements; ``args`` are per-element arrays aligned with
    ``x0``.  Each element stops on its own once its step falls below
    ``NEWTON_STEP_TOL``, so its result does not depend on the others.
    Steps are applied as factors on x, so x keeps full relative precision.
    An element whose step is NaN (as from a seed that is not positive and
    finite) or that has not stopped in ``NEWTON_MAX_ITER`` steps is NaN.
    """
    x = np.array(x0, dtype=float)
    active = np.arange(x.size)
    for _ in range(NEWTON_MAX_ITER):
        if not active.size:
            return x
        xa = x[active]
        g, slope = fn(xa, *(a[active] for a in args))
        step = np.minimum(np.maximum(g / slope, -NEWTON_STEP_CAP),
                          NEWTON_STEP_CAP)
        x[active] = xa * np.exp(-step)
        active = active[np.abs(step) > NEWTON_STEP_TOL]
    x[active] = math.nan
    return x


def _winitzki(y: np.ndarray) -> np.ndarray:
    """Winitzki's approximation of W on an array y >= 0,
    ln(1+y) (1 - ln(1+ln(1+y)) / (2+ln(1+y))): within 2% of W for every
    y >= 0, and exact at 0."""
    ln1 = np.log1p(y)
    return ln1 * (1.0 - np.log1p(ln1) / (2.0 + ln1))


def lambert_w0(y):
    """Principal-branch Lambert W on the nonnegative axis.

    Returns w >= 0 with w * exp(w) = y, elementwise for arrays.  Starts
    from Winitzki's approximation (``_winitzki``); three Halley steps
    (cubic convergence) then reach full double precision on [0, 1e300].
    """
    shape, (y,) = as_arrays(y)
    if (y < 0.0).any():
        raise ValueError(f"lambert_w0 requires y >= 0, got {y.min()}")
    w = _winitzki(y)
    for _ in range(3):
        e = np.exp(w)
        f = w * e - y
        w = w - f / (e * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return shaped(w, shape)


# --- expectations over the density distribution -----------------------------

GRADING_RATIO = 0.15  # ratio of consecutive piece ends graded toward 0
GRADING_LEVELS = 8    # graded pieces per segment; the first spans b * r^8
# a ladder's rungs r^8 ... r^1 and its top 1, as fractions of its top
_LADDER = np.array([GRADING_RATIO ** k for k in range(GRADING_LEVELS, -1, -1)])
# each piece's 20-point Gauss-Legendre rule on [-1, 1], bit for bit numpy's
# polynomial.legendre.leggauss(20), without that package's import: the
# positive nodes and their weights, mirrored
_GL_X = np.array([0.07652652113349734, 0.22778585114164507,
                  0.37370608871541955, 0.5108670019508271, 0.636053680726515,
                  0.7463319064601508, 0.8391169718222188, 0.912234428251326,
                  0.9639719272779138, 0.993128599185095])
_GL_W = np.array([0.15275338713072628, 0.14917298647260424,
                  0.1420961093183824, 0.1316886384491769, 0.1181945319615186,
                  0.1019301198172407, 0.08327674157670471,
                  0.06267204833410879, 0.040601429800386446,
                  0.017614007139150893])
GL_RULE = (np.concatenate([-_GL_X[::-1], _GL_X]),
           np.concatenate([_GL_W[::-1], _GL_W]))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes in density and weights (Gauss-Legendre weight times pdf)."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values) -> float:
        """Sum of weights * values; values are the integrand at the nodes."""
        values = np.asarray(values, dtype=float)
        bad = ~np.isfinite(values)
        if bad.any():
            i = int(np.argmax(bad))
            raise NonFiniteIntegrandError(float(values[i]),
                                          float(self.nodes[i]))
        return float(self.weights @ values)


def gauss_legendre(dist, lo: float, hi: float,
                   breakpoints: Sequence[float] = ()) -> QuadratureRule:
    """Composite Gauss-Legendre rule for integrals of g * pdf over [lo, hi].

    Segments are split at ``breakpoints`` (policy thresholds, where the
    integrand jumps or kinks) and at the pdf's own kinks, then graded toward
    0, where integrands behave like powers of the density: [a, b] at the
    rungs b r^8 ... b r^1 above a of one ladder, pieces of ratio 1/r.  Each
    piece gets the 20 nodes of ``GL_RULE``, all interior, so none is at 0.
    """
    if not hi > lo:
        return QuadratureRule(np.empty(0), np.empty(0))
    inner = {float(c) for c in (*breakpoints, *dist.breakpoints)
             if lo < c < hi and math.isfinite(c)}
    cuts = np.array([-math.inf, lo, *sorted(inner), hi])
    # row k: the rungs below cut k above the cut before it, then cut k
    ladder = cuts[1:, None] * _LADDER
    keep = ladder > cuts[:-1, None]
    keep[0, :-1] = False
    edges = ladder[keep]
    t, w = GL_RULE
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * t).ravel()
    weights = (half * w).ravel() * np.asarray(dist.pdf(nodes), dtype=float)
    return QuadratureRule(nodes, weights)


def expect(g: Callable[[float], float], dist,
           breakpoints: Sequence[float] = ()) -> float:
    """E[g(lambda)] under ``dist``: integral of g * pdf over [0, lambda_max].

    ``breakpoints`` are declared discontinuities of g (policy cut-offs);
    the density's own kinks are always included as split points.  ``g`` is
    a scalar callable, evaluated once per node of ``gauss_legendre``.
    """
    return conditional_expect(g, dist, 0.0, breakpoints)


def conditional_expect(g: Callable[[float], float], dist, cutoff: float,
                       breakpoints: Sequence[float] = ()) -> float:
    """Integral of g * pdf over the upper tail [cutoff, lambda_max].

    Note: this is the *unnormalized* tail expectation (it is not divided
    by the tail probability).
    """
    lam_max = dist.lambda_max
    if not 0.0 <= cutoff <= lam_max:
        raise ValueError(f"cutoff {cutoff} outside [0, {lam_max}]")
    rule = gauss_legendre(dist, cutoff, lam_max, breakpoints)
    return rule.integrate([g(lam) for lam in rule.nodes.tolist()])
