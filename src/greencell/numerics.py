"""Shared numerical kernels: Lambert W, root finding, Gauss-Legendre expectations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np


class NoSignChangeError(ValueError):
    """The supplied interval does not bracket a sign change."""


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
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        arrays = [np.broadcast_to(a, shape) for a in arrays]
    return shape, [a.ravel() for a in arrays]


def shaped(flat: np.ndarray, shape):
    """Undo ``as_arrays``: a 0-d shape gives a float."""
    return float(flat[0]) if shape == () else flat.reshape(shape)


# --- root finding -----------------------------------------------------------

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
    """
    x = np.array(x0, dtype=float)
    if not (x > 0.0).all() or not np.isfinite(x).all():
        raise ValueError("Newton seeds must be positive and finite")
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
    if active.size:
        raise ConvergenceError(
            f"Newton did not converge in {NEWTON_MAX_ITER} iterations for "
            f"{active.size} element(s)")
    return x


def lambert_w0(y):
    """Principal-branch Lambert W on the nonnegative axis.

    Returns w >= 0 with w * exp(w) = y, elementwise for arrays.  Starts
    from Winitzki's approximation ln(1+y) (1 - ln(1+ln(1+y)) / (2+ln(1+y))),
    within 2% of W for every y >= 0; three Halley steps (cubic convergence)
    then reach full double precision on [0, 1e300].
    """
    shape, (y,) = as_arrays(y)
    if (y < 0.0).any():
        raise ValueError(f"lambert_w0 requires y >= 0, got {y.min()}")
    ln1 = np.log1p(y)
    w = ln1 * (1.0 - np.log1p(ln1) / (2.0 + ln1))
    for _ in range(3):
        e = np.exp(w)
        f = w * e - y
        w = w - f / (e * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return shaped(w, shape)


# --- expectations over the density distribution -----------------------------

GL_NODES = 20        # Gauss-Legendre nodes per piece
GRADING_RATIO = 0.15  # ratio of consecutive piece ends graded toward 0
GRADING_LEVELS = 8    # graded pieces per segment; the first spans b * r^8


@lru_cache(maxsize=None)
def _legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


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


def _piece_edges(a: float, b: float) -> list:
    """Left ends of the pieces of [a, b], graded geometrically toward 0.

    Integrands here behave like powers of the density near 0 (the
    power-capped range grows like lambda^(-2/(alpha+2))).  A segment from 0
    is split at b * r^k, k = 1..GRADING_LEVELS; any other one into equal
    geometric pieces whose ends differ by a factor of at most 1/r.  On such
    a piece the rule converges geometrically, and the first piece from 0 is
    too short (b * r^8) to matter.
    """
    if a <= 0.0:
        return [a] + [b * GRADING_RATIO ** k
                      for k in range(GRADING_LEVELS, 0, -1)]
    m = max(1, math.ceil(math.log(b / a) / -math.log(GRADING_RATIO)))
    return [a * (b / a) ** (i / m) for i in range(m)]


def gauss_legendre(dist, lo: float, hi: float,
                   breakpoints: Sequence[float] = ()) -> QuadratureRule:
    """Composite Gauss-Legendre rule for integrals of g * pdf over [lo, hi].

    Segments are split at ``breakpoints`` (policy thresholds, where the
    integrand jumps or kinks) and at the pdf's own kinks, then graded
    toward 0 (``_piece_edges``); every piece gets ``GL_NODES`` nodes.
    All nodes are interior, so integrands are never evaluated at 0.
    """
    if not hi > lo:
        return QuadratureRule(np.empty(0), np.empty(0))
    inner = {float(c) for c in (*breakpoints, *dist.breakpoints)
             if lo < c < hi and math.isfinite(c)}
    cuts = [lo, *sorted(inner), hi]
    edges = [e for a, b in zip(cuts, cuts[1:]) for e in _piece_edges(a, b)]
    edges = np.array(edges + [hi])
    t, w = _legendre(GL_NODES)
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
