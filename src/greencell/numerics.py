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


def all_set(mask: np.ndarray) -> bool:
    """Whether every element of the boolean array ``mask`` is set, at a
    third of the cost of ``mask.all()``: the kernels test one a step."""
    return np.count_nonzero(mask) == mask.size


def joined(parts: list) -> np.ndarray:
    """The arrays ``parts`` end to end, for one kernel call over them all;
    a single part is passed as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def split_like(values: np.ndarray, parts: list) -> list:
    """Undo ``joined``: ``values`` cut into views the sizes of ``parts``."""
    out, start = [], 0
    for a in parts:
        out.append(values[start:start + a.size])
        start += a.size
    return out


def as_densities(density) -> tuple:
    """``as_arrays`` of one density argument, (shape, array); ValueError
    unless every density is finite and >= 0."""
    shape, (lam,) = as_arrays(density)
    bad = ~((lam >= 0.0) & (lam < math.inf))
    if bad.any():
        raise ValueError(f"density must be finite and >= 0, got {lam[bad][0]}")
    return shape, lam


# --- scalar roots -----------------------------------------------------------

def newton_steps(good: float, bad: float, x: float, tol: float):
    """``bracketed_newton``'s search as a generator: it yields each point
    to evaluate, is sent back (g, slope) there, and returns the root."""
    prev = None
    for _ in range(100):
        if abs(bad - good) <= tol or math.nextafter(good, bad) == bad:
            return good
        if not min(good, bad) < x < max(good, bad):
            x = 0.5 * (good + bad)
        g, slope = yield x
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
    The search itself is ``newton_steps``.
    """
    search = newton_steps(good, bad, x, tol)
    send = search.send
    try:
        x = next(search)
        while True:
            x = send(fn(x))
    except StopIteration as stop:
        return stop.value


def newton_search(fn, good: float, bad: float, x: float, tol: float):
    """``bracketed_newton`` inside a search that ``lockstep`` drives:
    ``fn(x)`` is a generator returning (g, slope), whose requests pass
    through.  Run it with ``yield from``, which returns the root."""
    search = newton_steps(good, bad, x, tol)
    try:
        x = next(search)
        while True:
            x = search.send((yield from fn(x)))
    except StopIteration as stop:
        return stop.value


def lockstep(searches: Sequence, evaluate: Callable[[list], list]) -> list:
    """Run generator ``searches`` together; what each returns, in order.

    A search yields a request and is sent its answer.  Each round, the
    requests of every unfinished search go into one ``evaluate(requests)``
    call, which answers them in order.  An exception, raised by a search or
    by ``evaluate``, propagates at once.
    """
    out = [None] * len(searches)
    asks = {}

    def advance(i: int, answer=None):
        try:
            asks[i] = searches[i].send(answer)
        except StopIteration as stop:
            out[i] = stop.value

    for i in range(len(searches)):
        advance(i)
    while asks:
        ids = list(asks)
        for i, answer in zip(ids, evaluate([asks.pop(i) for i in ids])):
            advance(i, answer)
    return out


def by_runs(values, fn: Callable[[float], tuple]) -> tuple:
    """``fn(v)``, a tuple of floats formed in Python math, for a float v or
    an array of one value; for a flat array of several, each run of equal
    values' tuple, repeated over the run as arrays.  A kernel given one
    price per element so forms each price's scalars once, with the bits of
    a call at that price alone."""
    if not isinstance(values, np.ndarray):
        return fn(values)
    if not values.size:  # scalars that reach no element: any valid price
        return fn(1.0)
    starts = [0, *(np.flatnonzero(values[1:] != values[:-1]) + 1).tolist()]
    if len(starts) == 1:
        return fn(float(values[0]))
    counts = np.diff([*starts, values.size])
    columns = zip(*(fn(v) for v in values[starts].tolist()))
    return tuple(np.repeat(c, counts) for c in columns)


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
    active, xa = np.arange(x.size), x  # xa, args: at the active elements
    for _ in range(NEWTON_MAX_ITER):
        if not active.size:
            return x
        g, slope = fn(xa, *args)
        step = np.minimum(np.maximum(g / slope, -NEWTON_STEP_CAP),
                          NEWTON_STEP_CAP)
        xa = xa * np.exp(-step)
        go = np.abs(step) > NEWTON_STEP_TOL
        if not all_set(go):  # keep the stopped x; go on with the rest
            x[active] = xa
            active, xa = active[go], xa[go]
            args = [a[go] for a in args]
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
        if not all_set(np.isfinite(values)):
            i = int(np.argmax(~np.isfinite(values)))
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
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]  # np.diff, less its cost
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
