"""Monte Carlo ground truth: Poisson user drops and their summed transmit power."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import SystemParams, derive_constants
from .scaling import _check_load, _check_nonneg_finite, stpc_power

_TRIAL_CHUNK = 20_000
# most users drawn and powered at once; bounds the simulator's working memory
_PIECE_USERS = 1 << 16


def make_rng(seed: int) -> np.random.Generator:
    """The simulator's RNG: numpy's default (PCG64) seeded by ``seed``."""
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    std_err: float
    trials: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.std_err < 0.0:
            raise ValueError("std_err must be >= 0")


def simulate_total_power(density: float, radius: float, p: SystemParams,
                         trials: int, rng: np.random.Generator) -> McEstimate:
    """Empirical mean of the summed per-user transmit power over many drops.

    Each trial draws a Poisson user population, places it uniformly in the
    disc and sums the short-term power control output; trials with zero
    users contribute zero.  Per chunk of trials the Poisson counts are drawn
    first, as one histogram over ``_poisson_window``'s counts, then the
    users piece by piece (see ``_trial_sums``), so memory stays bounded
    however large ``density * radius**2`` grows.  The histogram of n iid
    Poisson(m) counts is Multinomial(n, pmf) (Devroye, Non-Uniform Random
    Variate Generation, 1986), so one ``rng.multinomial`` draws a chunk's
    counts: exact up to the window's excluded mass, with no per-count draw.
    The chunk's trials take the counts in ascending order, so trial i is
    not the i-th count drawn; every trial still draws its own users, and
    the mean and standard error do not depend on the order of the trials.
    A mean of 0 draws nothing.  Besides drawing and powering its users, a
    20,000-trial op costs about 130 us on a 2-core x86-64 host (measured
    at 250 m and 1e-9 users/m^2, where almost every trial is empty).
    ``rng`` is any ``numpy.random.Generator``, such as one from
    ``make_rng``; it is left past each chunk's histogram and users.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy.random.Generator: {rng!r}")
    _check_nonneg_finite(density=density, radius=radius)
    mean_count = density * math.pi * radius * radius
    per_trial = np.zeros(trials)
    if mean_count > 0.0:
        lo, pmf = _poisson_window(mean_count, p)
        for done in range(0, trials, _TRIAL_CHUNK):
            out = per_trial[done:done + _TRIAL_CHUNK]
            _trial_sums(out, lo, rng.multinomial(out.size, pmf), radius, p,
                        rng)
    # mean and std(ddof=1) in numpy's own steps, so with their bits, but
    # in per_trial itself, with no second array as long as the trials
    mean = np.add.reduce(per_trial, keepdims=True)
    mean /= trials
    se = 0.0
    if trials > 1:
        per_trial -= mean
        np.square(per_trial, out=per_trial)
        se = math.sqrt(np.add.reduce(per_trial) / (trials - 1)) \
            / math.sqrt(trials)
    return McEstimate(mean=float(mean[0]), std_err=se, trials=trials)


def _poisson_window(mean: float, p: SystemParams):
    """The counts lo..hi a Poisson(``mean``) draw takes, and their pmf.

    lo = max(0, floor(mean - 12 sqrt(mean) - 10)) and hi = floor(mean +
    12 sqrt(mean) + 20); the pmf is normalised over the window, from log
    p(lo) by ``math.lgamma`` and each later term by adding log(mean / k).
    The Poisson mass outside the window is below 1.5e-32.  When lo already
    breaks the load guard (``_check_load``), so would every count in the
    window, and PowerOverflowError is raised before the table is built, so
    that an absurd mean costs no table of its size.  Returns ``(lo, pmf)``.
    """
    spread = 12.0 * math.sqrt(mean)
    # inf - inf would be nan: an infinite mean starts past any guard
    lo = max(0, math.floor(mean - spread - 10.0)) if mean < math.inf else mean
    _check_load(lo * derive_constants(p).c2)
    k = np.arange(lo + 1, math.floor(mean + spread + 20.0) + 1)
    pmf = np.exp(np.cumsum(np.concatenate((
        [lo * math.log(mean) - mean - math.lgamma(lo + 1)], np.log(mean / k)))))
    return lo, pmf / pmf.sum()


def _edge_fraction(uniforms: np.ndarray, radius: float,
                   p: SystemParams) -> np.ndarray:
    """Turn uniforms v in place into each user's share of the edge power.

    A user at distance R sqrt(v) needs stpc_power(R sqrt(v)) = stpc_power(R)
    max(v, (r0/R)^2)^(alpha/2) when R > r0; the floor is 1 when R <= r0,
    where every user needs stpc_power(r0) = stpc_power(R) and the share is
    exactly 1.  Computed as exp(alpha/2 log max(v, floor)), with no array
    allocated; returns ``uniforms``.
    """
    floor = (p.ref_distance / max(radius, p.ref_distance)) ** 2
    np.maximum(uniforms, floor, out=uniforms)
    np.log(uniforms, out=uniforms)
    uniforms *= 0.5 * p.pathloss_exp
    return np.exp(uniforms, out=uniforms)


def _trial_sums(out: np.ndarray, lo: int, hist: np.ndarray, radius: float,
                p: SystemParams, rng: np.random.Generator) -> None:
    """Write each busy trial's summed STPC power into the chunk ``out``.

    ``hist[k]`` trials of the chunk hold ``lo + k`` users.  The trials take
    the counts in ascending order, so the empty ones are ``out``'s prefix,
    never read or written, and each run of equal counts is a contiguous
    slice of the busy suffix.  A user at distance R sqrt(v), v uniform,
    needs its trial's edge power stpc_power(R, n) times ``_edge_fraction``'s
    share, which depends on v alone: all users of a trial share its load,
    and only the path loss is per user.  So each piece of uniforms becomes
    shares in place, one ``reduceat`` sums them per trial, and each trial's
    sum is scaled once by its edge power.  The edge power depends on the
    count alone, so it comes from one ``stpc_power`` call over the distinct
    counts drawn, with its load guard, before any user is drawn: bit for
    bit what one call per trial gives.  ``np.repeat`` over the runs gives
    each trial its edge power and the user offsets ``bounds``: busy trial
    i's users are ``bounds[i]`` to ``bounds[i + 1]``, and in a run of
    n-user trials bounds[i + 1] is (i + 1) n plus the users through the
    run less n times the trials through it.  No mask, gather, scatter or
    cumulative sum runs over the trials.  The users are drawn in pieces of
    at most ``_PIECE_USERS`` users, cut at trial boundaries, into one
    reused buffer; a piece holds at least one trial, so one trial larger
    than the bound is a piece of its own.  Consecutive ``rng.random`` calls
    continue one stream, and every trial is reduced over the same elements
    in the same order, so the sums do not depend on the piece size.
    Ascending counts keep ``reduceat``'s segment lengths predictable, which
    halves its cost.
    """
    skip = int(lo == 0)  # the count 0, of the empty trials
    runs = skip + np.flatnonzero(hist[skip:])
    n, reps = lo + runs, hist[runs]
    edge = stpc_power(radius, n, p)
    busy = out[out.size - int(reps.sum()):]
    bounds = np.arange(busy.size + 1)
    bounds[1:] *= np.repeat(n, reps)
    bounds[1:] += np.repeat(np.cumsum(n * reps) - np.cumsum(reps) * n, reps)
    work = np.empty(min(int(bounds[-1]), _PIECE_USERS))
    first, start = 0, 0
    while first < busy.size:
        last = max(int(np.searchsorted(bounds, start + _PIECE_USERS,
                                       side="right")) - 1, first + 1)
        stop = int(bounds[last])
        if stop - start > work.size:
            work = np.empty(stop - start)
        shares = work[:stop - start]
        rng.random(out=shares)
        np.add.reduceat(_edge_fraction(shares, radius, p),
                        bounds[first:last] - start, out=busy[first:last])
        first, start = last, stop
    busy *= np.repeat(edge, reps)
