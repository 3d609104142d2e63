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
    first, as one histogram (see ``_poisson_counts``), then the users piece
    by piece (see ``_trial_sums``), so memory stays bounded however large
    ``density * radius**2`` grows.  The counts come in ascending order, so
    trial i of a chunk is not the i-th count drawn; every trial still draws
    its own users, and the mean and standard error do not depend on the
    order of the trials.  ``rng`` is any ``numpy.random.Generator``, such
    as one from ``make_rng``; it is left past each chunk's counts and
    users.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy.random.Generator: {rng!r}")
    _check_nonneg_finite(density=density, radius=radius)
    mean_count = density * math.pi * radius * radius
    per_trial = np.zeros(trials)
    done = 0
    while done < trials:
        chunk = min(_TRIAL_CHUNK, trials - done)
        counts = _poisson_counts(mean_count, chunk, p, rng)
        _trial_sums(per_trial[done:done + chunk], counts, radius, p, rng)
        done += chunk
    mean = float(per_trial.mean())
    if trials > 1:
        se = float(per_trial.std(ddof=1) / math.sqrt(trials))
    else:
        se = 0.0
    return McEstimate(mean=mean, std_err=se, trials=trials)


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


def _poisson_counts(mean: float, size: int, p: SystemParams,
                    rng: np.random.Generator) -> np.ndarray:
    """``size`` iid Poisson(``mean``) counts, in ascending order.

    The histogram of n iid Poisson(m) counts is Multinomial(n, pmf)
    (Devroye, Non-Uniform Random Variate Generation, 1986), so one
    ``rng.multinomial`` over ``_poisson_window``'s pmf draws the whole
    histogram, expanded by ``np.repeat``: exact up to the window's excluded
    mass, with no per-count draw.  A mean of 0 gives zeros and leaves
    ``rng`` untouched.
    """
    if mean == 0.0:
        return np.zeros(size, dtype=np.int64)
    lo, pmf = _poisson_window(mean, p)
    return np.repeat(np.arange(lo, lo + pmf.size),
                     rng.multinomial(size, pmf))


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


def _trial_sums(out: np.ndarray, counts: np.ndarray, radius: float,
                p: SystemParams, rng: np.random.Generator) -> None:
    """Write each non-empty trial's summed STPC power into ``out``.

    A user at distance R sqrt(v), v uniform, needs its trial's edge power
    stpc_power(R, n) times ``_edge_fraction``'s share, which depends on v
    alone: all users of a trial share its load, and only the path loss is
    per user.  So each piece of uniforms becomes shares in place, one
    ``reduceat`` sums them per trial, and each non-empty trial's sum is
    scaled once by its edge power.  The edge power depends on the count
    alone, so it is computed once per count 1..max(counts), with its load
    guard, before any user is drawn, and each trial reads its own count's
    entry: bit for bit what one ``stpc_power`` call per trial gives.  The
    users are drawn in pieces of at most ``_PIECE_USERS`` users, cut at
    trial boundaries, into one reused buffer; a piece holds at least one
    trial, so one trial larger than the bound is a piece of its own.
    Consecutive ``rng.random`` calls continue one stream, and every trial
    is reduced over the same elements in the same order, so the sums do
    not depend on the piece size.  Any order of ``counts`` works; the
    ascending order of ``_poisson_counts`` keeps ``reduceat``'s segment
    lengths predictable, which halves its cost.  Empty trials are left
    untouched.
    """
    busy = counts > 0
    edge = stpc_power(radius, np.arange(1, counts.max() + 1),
                      p)[counts[busy] - 1]
    ends = np.cumsum(counts)
    begins = ends - counts
    work = np.empty(min(int(ends[-1]), _PIECE_USERS))
    first, start = 0, 0
    while first < counts.size:
        last = max(int(np.searchsorted(ends, start + _PIECE_USERS,
                                       side="right")), first + 1)
        stop = int(ends[last - 1])
        if stop > start:
            if stop - start > work.size:
                work = np.empty(stop - start)
            shares = work[:stop - start]
            rng.random(out=shares)
            filled = busy[first:last]
            out[first:last][filled] = np.add.reduceat(
                _edge_fraction(shares, radius, p),
                begins[first:last][filled] - start)
        first, start = last, stop
    out[busy] *= edge
