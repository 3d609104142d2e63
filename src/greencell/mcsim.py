"""Monte Carlo ground truth: Poisson user drops and their summed transmit power."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import SystemParams
from .scaling import _check_nonneg_finite, _load_factor, stpc_power

_TRIAL_CHUNK = 20_000
# most users drawn and powered at once; bounds the simulator's working memory
_PIECE_USERS = 1 << 16


def make_rng(seed: int) -> np.random.Generator:
    """The simulator's RNG: Philox keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(seed))


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
    first, then the users piece by piece (see ``_trial_sums``), so memory
    stays bounded however large ``density * radius**2`` grows.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_nonneg_finite(density=density, radius=radius)
    mean_count = density * math.pi * radius * radius
    per_trial = np.zeros(trials)
    done = 0
    while done < trials:
        chunk = min(_TRIAL_CHUNK, trials - done)
        counts = rng.poisson(mean_count, chunk)
        _trial_sums(per_trial[done:done + chunk], counts, radius, p, rng)
        done += chunk
    mean = float(per_trial.mean())
    if trials > 1:
        se = float(per_trial.std(ddof=1) / math.sqrt(trials))
    else:
        se = 0.0
    return McEstimate(mean=mean, std_err=se, trials=trials)


def _trial_sums(out: np.ndarray, counts: np.ndarray, radius: float,
                p: SystemParams, rng: np.random.Generator) -> None:
    """Write each non-empty trial's summed STPC power into ``out``.

    All users of a trial share its bandwidth-sharing load, so a trial of n
    users sums single-user powers and scales the sum by load(n) / load(1);
    only the distances and the path loss are per user.  The users are drawn
    and powered in pieces of at most ``_PIECE_USERS`` users, split at trial
    boundaries, in one reused buffer; a piece holds at least one trial, so
    one trial larger than the bound is a piece of its own.  Consecutive
    ``rng.random`` calls continue one stream, and every trial is reduced
    over the same elements in the same order, so the sums do not depend on
    the piece size.  Empty trials are left untouched.
    """
    busy = counts > 0
    ratio = _load_factor(counts[busy], p) / _load_factor(1, p)
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
            dist = work[:stop - start]
            rng.random(out=dist)
            np.sqrt(dist, out=dist)
            dist *= radius
            filled = busy[first:last]
            offsets = begins[first:last][filled] - start
            out[first:last][filled] = np.add.reduceat(stpc_power(dist, 1, p),
                                                      offsets)
        first, start = last, stop
    out[busy] *= ratio
