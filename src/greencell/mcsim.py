"""Monte Carlo ground truth: Poisson user placement, Rayleigh fading, outage and power."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import SystemParams
from .scaling import stpc_power

_TRIAL_CHUNK = 20_000


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


def sample_users(density: float, radius: float,
                 rng: np.random.Generator) -> np.ndarray:
    """One realization of user distances in a disc of the given radius.

    The count is Poisson with mean lambda * pi * R^2; given the count each
    distance has pdf 2r/R^2 on [0, R] (uniform placement in the disc).
    """
    if density < 0.0 or radius < 0.0:
        raise ValueError("density and radius must be >= 0")
    mean_count = density * math.pi * radius * radius
    n = rng.poisson(mean_count)
    return radius * np.sqrt(rng.random(n))


def simulate_total_power(density: float, radius: float, p: SystemParams,
                         trials: int, rng: np.random.Generator) -> McEstimate:
    """Empirical mean of the summed per-user transmit power over many drops.

    Each trial draws a Poisson user population, places it uniformly in the
    disc and sums the short-term power control output; trials with zero
    users contribute zero.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    mean_count = density * math.pi * radius * radius
    per_trial = np.empty(trials, dtype=float)
    done = 0
    while done < trials:
        chunk = min(_TRIAL_CHUNK, trials - done)
        counts = rng.poisson(mean_count, chunk)
        total = int(counts.sum())
        if total == 0:
            per_trial[done:done + chunk] = 0.0
        else:
            dist = radius * np.sqrt(rng.random(total))
            n_rep = np.repeat(counts, counts).astype(float)
            powers = stpc_power(dist, n_rep, p)
            # reduceat needs in-range boundaries; zero-count trials are zeroed after
            bounds = np.minimum(np.concatenate([[0], np.cumsum(counts)[:-1]]),
                                total - 1)
            sums = np.add.reduceat(powers, bounds)
            sums[counts == 0] = 0.0
            per_trial[done:done + chunk] = sums
        done += chunk
    mean = float(per_trial.mean())
    if trials > 1:
        se = float(per_trial.std(ddof=1) / math.sqrt(trials))
    else:
        se = 0.0
    return McEstimate(mean=mean, std_err=se, trials=trials)


def simulate_outage(distance: float, n_users: int, per_user_power: float,
                    p: SystemParams, trials: int,
                    rng: np.random.Generator) -> McEstimate:
    """Empirical probability that the L-block average rate misses the target.

    Evaluates the exact multi-block outage event (average of the per-block
    rates below the target), not its single-block product approximation.
    """
    if n_users < 1 or trials < 1:
        raise ValueError("n_users and trials must be >= 1")
    ell = p.coding_blocks
    gain = per_user_power * p.ref_pathloss \
        * min(p.ref_distance / distance, 1.0) ** p.pathloss_exp \
        if distance > 0 else per_user_power * p.ref_pathloss
    noise = p.snr_gap * p.noise_psd * p.bandwidth_w
    outages = 0
    done = 0
    while done < trials:
        chunk = min(_TRIAL_CHUNK, trials - done)
        fades = rng.exponential(1.0, size=(chunk, ell))
        snr = n_users * gain * fades / noise
        rate = (p.bandwidth_w / n_users) * np.log2(1.0 + snr).mean(axis=1)
        outages += int(np.count_nonzero(rate < p.user_rate))
        done += chunk
    prob = outages / trials
    se = math.sqrt(max(prob * (1.0 - prob), 0.0) / trials)
    return McEstimate(mean=prob, std_err=se, trials=trials)
