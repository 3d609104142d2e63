"""Monte Carlo ground truth: Poisson user drops and their summed transmit power."""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .params import SystemParams
from .scaling import _check_nonneg_finite, stpc_power

_TRIAL_CHUNK = 20_000
# most users drawn and powered at once, over all threads; bounds the
# simulator's working memory
_PIECE_USERS = 1 << 16
# a chunk is shared by helper threads only when it holds more users than
# this many pieces: below it the chunk's serial steps (its Poisson counts
# and edge powers) and a helper's start take most of what a second CPU
# saves, and the chunk's time would follow the other CPUs' load
_HELPED_PIECES = 8
# 64-bit draws in one Philox block
_BLOCK = 4


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
    first, then the users piece by piece, shared by one worker per usable
    CPU in a large chunk (see ``_trial_sums``), so memory stays bounded
    however large ``density * radius**2`` grows.  ``rng`` must come from
    ``make_rng``: a helper draws each piece from a Philox positioned at its
    first user in ``rng``'s stream, so the estimate and ``rng``'s state
    afterwards do not depend on the CPU count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not isinstance(getattr(rng, "bit_generator", None), np.random.Philox):
        raise TypeError("rng must be a Philox generator from make_rng: "
                        f"{rng!r}")
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


def _workers() -> int:
    """Usable CPUs: the calling thread and one helper thread per other CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _seek(bg: np.random.Philox, state: dict, offset: int) -> np.random.Philox:
    """Put ``bg`` ``offset`` 64-bit draws past the Philox ``state``, field
    for field where drawing them one by one would leave it; returns ``bg``.

    Philox is counter-based (Salmon et al., SC 2011): the draws left in the
    current block are skipped, ``advance`` moves the counter past the whole
    blocks after them and empties the block, and ``random_raw`` draws the
    rest.  The rest is at least one draw, so an offset that ends on a block
    boundary leaves that block in the buffer, as sequential drawing does.
    The buffered 32-bit half (``has_uint32``, ``uinteger``), which
    ``advance`` clears, is carried over from ``state``.
    """
    bg.state = state
    left = _BLOCK - state["buffer_pos"]
    if offset > left:
        blocks, rest = divmod(offset - left - 1, _BLOCK)
        bg.advance(blocks)
        offset = rest + 1
    bg.random_raw(offset)
    moved = bg.state
    moved["has_uint32"] = state["has_uint32"]
    moved["uinteger"] = state["uinteger"]
    bg.state = moved
    return bg


def _trial_sums(out: np.ndarray, counts: np.ndarray, radius: float,
                p: SystemParams, rng: np.random.Generator) -> None:
    """Write each non-empty trial's summed STPC power into ``out``.

    A user at distance R sqrt(v), v uniform, needs its trial's edge power
    stpc_power(R, n) times ``_edge_fraction``'s share, which depends on v
    alone: all users of a trial share its load, and only the path loss is
    per user.  So each piece of uniforms becomes shares in place, one
    ``reduceat`` sums them per trial, and each non-empty trial's sum is
    scaled once by its edge power (computed, with its load guard, before
    any user is drawn).

    The chunk's users are cut at trial boundaries into pieces of at most
    ``_PIECE_USERS // workers`` users; a piece holds at least one trial, so
    one trial larger than the bound is a piece of its own.  A chunk of more
    than ``_HELPED_PIECES * _PIECE_USERS`` users is shared by one worker per
    usable CPU (``_workers``); a smaller one runs on the calling thread
    alone, in pieces of ``_PIECE_USERS``.  The calling thread takes pieces
    from the front and draws them from ``rng`` in stream order; a helper
    thread per other CPU takes pieces from the back and draws each from its
    own Philox, ``_seek``-positioned at the piece's first user, so a helper
    that starts late or runs slow leaves its share to the others.  Each
    worker reuses one buffer, so all of them together hold at most
    ``_PIECE_USERS`` users.  The helpers are joined before this returns, an
    exception raised on one is re-raised here, and ``rng`` is moved past
    the chunk's users.  Every trial is reduced over the same elements of
    the one stream in the same order, so the sums depend on neither the
    piece size, the CPU count nor which worker drew them.  Empty trials are
    left untouched.
    """
    busy = counts > 0
    edge = stpc_power(radius, counts[busy], p)
    ends = np.cumsum(counts)
    begins = ends - counts
    total = int(ends[-1])
    workers = _workers() if total > _HELPED_PIECES * _PIECE_USERS else 1
    piece = _PIECE_USERS // workers
    pieces = deque()
    first = 0
    while first < counts.size:
        last = max(int(np.searchsorted(ends, int(begins[first]) + piece,
                                       side="right")), first + 1)
        if ends[last - 1] > begins[first]:
            pieces.append((first, last))
        first = last
    state = rng.bit_generator.state

    def draw(gen: np.random.Generator, work: np.ndarray, take,
             seek: bool) -> None:
        while True:
            try:
                first, last = take()
            except IndexError:
                return
            start, stop = int(begins[first]), int(ends[last - 1])
            if stop - start > work.size:
                work = np.empty(stop - start)
            shares = work[:stop - start]
            if seek:
                _seek(gen.bit_generator, state, start)
            gen.random(out=shares)
            filled = busy[first:last]
            out[first:last][filled] = np.add.reduceat(
                _edge_fraction(shares, radius, p),
                begins[first:last][filled] - start)

    errors = []

    def helper(gen: np.random.Generator, work: np.ndarray) -> None:
        try:
            draw(gen, work, pieces.pop, True)
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)
            pieces.clear()

    # each helper's generator and buffer are made here: memory that a
    # helper allocates stays in its own malloc arena and adds to the RSS
    threads = [threading.Thread(target=helper, args=(
        np.random.Generator(np.random.Philox()), np.empty(min(total, piece))))
        for _ in range(min(workers, len(pieces)) - 1)]
    for thread in threads:
        thread.start()
    try:
        draw(rng, np.empty(min(total, piece)), pieces.popleft, False)
    finally:
        pieces.clear()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    if threads:
        _seek(rng.bit_generator, state, total)
    out[busy] *= edge
