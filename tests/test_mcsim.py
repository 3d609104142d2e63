import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from greencell import mcsim
from greencell.mcsim import (McEstimate, _edge_fraction as edge_fraction,
                             make_rng, simulate_total_power)
from greencell.params import SystemParams, derive_constants
from greencell.scaling import (EXPONENT_GUARD_BITS, PowerOverflowError,
                               avg_transmit_power_exact, stpc_power)
from oracles import poisson_counts, sample_users, simulate_outage

P = SystemParams()


class TestSampleUsers:
    def test_empty_when_degenerate(self):
        rng = make_rng(0)
        for _ in range(20):
            assert sample_users(0.0, 1000.0, rng).size == 0
            assert sample_users(1e-5, 0.0, rng).size == 0

    def test_count_mean(self):
        rng = make_rng(1)
        lam, radius, n = 1e-5, 1000.0, 100_000
        counts = np.array([sample_users(lam, radius, rng).size
                           for _ in range(n)])
        mean = lam * math.pi * radius ** 2
        se = math.sqrt(mean / n)
        assert abs(counts.mean() - mean) <= 3.0 * se

    def test_count_dispersion(self):
        rng = make_rng(2)
        counts = np.array([sample_users(1e-5, 1000.0, rng).size
                           for _ in range(100_000)])
        assert counts.var() / counts.mean() == pytest.approx(1.0, abs=0.05)

    def test_mean_distance(self):
        rng = make_rng(3)
        radius = 1000.0
        dists = np.concatenate([sample_users(1e-5, radius, rng)
                                for _ in range(5_000)])
        se = dists.std(ddof=1) / math.sqrt(dists.size)
        assert abs(dists.mean() - 2.0 * radius / 3.0) <= 3.0 * se


class TestSimulateTotalPower:
    def test_zero_density(self):
        est = simulate_total_power(0.0, 1000.0, P, 1000, make_rng(4))
        assert est.mean == 0.0 and est.std_err == 0.0

    def test_reproducible_with_seed(self):
        a = simulate_total_power(1e-5, 1000.0, P, 5000, make_rng(5))
        b = simulate_total_power(1e-5, 1000.0, P, 5000, make_rng(5))
        assert a == b

    def test_matches_exact_expression(self):
        est = simulate_total_power(1e-5, 1000.0, P, 20_000, make_rng(6))
        exact = avg_transmit_power_exact(1000.0, 1e-5, P)
        assert abs(est.mean - exact) <= 3.0 * est.std_err

    def test_halving_bandwidth_increases_power(self):
        narrow = SystemParams(bandwidth_w=P.bandwidth_w / 2)
        a = simulate_total_power(1e-5, 1000.0, P, 5000, make_rng(7))
        b = simulate_total_power(1e-5, 1000.0, narrow, 5000, make_rng(7))
        assert b.mean > a.mean

    def test_load_guard(self):
        # about 1,257 users a drop at 1 bit/s/Hz each: a 1,257-bit exponent,
        # above the 1,024-bit guard
        with pytest.raises(PowerOverflowError):
            simulate_total_power(1e-4, 2000.0, SystemParams(user_rate=5e6),
                                 10, make_rng(22))

    def test_chunking_is_invisible(self):
        # spanning several internal chunks must not perturb the estimate
        est = simulate_total_power(1e-5, 500.0, P, 45_000, make_rng(8))
        assert est.trials == 45_000
        assert est.std_err > 0.0


def whole_chunk_oracle(density, radius, p, trials, rng, per_user_load=False):
    """The whole-chunk simulator: every user of a 20k-trial chunk at once.

    The same stream order as ``simulate_total_power`` (a chunk's counts
    from ``oracles.poisson_counts``, then its uniforms) and the same
    arithmetic, with one ``stpc_power`` call per trial where the simulator
    makes one per chunk over the counts drawn: each uniform v turned into
    its share exp(alpha/2 log max(v, (r0 / max(R, r0))^2)) of the edge
    power, one ``reduceat`` over the chunk, and each non-empty trial's sum
    scaled by its edge power stpc_power(R, n).  The offsets are the start
    of every non-empty trial; clipping the offsets of trailing empty trials
    to the last element instead would drop the last user of the trial
    before them.  With ``per_user_load`` every user is powered at its
    distance R sqrt(v) with its trial's count, ``stpc_power(d_i, n)``, and
    the sums are not scaled: the simulator before it took the load and the
    edge power out of the per-user sum.
    """
    mean_count = density * math.pi * radius * radius
    per_trial = np.zeros(trials)
    done = 0
    while done < trials:
        chunk = min(20_000, trials - done)
        counts = poisson_counts(mean_count, chunk, p, rng)
        total = int(counts.sum())
        if total:
            busy = counts > 0
            offsets = (np.cumsum(counts) - counts)[busy]
            sums = np.zeros(chunk)
            if per_user_load:
                dist = radius * np.sqrt(rng.random(total))
                users = np.repeat(counts, counts).astype(float)
                sums[busy] = np.add.reduceat(stpc_power(dist, users, p),
                                             offsets)
            else:
                floor = (p.ref_distance / max(radius, p.ref_distance)) ** 2
                shares = np.exp((0.5 * p.pathloss_exp)
                                * np.log(np.maximum(rng.random(total), floor)))
                sums[busy] = np.add.reduceat(shares, offsets)
                sums[busy] *= stpc_power(radius, counts[busy], p)
            per_trial[done:done + chunk] = sums
        done += chunk
    se = float(per_trial.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return McEstimate(mean=float(per_trial.mean()), std_err=se, trials=trials)


VALIDATE_GRID = [(r, lam) for r in (250.0, 500.0, 1000.0, 2000.0)
                 for lam in (1e-6, 1e-5, 5e-5)]


class TestPieces:
    """Drawing users piece by piece leaves every estimate bit-identical."""

    @pytest.mark.parametrize("i", range(len(VALIDATE_GRID)))
    def test_validate_grid_matches_whole_chunk(self, i):
        # seed 1002 at (250 m, 1e-5) ends its chunk with empty trials after
        # a three-user trial
        radius, lam = VALIDATE_GRID[i]
        seed = 1000 + 2 * i
        got = simulate_total_power(lam, radius, P, 20_000, make_rng(seed))
        want = whole_chunk_oracle(lam, radius, P, 20_000, make_rng(seed))
        assert got == want

    @pytest.mark.parametrize("lam, radius, trials", [
        (1e-5, 1000.0, 1),
        (1e-5, 1000.0, 45_000),
        (2e-7, 500.0, 30_000),   # ~85% of trials empty
    ])
    def test_edge_cases_match_whole_chunk(self, lam, radius, trials):
        got = simulate_total_power(lam, radius, P, trials, make_rng(13))
        want = whole_chunk_oracle(lam, radius, P, trials, make_rng(13))
        assert got == want

    def test_every_user_of_a_histogram_counts(self):
        # the trials take the histogram's counts in ascending order, so the
        # empty ones lead and none can trail a busy trial, the case where
        # clipping offsets once dropped a user; each busy trial sums its
        # own users, the chunk's last user included
        radius = 500.0
        for lo, hist in [(0, [4, 0, 1, 1]),      # empty trials and a gap
                         (2, [0, 2, 0, 1, 3])]:  # no empty trial
            counts = np.repeat(np.arange(lo, lo + len(hist)), hist)
            dist = radius * np.sqrt(make_rng(0).random(int(counts.sum())))
            want, start = [], 0
            for n in counts:
                want.append(float(np.sum(stpc_power(
                    dist[start:start + n], float(n), P))) if n else 0.0)
                start += n
            for piece in (1, 3, 4, 1 << 16):
                out = np.zeros(counts.size)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(mcsim, "_PIECE_USERS", piece)
                    mcsim._trial_sums(out, lo, np.array(hist), radius, P,
                                      make_rng(0))
                np.testing.assert_allclose(out, want, rtol=1e-12, atol=0.0)

    @given(piece=st.sampled_from([1, 7, 1 << 10, 1 << 16, 1 << 40]),
           lam=st.floats(0.0, 5e-5), radius=st.floats(0.0, 500.0),
           trials=st.integers(1, 2_500), seed=st.integers(0, 2 ** 32))
    def test_piece_size_is_invisible(self, piece, lam, radius, trials, seed):
        want = simulate_total_power(lam, radius, P, trials, make_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mcsim, "_PIECE_USERS", piece)
            got = simulate_total_power(lam, radius, P, trials, make_rng(seed))
        assert got == want

    @pytest.mark.parametrize("alpha", [3.0, 3.7])
    @pytest.mark.parametrize("i", range(len(VALIDATE_GRID)))
    def test_load_factorisation_matches_per_user_load(self, i, alpha):
        # summing stpc_power(d_i, n) per user and scaling the sum of the
        # users' shares by the edge power stpc_power(R, n) differ only in
        # rounding
        p = SystemParams(pathloss_exp=alpha)
        radius, lam = VALIDATE_GRID[i]
        seed = 2000 + 2 * i
        got = simulate_total_power(lam, radius, p, 20_000, make_rng(seed))
        want = whole_chunk_oracle(lam, radius, p, 20_000, make_rng(seed),
                                  per_user_load=True)
        assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=0.0)
        assert got.std_err == pytest.approx(want.std_err, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lam, radius, trials, piece", [
        (1e-5, 1000.0, 45_000, 1 << 16),  # three chunks
        (5e-5, 500.0, 3_000, 1_000),
        (1e-5, 1000.0, 200, 1),           # one trial per piece
        (2e-7, 500.0, 30_000, 7),         # most trials and pieces empty
    ])
    def test_every_drawn_user_is_powered_once(self, lam, radius, trials,
                                              piece):
        # every drawn uniform passes through edge_fraction once, in pieces
        sizes = []

        def counting(uniforms, radius, p):
            sizes.append(np.size(uniforms))
            return edge_fraction(uniforms, radius, p)

        rng = make_rng(21)
        chunk_counts = []
        for done in range(0, trials, 20_000):
            counts = poisson_counts(lam * math.pi * radius ** 2,
                                    min(20_000, trials - done), P, rng)
            rng.random(int(counts.sum()))
            chunk_counts.append(counts)
        pieces = 0
        for counts in chunk_counts:
            users, held = 0, 0
            for n in counts:
                if held and users + n > piece:
                    pieces += users > 0
                    users, held = 0, 0
                users, held = users + n, held + 1
            pieces += users > 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mcsim, "_PIECE_USERS", piece)
            mp.setattr(mcsim, "_edge_fraction", counting)
            simulate_total_power(lam, radius, P, trials, make_rng(21))
        assert sum(sizes) == sum(int(c.sum()) for c in chunk_counts)
        assert len(sizes) == pieces and 0 not in sizes

    @pytest.mark.parametrize("prefix", [0, 1])
    def test_rng_ends_past_each_chunks_counts_and_users(self, prefix):
        # validate-scaling draws its whole grid from one generator: each
        # op leaves it where drawing every chunk's counts and then all of
        # its users at once would
        rng, replay = make_rng(31), make_rng(31)
        for gen in (rng, replay):
            gen.integers(0, 10, size=prefix, dtype=np.uint32)
        for lam, radius, trials in [(5e-5, 500.0, 45_000),
                                    (2e-7, 500.0, 30_000),
                                    (1e-5, 0.0, 20_000),
                                    (1e-5, 1000.0, 1)]:
            simulate_total_power(lam, radius, P, trials, rng)
            for done in range(0, trials, 20_000):
                counts = poisson_counts(lam * math.pi * radius ** 2,
                                        min(20_000, trials - done), P,
                                        replay)
                replay.random(int(counts.sum()))
        assert rng.bit_generator.state == replay.bit_generator.state
        assert rng.random(4).tolist() == replay.random(4).tolist()

    def test_largest_validate_op_starts_no_thread(self):
        # perfbench times one CPU and traces one span stack, so an op must
        # run on the calling thread alone
        started = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(threading.Thread, "start",
                       lambda thread: started.append(thread))
            simulate_total_power(5e-5, 2000.0, P, 20_000, make_rng(1))
        assert started == []

    def test_memory_stays_bounded(self):
        # 12.6M users in one chunk: whole-chunk arrays peak near 600 MB.
        # The simulator peaks at 0.98 MiB (1.44 MiB with masks and offsets
        # the length of the chunk, 1.79 MiB with a result array per piece);
        # the RNG is made first, as its first call may import numpy.random
        # (0.67 MiB more).
        rng = make_rng(1)
        tracemalloc.start()
        try:
            simulate_total_power(5e-5, 2000.0, SystemParams(), 20_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * 2 ** 20

    def test_an_almost_empty_chunk_allocates_little_besides_its_result(self):
        # 250 m at 1e-9 users/m^2: about 4 of the 20,000 trials hold a
        # user.  Besides the 160 KB result array and std's temporary of its
        # size, a chunk allocates only for its busy trials and its
        # histogram: measured 322 KB at seeds 1-5, where arrays the length
        # of the chunk (counts, mask, user offsets) peaked at 662 KB
        rng = make_rng(1)
        tracemalloc.start()
        try:
            simulate_total_power(1e-9, 250.0, P, 20_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 336_000

    def test_one_edge_power_call_per_chunk(self):
        # each chunk's edge powers come from one stpc_power call over the
        # distinct counts it drew, never from one call or element per
        # trial, so the load guard reads the chunk's largest count; a count
        # of the calls, so it holds however fast the host runs
        trial_sums = mcsim._trial_sums
        for lam, radius in [(5e-5, 2000.0), (1e-6, 250.0)]:
            calls, drawn = [], []

            def recording_sums(out, lo, hist, radius, p, rng):
                counts = lo + np.flatnonzero(hist)
                drawn.append(counts[counts > 0].tolist())
                return trial_sums(out, lo, hist, radius, p, rng)

            def recording_power(distance, n_users, p):
                calls.append(np.asarray(n_users).tolist())
                return stpc_power(distance, n_users, p)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mcsim, "_trial_sums", recording_sums)
                mp.setattr(mcsim, "stpc_power", recording_power)
                simulate_total_power(lam, radius, P, 45_000, make_rng(3))
            assert len(drawn) == 3 and calls == drawn


def _pooled(observed, expected, least=5.0):
    """Adjacent bins merged from the left until each expects >= ``least``;
    what is left over joins the last bin."""
    obs, exp, o, e = [], [], 0.0, 0.0
    for a, b in zip(observed, expected):
        o, e = o + a, e + b
        if e >= least:
            obs.append(o)
            exp.append(e)
            o, e = 0.0, 0.0
    obs[-1] += o
    exp[-1] += e
    return np.array(obs), np.array(exp)


def _histograms(mean, trials, seed):
    """The (lo, histogram) of each chunk ``simulate_total_power`` draws at
    ``mean`` users a trial, drawing no user."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mcsim, "_trial_sums",
                   lambda out, lo, hist, *rest: seen.append((lo, hist)))
        simulate_total_power(mean / (math.pi * 1e6), 1000.0, P, trials,
                             make_rng(seed))
    return seen


class TestPoissonCounts:
    """Each chunk's counts: one multinomial histogram over a window of the
    Poisson pmf, laid out in ascending order."""

    def test_window_pmf_matches_scipy(self):
        # 400 means up to past the load guard: below it the window's pmf is
        # scipy's to 1e-9 relative and leaves out at most 1e-30 of the mass
        # (measured: 1.4e-10 and 1.43e-32); above it the window is never
        # built
        c2 = derive_constants(P).c2
        built = 0
        for mean in np.geomspace(1e-6, 4e4, 400):
            lo = max(0, math.floor(mean - 12.0 * math.sqrt(mean) - 10.0))
            if lo * c2 > EXPONENT_GUARD_BITS:
                with pytest.raises(PowerOverflowError):
                    mcsim._poisson_window(mean, P)
                continue
            got_lo, pmf = mcsim._poisson_window(mean, P)
            k = np.arange(lo, lo + pmf.size)
            want = stats.poisson.pmf(k, mean)
            seen = want >= 1e-12
            # 4,613 entries at most, at a mean of 36,400 just below the guard
            assert got_lo == lo and pmf.size <= 4_613
            np.testing.assert_allclose(pmf[seen], want[seen], rtol=1e-9,
                                       atol=0.0)
            left_out = (stats.poisson.cdf(lo - 1, mean)
                        + stats.poisson.sf(k[-1], mean))
            assert left_out <= 1e-30, mean
            built += 1
        assert 300 < built < 400

    @pytest.mark.parametrize("mean, seed", [(0.196, 41), (7.85, 42),
                                            (39.3, 43), (628.0, 44)])
    def test_counts_follow_the_poisson_law(self, mean, seed):
        # 10^6 counts in the simulator's chunks against scipy's pmf; the
        # threshold p >= 1e-6 was fixed before the first run
        chunks = _histograms(mean, 1_000_000, seed)
        assert len(chunks) == 50
        lo = chunks[0][0]
        hist = np.sum([h for _, h in chunks], axis=0)
        size = int(hist.sum())
        top = lo + int(np.flatnonzero(hist)[-1])
        expected = size * np.append(
            stats.poisson.pmf(np.arange(top), mean),
            stats.poisson.sf(top - 1, mean))
        observed = np.zeros(top + 1)
        observed[lo:] = hist[:top + 1 - lo]
        obs, exp = _pooled(observed, expected)
        assert obs.size >= 3
        assert stats.chisquare(obs, exp).pvalue >= 1e-6

    def test_counts_ascend(self):
        # inside r0 a trial of n users sums to n stpc_power(r0, n), which
        # grows with n: the chunk's sums ascend with its counts, the empty
        # trials first, as many as its histogram's zeros
        chunks, trial_sums = [], mcsim._trial_sums

        def recording(out, lo, hist, radius, p, rng):
            trial_sums(out, lo, hist, radius, p, rng)
            chunks.append((out.copy(), lo, hist))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mcsim, "_trial_sums", recording)
            simulate_total_power(7.85 / (math.pi * 25.0), 5.0, P, 45_000,
                                 make_rng(45))
        assert [out.size for out, _, _ in chunks] == [20_000, 20_000, 5_000]
        for out, lo, hist in chunks:
            assert lo == 0 and hist.dtype == np.int64
            assert hist.sum() == out.size and np.all(np.diff(out) >= 0)
            assert np.count_nonzero(out) == out.size - hist[0]

    def test_zero_mean_gives_zeros_and_draws_nothing(self):
        rng = make_rng(46)
        state = rng.bit_generator.state
        for density, radius in [(0.0, 1000.0), (1e-5, 0.0)]:
            est = simulate_total_power(density, radius, P, 1_000, rng)
            assert est.mean == 0.0 and est.std_err == 0.0
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("density, radius", [
        (1.0 / math.pi, 1e6),   # 1e12 users a drop, as from a mistyped radius
        (1e300, 1e10),          # a mean that overflows to inf
    ])
    def test_absurd_mean_raises_before_any_table(self, density, radius):
        # every count of the window would break the load guard: raised
        # before a table of sqrt(mean) entries or any count is drawn
        rng = make_rng(47)
        state = rng.bit_generator.state
        tracemalloc.start()
        try:
            with pytest.raises(PowerOverflowError):
                simulate_total_power(density, radius, P, 20_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert rng.bit_generator.state == state


class TestRuns:
    """A chunk's users are drawn piece by piece on the calling thread, each
    piece reaching its place in the stream by following the one before."""

    @pytest.mark.parametrize("offset", [*range(13), *range(4_095, 4_100),
                                        65_536])
    @pytest.mark.parametrize("pos", range(5))
    def test_seek_matches_sequential_draws(self, pos, offset):
        # a piece that starts `offset` users into the chunk, on a generator
        # `pos` 32-bit halves in, reads the draws that follow the first
        # `offset` users of one sequential draw, neither skipping nor
        # repeating any; a light user rate keeps 2^16 users in one trial
        # under the load guard.  The chunk's ascending histogram holds one
        # trial of `offset` users and one of `offset` + 9
        hist = np.zeros(10, dtype=np.int64)
        hist[[0, 9]] = 1
        radius, p = 500.0, SystemParams(user_rate=1e3)
        rng, replay = make_rng(77), make_rng(77)
        for gen in (rng, replay):
            gen.integers(0, 10, size=pos, dtype=np.uint32)
        out = np.zeros(2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mcsim, "_PIECE_USERS", max(offset, 1))
            mcsim._trial_sums(out, offset, hist, radius, p, rng)
        dist = radius * np.sqrt(replay.random(2 * offset + 9))
        want = [float(np.sum(stpc_power(users, float(users.size), p)))
                if users.size else 0.0
                for users in (dist[:offset], dist[offset:])]
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=0.0)
        assert rng.bit_generator.state == replay.bit_generator.state
        assert rng.random(9).tolist() == replay.random(9).tolist()

    def test_a_chunk_of_few_pieces_stays_on_the_calling_thread(self):
        # 251k users, under 8 full pieces: whole pieces, no other thread
        seen = []

        def recording(uniforms, radius, p):
            seen.append((threading.current_thread(), np.size(uniforms)))
            return edge_fraction(uniforms, radius, p)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mcsim, "_edge_fraction", recording)
            simulate_total_power(1e-6, 2000.0, P, 20_000, make_rng(6))
        assert {thread for thread, _ in seen} == {threading.main_thread()}
        assert max(size for _, size in seen) > mcsim._PIECE_USERS // 2


R0 = P.ref_distance
# stpc_power(R) * share against stpc_power(R sqrt(v)): measured at most
# 6.2e-15 relative over 159M draws (worst at alpha = 6, R = 2,000 m and v
# near the floor, where alpha/2 |log v| amplifies the rounding of log v)
SHARE_REL = 1e-14


@st.composite
def radius_and_uniforms(draw):
    """A radius at or inside r0 or in the validate range, and uniforms in
    [0, 1) that include 0, the floor (r0 / R)^2 and 1 - 2^-53."""
    radius = draw(st.one_of(st.sampled_from([0.0, R0 / 2, R0, 1.5 * R0]),
                            st.floats(250.0, 2000.0)))
    floor = (R0 / max(radius, R0)) ** 2
    uniform = st.one_of(st.sampled_from([0.0, floor, 1.0 - 2.0 ** -53]),
                        st.floats(0.0, 1.0, exclude_max=True))
    return radius, draw(st.lists(uniform, min_size=1, max_size=40))


class TestEdgeFraction:
    """Each user's share of the edge power is its power in uniform space."""

    @given(alpha=st.floats(2.0, 6.0, exclude_min=True),
           drawn=radius_and_uniforms())
    def test_share_of_the_edge_power_is_the_users_power(self, alpha, drawn):
        radius, v = drawn
        p = SystemParams(pathloss_exp=alpha)
        v = np.array(v)
        want = stpc_power(radius * np.sqrt(v), 1, p)
        shares = v.copy()
        assert edge_fraction(shares, radius, p) is shares
        np.testing.assert_allclose(stpc_power(radius, 1, p) * shares, want,
                                   rtol=SHARE_REL, atol=0.0)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 6.0])
    @pytest.mark.parametrize("radius", [R0 / 2, R0])
    def test_inside_the_reference_distance_every_user_needs_its_power(
            self, radius, alpha):
        # each of a trial's n users needs stpc_power(r0, n): n times
        # stpc_power(r0, 1) scaled by the load ratio load(n) / load(1)
        p = SystemParams(pathloss_exp=alpha)
        hist = np.bincount(np.concatenate([[0, 1, 2, 0, 0, 1_000],
                                           make_rng(3).poisson(4.0, 500)]))
        counts = np.repeat(np.arange(hist.size), hist)
        out = np.zeros(counts.size)
        mcsim._trial_sums(out, 0, hist, radius, p, make_rng(4))
        want = counts * stpc_power(R0, np.maximum(counts, 1), p)
        np.testing.assert_allclose(out, want, rtol=SHARE_REL, atol=0.0)

    def test_zero_radius_draws_no_user(self):
        sizes = []

        def counting(uniforms, radius, p):
            sizes.append(np.size(uniforms))
            return edge_fraction(uniforms, radius, p)

        rng = make_rng(5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mcsim, "_edge_fraction", counting)
            est = simulate_total_power(1e-5, 0.0, P, 30_000, rng)
        assert est.mean == 0.0 and est.std_err == 0.0 and sizes == []
        # the stream moved past the two chunks' counts and nothing more
        ref = make_rng(5)
        ref.poisson(0.0, 20_000)
        ref.poisson(0.0, 10_000)
        assert rng.random() == ref.random()


class TestSimulateOutage:
    def test_power_sized_by_short_term_control_meets_target(self):
        pw = stpc_power(200.0, 1, P)
        est = simulate_outage(200.0, 1, pw, P, 10 ** 6, make_rng(9))
        assert est.mean <= P.outage_target * 1.25

    def test_huge_power_never_fails(self):
        pw = stpc_power(200.0, 1, P) * 1e6
        est = simulate_outage(200.0, 1, pw, P, 10_000, make_rng(10))
        assert est.mean == 0.0

    def test_zero_power_always_fails(self):
        est = simulate_outage(200.0, 1, 0.0, P, 1000, make_rng(11))
        assert est.mean == 1.0

    def test_multi_user_load(self):
        pw = stpc_power(500.0, 8, P)
        est = simulate_outage(500.0, 8, pw, P, 10 ** 6, make_rng(12))
        assert est.mean <= P.outage_target * 1.25


def test_estimate_validation():
    with pytest.raises(ValueError):
        McEstimate(mean=1.0, std_err=-1.0, trials=10)
    with pytest.raises(ValueError):
        McEstimate(mean=1.0, std_err=0.0, trials=0)
