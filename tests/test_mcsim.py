import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from greencell import mcsim
from greencell.mcsim import (McEstimate, _edge_fraction as edge_fraction,
                             make_rng, simulate_total_power)
from greencell.params import SystemParams
from greencell.scaling import (PowerOverflowError, avg_transmit_power_exact,
                               stpc_power)
from oracles import sample_users, simulate_outage

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

    The same stream order as ``simulate_total_power`` (a chunk's counts,
    then its uniforms) and the same arithmetic: each uniform v turned into
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
        counts = rng.poisson(mean_count, chunk)
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

    def test_last_user_before_trailing_empty_trials_counts(self):
        trials, lam, radius, seed = 20, 1e-6, 500.0, 0
        counts = make_rng(seed).poisson(lam * math.pi * radius ** 2, trials)
        last = int(np.flatnonzero(counts)[-1])
        assert last < trials - 1 and counts[last] >= 2
        rng = make_rng(seed)
        rng.poisson(lam * math.pi * radius ** 2, trials)
        dist = radius * np.sqrt(rng.random(int(counts.sum())))
        sums, start = [], 0
        for n in counts:
            sums.append(float(np.sum(stpc_power(dist[start:start + n],
                                                float(n), P))) if n else 0.0)
            start += n
        est = simulate_total_power(lam, radius, P, trials, make_rng(seed))
        assert est.mean == pytest.approx(np.mean(sums), rel=1e-12)

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
            counts = rng.poisson(lam * math.pi * radius ** 2,
                                 min(20_000, trials - done))
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
            mp.setattr(mcsim, "_workers", lambda: 1)
            mp.setattr(mcsim, "_edge_fraction", counting)
            simulate_total_power(lam, radius, P, trials, make_rng(21))
        assert sum(sizes) == sum(int(c.sum()) for c in chunk_counts)
        assert len(sizes) == pieces and 0 not in sizes

    def test_memory_stays_bounded(self):
        # 12.6M users in one chunk: whole-chunk arrays peak near 600 MB.
        # The simulator peaks at 1.44 MiB (1.79 MiB with a result array per
        # piece); the RNG is made first, as its first call may import
        # numpy.random (0.67 MiB more).  The bound leaves 0.31 MiB headroom.
        rng = make_rng(1)
        tracemalloc.start()
        try:
            simulate_total_power(5e-5, 2000.0, SystemParams(), 20_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * 2 ** 20


def philox_fields(rng):
    """Every field of a Philox generator's state, arrays as lists."""
    state = rng.bit_generator.state
    return {"counter": state["state"]["counter"].tolist(),
            "key": state["state"]["key"].tolist(),
            "buffer": state["buffer"].tolist(),
            "buffer_pos": state["buffer_pos"],
            "has_uint32": state["has_uint32"],
            "uinteger": state["uinteger"]}


class TestRuns:
    """One run of trials per CPU, each from a Philox positioned in the one
    stream, leaves every estimate and the stream bit-identical."""

    @pytest.mark.parametrize("trials", [20_000, 45_000])
    def test_worker_count_is_invisible(self, trials):
        # more workers than cores, switching threads as often as it can
        seen = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3, 5):
                rng = make_rng(1234)
                rng.random(3)  # a part-used block
                rng.integers(0, 10, dtype=np.uint32)  # a buffered 32-bit half
                assert rng.bit_generator.state["has_uint32"] == 1
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(mcsim, "_workers", lambda: workers)
                    ests = [simulate_total_power(lam, radius, P, trials, rng)
                            for radius, lam in VALIDATE_GRID]
                seen[workers] = (ests, philox_fields(rng))
        finally:
            sys.setswitchinterval(interval)
        for workers in (2, 3, 5):
            assert seen[workers] == seen[1], workers

    @pytest.mark.parametrize("offset", [*range(13), *range(4_095, 4_100),
                                        65_536])
    @pytest.mark.parametrize("pos", range(5))
    def test_seek_matches_sequential_draws(self, pos, offset):
        bg = np.random.Philox(77)
        bg.random_raw(8 + pos)  # a block read up to pos (4 for pos 0)
        state = bg.state
        state["buffer_pos"] = pos  # pos 0: a block generated, none read
        state["has_uint32"], state["uinteger"] = 1, 123_456_789
        want = np.random.Generator(np.random.Philox(0))
        want.bit_generator.state = state
        want.bit_generator.random_raw(offset)
        got = np.random.Generator(
            mcsim._seek(np.random.Philox(0), state, offset))
        assert philox_fields(got) == philox_fields(want)
        assert got.bit_generator.random_raw(9).tolist() == \
            want.bit_generator.random_raw(9).tolist()

    def test_a_failing_helper_raises_in_the_caller(self):
        class Boom(Exception):
            pass

        calls = []
        raised = threading.Event()

        def failing(uniforms, radius, p):
            if threading.current_thread() is threading.main_thread():
                # the caller waits, so the helper takes two pieces however
                # late it starts
                raised.wait(timeout=60)
            else:
                calls.append(None)
                if len(calls) == 2:
                    raised.set()
                    raise Boom
            return edge_fraction(uniforms, radius, p)

        before = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mcsim, "_workers", lambda: 2)
            mp.setattr(mcsim, "_edge_fraction", failing)
            with pytest.raises(Boom):
                simulate_total_power(5e-5, 1000.0, P, 20_000, make_rng(3))
        assert len(calls) == 2
        assert threading.active_count() == before

    def test_a_chunk_of_few_pieces_stays_on_the_calling_thread(self):
        # 251k users, under 8 full pieces: whole pieces, no helper
        seen = []

        def recording(uniforms, radius, p):
            seen.append((threading.current_thread(), np.size(uniforms)))
            return edge_fraction(uniforms, radius, p)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mcsim, "_workers", lambda: 2)
            mp.setattr(mcsim, "_edge_fraction", recording)
            simulate_total_power(1e-6, 2000.0, P, 20_000, make_rng(6))
        assert {thread for thread, _ in seen} == {threading.main_thread()}
        assert max(size for _, size in seen) > mcsim._PIECE_USERS // 2

    def test_a_late_helper_leaves_its_share_to_the_caller(self):
        # the caller waits until the helper has taken a piece, then the
        # helper waits on it until the caller has drawn every other piece:
        # the caller takes them all, and the estimate and the stream are
        # those of one worker
        def run(kernel=edge_fraction, workers=2):
            rng = make_rng(8)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mcsim, "_workers", lambda: workers)
                mp.setattr(mcsim, "_edge_fraction", kernel)
                est = simulate_total_power(5e-5, 1000.0, P, 20_000, rng)
            return est, philox_fields(rng)

        sizes = []

        def counting(uniforms, radius, p):
            sizes.append(np.size(uniforms))
            return edge_fraction(uniforms, radius, p)

        run(counting)
        pieces = len(sizes)
        assert pieces > 8 * 2
        caller, helper = [], []
        helper_in, others_done = threading.Event(), threading.Event()

        def holding(uniforms, radius, p):
            if threading.current_thread() is threading.main_thread():
                assert helper_in.wait(timeout=60)
                caller.append(None)
                if len(caller) == pieces - 1:
                    others_done.set()
            else:
                helper_in.set()
                assert others_done.wait(timeout=60)
                helper.append(None)
            return edge_fraction(uniforms, radius, p)

        assert run(holding) == run(workers=1)
        assert (len(caller), len(helper)) == (pieces - 1, 1)


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
        counts = np.concatenate([[0, 1, 2, 0, 0, 1_000],
                                 make_rng(3).poisson(4.0, 500)])
        out = np.zeros(counts.size)
        mcsim._trial_sums(out, counts, radius, p, make_rng(4))
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
