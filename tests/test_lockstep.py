"""Lockstep searches: many targets of one policy searched together give each
target the bits of a lone call, and each round evaluates once."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greencell import optimal, suboptimal
from greencell.numerics import bracketed_newton, lockstep, newton_search
from greencell.optimal import InfeasibleError, Problem, solve
from greencell.params import SystemParams
from greencell.traffic import from_table, triangular

DISTS = {"triangular": triangular(1e-4),
         "table": from_table([0.0, 2e-5, 5e-5, 1e-4], [0.3, 1.0, 0.6, 0.1])}
# targets by name, else as a fraction of the cap
EDGES = ("1e-8", "0.5", "ulp below", "cap", "above")
SCHEMES = {suboptimal.FRW_OFC: suboptimal.frw_ofc,
           suboptimal.FRW_OOFC: suboptimal.frw_oofc,
           suboptimal.ARW_OFC: suboptimal.arw_ofc,
           suboptimal.ARW_OOFC: suboptimal.arw_oofc}


def _targets(cap: float, picks) -> list:
    named = {"1e-8": 1e-8 * cap, "0.5": 0.5 * cap,
             "ulp below": math.nextafter(cap, 0.0), "cap": cap,
             "above": cap * (1.0 + 1e-9)}
    return [named[k] if isinstance(k, str) else k * cap for k in picks]


def _bits(out) -> tuple:
    """Every bit of a solver's (policy, metrics), or its error's message."""
    if isinstance(out, Exception):
        return type(out).__name__, str(out)
    policy, metrics = out
    grid = np.linspace(0.0, policy.lambda_max, 513)
    return (repr(policy.summary()), repr(metrics),
            policy.radius_at(grid).tobytes())


def solve_many(u_avgs, problem) -> list:
    """``solve`` at many targets in one lockstep, as a sweep runs it."""
    many, = suboptimal.solve_many(["optimal"], u_avgs, problem)
    return many


def _alone(solver, u_avg, problem):
    try:
        return solver(u_avg, problem)
    except InfeasibleError as exc:
        return exc


_picks = st.lists(st.one_of(st.sampled_from(EDGES),
                            st.floats(1e-6, 1.0)), min_size=1, max_size=5)


@settings(max_examples=30)
@given(static=st.sampled_from([20.0, 60.0, 120.0]),
       sleep=st.sampled_from([0.0, 0.5]),
       alpha=st.sampled_from([3.0, 4.5]),
       dist_name=st.sampled_from(sorted(DISTS)), picks=_picks)
@example(static=120.0, sleep=0.0, alpha=3.0, dist_name="table", picks=EDGES)
@example(static=20.0, sleep=0.5, alpha=4.5, dist_name="triangular",
         picks=EDGES)
def test_many_targets_have_the_bits_of_lone_calls(static, sleep, alpha,
                                                  dist_name, picks):
    p = SystemParams(static_power=static, sleep_power=sleep * static,
                     pathloss_exp=alpha)
    problem = Problem(DISTS[dist_name], p)
    us = _targets(problem.cap, picks)
    alone = {name: [_bits(_alone(solver, u, problem)) for u in us]
             for name, solver in (("optimal", solve), *SCHEMES.items())}
    assert [_bits(out) for out in solve_many(us, problem)] == alone["optimal"]
    # every policy in one lockstep, as a sweep runs them
    together = suboptimal.solve_many(list(alone), us, problem)
    for (name, want), outs in zip(alone.items(), together):
        assert [_bits(out) for out in outs] == want, name
    for name in (suboptimal.FRW_OFC, suboptimal.FRW_OOFC):
        us = _targets(problem.frw_cap, picks)
        many, = suboptimal.solve_many([name], us, problem)
        assert [_bits(out) for out in many] == [
            _bits(_alone(SCHEMES[name], u, problem)) for u in us], name


def test_a_round_evaluates_every_price_in_one_kernel_call(monkeypatch):
    problem = Problem(DISTS["triangular"], SystemParams())  # both regimes
    problem.cap  # the cap state's own x2_star call, before counting
    counts = {"x1_star": 0, "x2_star": 0, "rounds": 0, "prices": 0}

    def counted(name):
        real = getattr(optimal, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    real_eval = optimal._avg_throughput

    def evaluation(mus, dist, p):
        counts["rounds"] += 1
        counts["prices"] += len(mus)
        return real_eval(mus, dist, p)

    for name in ("x1_star", "x2_star"):
        monkeypatch.setattr(optimal, name, counted(name))
    monkeypatch.setattr(optimal, "_avg_throughput", evaluation)
    solve_many([f * problem.cap for f in (0.05, 0.3, 0.6, 0.9)], problem)
    assert counts["prices"] > 2 * counts["rounds"]
    assert 0 < counts["x1_star"] <= counts["rounds"]
    assert 0 < counts["x2_star"] <= counts["rounds"]


def test_many_arw_targets_share_each_rounds_kernel_call(monkeypatch):
    problem = Problem(DISTS["table"], SystemParams(static_power=60.0))
    problem.cap
    sizes = []
    real = suboptimal.max_range_x

    def counted(density, share, p):
        sizes.append(np.size(share))
        return real(density, share, p)

    monkeypatch.setattr(suboptimal, "max_range_x", counted)
    us = [f * problem.cap for f in (0.05, 0.3, 0.6, 0.9)]
    suboptimal.solve_many([suboptimal.ARW_OFC], us, problem)
    together = len(sizes)
    sizes.clear()
    for u in us:
        suboptimal.arw_ofc(u, problem)
    assert together < len(sizes) and max(sizes) == 1


def test_a_sweep_round_makes_one_capped_point_call(monkeypatch):
    # the dual evaluation's capped points ride on the ARw tails' call
    problem = Problem(DISTS["triangular"], SystemParams())
    problem.cap
    counts = {"round": 0, "max_range_x": 0, "x2_star": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name.strip("_")] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(suboptimal, "_round")
    counted(suboptimal, "max_range_x")
    counted(optimal, "x2_star")
    suboptimal.solve_many(["optimal", suboptimal.ARW_OFC, suboptimal.ARW_OOFC],
                          [f * problem.cap for f in (0.05, 0.5, 0.9)],
                          problem)
    assert counts["round"] > 0
    assert counts["max_range_x"] + counts["x2_star"] <= counts["round"]


def test_an_infeasible_target_is_its_rows_error_and_a_bad_one_raises():
    problem = Problem(DISTS["triangular"], SystemParams())
    out = solve_many([0.5 * problem.cap, 2.0 * problem.cap], problem)
    assert isinstance(out[1], InfeasibleError)
    assert _bits(out[0]) == _bits(solve(0.5 * problem.cap, problem))
    with pytest.raises(ValueError, match="finite and positive"):
        solve_many([0.5 * problem.cap, math.nan], problem)
    out, = suboptimal.solve_many([suboptimal.ARW_OOFC],
                                 [2.0 * problem.cap, 0.5 * problem.cap],
                                 problem)
    assert isinstance(out[0], InfeasibleError) and len(out) == 2


def test_an_evaluation_error_propagates_from_its_one_call():
    def search(v):
        return (yield v)

    calls = []

    def evaluate(requests):
        calls.append(list(requests))
        raise ValueError(f"bad round {requests}")

    with pytest.raises(ValueError, match=re.escape("bad round [1, 2, 3]")):
        lockstep([search(1), search(2), search(3)], evaluate)
    assert calls == [[1, 2, 3]]


def test_a_failed_sweep_round_is_evaluated_once(monkeypatch):
    problem = Problem(DISTS["triangular"], SystemParams())
    us = [f * problem.cap for f in (0.2, 0.5, 0.8)]
    real_eval = optimal._avg_throughput
    calls = []

    def failing(mus, dist, p):
        calls.append(list(mus))
        if len(calls) >= 2:
            raise ArithmeticError(f"evaluation {len(calls)}")
        return real_eval(mus, dist, p)

    monkeypatch.setattr(optimal, "_avg_throughput", failing)
    with pytest.raises(ArithmeticError, match="evaluation 2"):
        suboptimal.solve_many(["optimal"], us, problem)
    assert len(calls) == 2


def test_a_failed_lone_round_is_evaluated_once(monkeypatch):
    real_eval = optimal._avg_throughput
    calls = []

    def failing(mus, dist, p):
        calls.append(list(mus))
        if len(calls) >= 3:
            raise ArithmeticError(f"evaluation {len(calls)}")
        return real_eval(mus, dist, p)

    monkeypatch.setattr(optimal, "_avg_throughput", failing)
    with pytest.raises(ArithmeticError, match="evaluation 3"):
        solve(30.0, triangular(1e-4), SystemParams())
    assert len(calls) == 3


def test_newton_searches_in_lockstep_find_the_lone_roots():
    def fn(x, c):
        return c - x * x, -2.0 * x

    def search(c):
        def step(x):
            return (yield x, c)
        return (yield from newton_search(step, 0.0, 10.0, 1.0, 1e-14))

    cs = [0.5, 2.0, 3.0, 90.0]
    out = lockstep([search(c) for c in cs],
                   lambda requests: [fn(x, c) for x, c in requests])
    assert out == [bracketed_newton(lambda x, c=c: fn(x, c), 0.0, 10.0, 1.0,
                                    1e-14) for c in cs]
