"""The always-at-cap state: built once per Problem, a (density, params) pair,
and shared by solve's feasibility check and the four schemes."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from greencell import cli, optimal, suboptimal
from greencell.numerics import gauss_legendre
from greencell.optimal import Problem, max_achievable_throughput, solve
from greencell.params import SystemParams
from greencell.traffic import from_table, triangular

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "baseline.json"
SWEEP_GRID = "55.063,58.705,112.954"  # the benchmark's sweep row
TABLE_A = from_table(np.linspace(0.0, 1e-4, 9),
                     [0.25, 6.25, 9.25, 6.25, 6.25, 4.25, 2.25, 6.25, 7.25])
TABLE_B = from_table(np.linspace(0.0, 1e-4, 9),
                     [0.25, 5.25, 8.25, 7.25, 6.25, 5.25, 5.25, 6.25, 5.25])
# every solver: each returns (policy, metrics)
POLICIES = (solve, suboptimal.frw_ofc, suboptimal.frw_oofc,
            suboptimal.arw_ofc, suboptimal.arw_oofc)


def test_a_sweep_builds_the_cap_tail_once(monkeypatch, tmp_path):
    p, dist = cli._build_context(cli._load_config(str(CONFIG)))
    full = gauss_legendre(dist, 0.0, dist.lambda_max).nodes
    calls = []

    def counted(density, params):
        lams = np.ravel(density)
        calls.append(lams.size > full.size
                     and np.array_equal(lams[:full.size], full))
        return x2_star(density, params)

    x2_star = optimal.x2_star
    monkeypatch.setattr(optimal, "x2_star", counted)
    code = cli.main(["sweep", "--u-avg", SWEEP_GRID, "--config", str(CONFIG),
                     "--out", str(tmp_path / "sweep.csv")])
    assert code == cli.EXIT_OK
    assert calls.count(True) == 1


def _bits(out) -> tuple:
    """Every bit of a solver's (policy, metrics): the policy's values and its
    radius on a grid of densities."""
    policy, metrics = out
    grid = np.linspace(0.0, policy.lambda_max, 513)
    return (repr(policy), policy.radius_at(grid).tobytes(), repr(metrics))


@pytest.mark.parametrize("config", [CONFIG, CONFIG.with_name(
    "low_static.cfg")], ids=lambda path: path.name)
def test_the_cli_problem_solves_as_its_dist_and_params(config, monkeypatch,
                                                       tmp_path):
    # the one Problem a sweep builds, its cap state read by every row, gives
    # the results of a fresh solve or scheme call on (dist, p)
    seen = []  # the problem of each row
    rows = cli._policy_rows

    def spy(names, u_avgs, problem):
        seen.extend([problem] * (len(names) * len(u_avgs)))
        return rows(names, u_avgs, problem)

    monkeypatch.setattr(cli, "_policy_rows", spy)
    code = cli.main(["sweep", "--u-avg", SWEEP_GRID, "--config", str(config),
                     "--out", str(tmp_path / "sweep.csv")])
    assert code == cli.EXIT_OK
    problem = seen[0]
    assert len(seen) == 15 and all(q is problem for q in seen)
    p, dist = cli._build_context(cli._load_config(str(config)))
    for u in (0.05 * problem.frw_cap, 0.5 * problem.frw_cap,
              0.95 * problem.frw_cap):
        for solver in POLICIES:
            assert _bits(solver(u, problem)) == _bits(solver(u, dist, p))


@pytest.mark.parametrize("fraction", [1e-3, 0.3, 1.0])
@pytest.mark.parametrize("config", [CONFIG, CONFIG.with_name(
    "low_static.cfg")], ids=lambda path: path.name)
def test_every_number_a_solver_reports_is_a_float(config, fraction):
    # not a numpy scalar, whose repr the CLI's CSV would print
    p, dist = cli._build_context(cli._load_config(str(config)))
    problem = Problem(dist, p)
    numbers = [problem.cap, problem.frw_cap]
    for solver in (*POLICIES, lambda u, q: solve(u, q, mode="hse")):
        frw = solver in (suboptimal.frw_ofc, suboptimal.frw_oofc)
        policy, metrics = solver(
            fraction * (problem.frw_cap if frw else problem.cap), problem)
        numbers += [*metrics.as_dict().values(), *(
            v for v in policy.summary().values()
            if v is not None and not isinstance(v, str))]
    assert [type(v) for v in numbers] == [float] * len(numbers)


@pytest.mark.parametrize("switch", ["params", "density"])
def test_problems_that_differ_in_one_argument_have_different_caps(switch):
    p, dist = SystemParams(), TABLE_A
    other = Problem(dist, dataclasses.replace(p, max_bs_power=150.0)) \
        if switch == "params" else Problem(TABLE_B, p)
    assert Problem(dist, p).cap != other.cap
    assert other.cap == max_achievable_throughput(other.dist, other.params)


def test_the_cap_state_is_read_only():
    state = Problem(triangular(1e-4), SystemParams()).cap_state
    for values in (state.rule.nodes, state.rule.weights, state.x):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.users = 0.0


@pytest.mark.parametrize("config", [CONFIG, CONFIG.with_name(
    "low_static.cfg")], ids=lambda path: path.name)
def test_each_family_meets_a_floor_at_exactly_its_cap(config, monkeypatch):
    # solve at the cap returns policy_for_mu's mu = inf policy and the cap
    # state's metrics with no dual evaluation, as README says; below the
    # cap it reports the last state that met the floor.  FRw, whose cap is
    # its reach at lambda_max, meets its own cap
    p, dist = cli._build_context(cli._load_config(str(config)))
    problem = Problem(dist, p)
    states = []
    real = optimal._avg_throughput
    monkeypatch.setattr(optimal, "_avg_throughput", lambda mus, dist, p:
                        states.extend(real(mus, dist, p))
                        or states[-len(mus):])
    for mode in ("exact", "hse"):
        policy, metrics = solve(problem.cap, problem, mode=mode)
        want = optimal.policy_for_mu(math.inf, p, dist.lambda_max, mode)
        assert policy.summary() == want.summary()
        assert list(policy.rows()) == list(want.rows())
        assert metrics.avg_users >= problem.cap
        assert states == []
        assert metrics == problem.cap_state.metrics(policy)
        for fraction in (1e-3, 0.3):
            u_avg = fraction * problem.cap
            policy, metrics = solve(u_avg, problem, mode=mode)
            kept = [state for state in states if state.users >= u_avg][-1]
            states.clear()
            assert metrics.avg_users == kept.users
            assert metrics == kept.metrics(policy)
            assert policy.mu == kept.mu
            if mode == "exact":  # hse thresholds come from its closed forms
                assert policy.criticals == kept.criticals
    for scheme in (suboptimal.frw_ofc, suboptimal.frw_oofc):
        _, metrics = scheme(problem.frw_cap, problem)
        assert metrics.avg_users >= problem.frw_cap
