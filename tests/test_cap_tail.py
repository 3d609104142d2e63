"""The always-at-cap tail: built once per Problem, a (density, params) pair,
and shared by solve's feasibility check and the four schemes."""

import dataclasses
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
    # the one Problem a sweep builds, its cap tail read by every row, gives
    # the results of a fresh solve or scheme call on (dist, p)
    seen = []
    row = cli._scheme_row

    def spy(name, u_avg, problem):
        seen.append(problem)
        return row(name, u_avg, problem)

    monkeypatch.setattr(cli, "_scheme_row", spy)
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


@pytest.mark.parametrize("switch", ["params", "density"])
def test_problems_that_differ_in_one_argument_have_different_caps(switch):
    p, dist = SystemParams(), TABLE_A
    other = Problem(dist, dataclasses.replace(p, max_bs_power=150.0)) \
        if switch == "params" else Problem(TABLE_B, p)
    assert Problem(dist, p).cap != other.cap
    assert other.cap == max_achievable_throughput(other.dist, other.params)


def test_the_cap_tail_is_read_only():
    rule, x = Problem(triangular(1e-4), SystemParams()).cap_tail
    for values in (rule.nodes, rule.weights, x):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
