"""The tabulated policy delivers what solve reports, right after switch-on
too; the table is built on first read and the exact peak needs none."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from greencell import cli, optimal
from greencell.metrics import evaluate
from greencell.optimal import CASE_A, CASE_B, solve
from greencell.traffic import from_table


def _context(path):
    return cli._build_context(cli._load_config(path))


def _table_metrics(policy, dist, p):
    return evaluate(policy.radius_at, dist, p, breakpoints=policy.breakpoints)


@pytest.mark.parametrize("config,u_avg,case", [
    # 23.0006 users: the table delivered 0.149% fewer users than reported
    # when it was re-decided per grid point
    ("configs/baseline.json", 23.0006, CASE_A),
    ("configs/baseline.json", 5.0, CASE_A),
    ("configs/baseline.json", 60.0, CASE_A),
    ("configs/baseline.json", 80.0, CASE_B),
    ("configs/baseline.json", 100.0, CASE_B),
    ("configs/low_static.cfg", 12.0, CASE_A),
    ("configs/low_static.cfg", 125.0, CASE_A),
])
def test_table_matches_reported_metrics(config, u_avg, case):
    p, dist = _context(config)
    policy, reported = solve(u_avg, dist, p)
    assert policy.case_tag == case
    table = _table_metrics(policy, dist, p)
    assert table.avg_users == pytest.approx(reported.avg_users, rel=1e-12)
    assert table.avg_power_w == pytest.approx(reported.avg_power_w, rel=1e-12)


@pytest.mark.parametrize("mode", ["exact", "hse"])
def test_radius_at_is_exact_and_elementwise(mode):
    # radius_at calls the kernels, so at the table's own grid it gives the
    # table's radii bit for bit, and a float gives a float
    p, dist = _context("configs/baseline.json")
    policy, _ = solve(60.0, dist, p, mode=mode)
    assert np.array_equal(policy.radius_at(policy.lambdas), policy.radii)
    i = int(np.argmax(policy.radii))
    one = policy.radius_at(float(policy.lambdas[i]))
    assert isinstance(one, float) and one == policy.radii[i]
    assert policy.radius_at(policy.lambdas.reshape(-1, 1)).shape == \
        (policy.lambdas.size, 1)


def test_table_is_on_right_after_switch_on():
    p, dist = _context("configs/baseline.json")
    policy, _ = solve(23.0006, dist, p)
    cut = policy.criticals.on_cutoff
    i = int(np.searchsorted(policy.lambdas, cut, side="right"))
    assert policy.lambdas[i] == np.nextafter(cut, dist.lambda_max)
    assert policy.radii[i - 1] == 0.0
    assert policy.radii[i] ** 2 == pytest.approx(
        optimal.x1_star(float(policy.lambdas[i]), policy.mu, p), rel=1e-12)


def test_on_probability_is_the_pdf_mass_above_the_cut_off():
    # an uneven table: inside a cell its cdf is quadratic, and a cdf
    # interpolated linearly there missed the mass above the cut-off
    p, _ = _context("configs/low_static.cfg")
    dist = from_table([0.0, 1e-5, 3e-5, 6e-5, 1e-4], [0.2, 1.0, 0.1, 0.8, 0.3])
    policy, reported = solve(20.0, dist, p)
    assert 6e-5 < policy.criticals.on_cutoff < 1e-4  # inside the last cell
    table = _table_metrics(policy, dist, p)
    assert reported.on_probability == pytest.approx(table.on_probability,
                                                    rel=1e-12)


CONFIGS = ("configs/baseline.json", "configs/low_static.cfg")
# the benchmark's table profile 0, stretched onto each config's lambda_max
PROFILE = [0.25, 6.25, 9.25, 6.25, 6.25, 4.25, 2.25, 6.25, 7.25]


@given(config=st.sampled_from(CONFIGS), table=st.booleans(),
       frac=st.floats(0.001, 0.999))
def test_peak_is_the_consumption_at_lambda_max(config, table, frac):
    # along the exact policy consumption rises with the density, so solve's
    # peak is the table's largest consumption and evaluate's peak; the hse
    # peak is still read from its table
    p, dist = _context(config)
    if table:
        dist = from_table(np.linspace(0.0, dist.lambda_max, 9), PROFILE)
    u_avg = frac * optimal.max_achievable_throughput(dist, p)
    policy, reported = solve(u_avg, dist, p)
    peak = reported.peak_bs_power_w
    assert peak == pytest.approx(float(policy.powers.max()), rel=1e-14)
    assert peak == pytest.approx(_table_metrics(policy, dist, p)
                                 .peak_bs_power_w, rel=1e-14)
    again = optimal.policy_for_mu(policy.mu, p, dist.lambda_max)
    for name in ("lambdas", "radii", "powers"):
        assert np.array_equal(getattr(policy, name), getattr(again, name))
    policy, reported = solve(u_avg, dist, p, mode="hse")
    assert reported.peak_bs_power_w == float(policy.powers.max())


def test_solve_runs_no_kernel_after_its_search(monkeypatch):
    # one _policy_x call per dual evaluation and none after the last one:
    # no table and no peak kernel; the table is built once, on first read
    p, dist = _context("configs/baseline.json")
    log = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            log.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_avg_throughput", "_policy_x"):
        monkeypatch.setattr(optimal, name,
                            counted(name, getattr(optimal, name)))
    policy, _ = solve(60.0, dist, p)
    evals = log.count("_avg_throughput")
    assert evals > 0 and log == ["_avg_throughput", "_policy_x"] * evals
    lambdas = policy.lambdas
    assert policy.lambdas is lambdas and policy.radii.size == lambdas.size
    assert log[2 * evals:] == ["_policy_x"]


@pytest.mark.parametrize("config,u_avg", [("configs/baseline.json", 23.0006),
                                          ("configs/baseline.json", 100.0),
                                          ("configs/low_static.cfg", 60.0)])
@pytest.mark.parametrize("mode", ["exact", "hse"])
def test_table_grid_is_the_sorted_distinct_densities(config, u_avg, mode):
    # as np.unique merges them, also when a threshold, or the density just
    # above one, lands on a grid point
    p, dist = _context(config)
    policy, _ = solve(u_avg, dist, p, mode=mode)
    grid = np.linspace(0.0, policy.lambda_max, optimal.POLICY_GRID)
    landed = dataclasses.replace(policy, criticals=dataclasses.replace(
        policy.criticals, lambda1=float(grid[700]),
        lambda3=float(np.nextafter(grid[1400], 0.0))))
    for pol in (policy, landed):
        inner = np.array(pol.breakpoints)
        want = np.unique(np.concatenate([
            grid, inner, np.nextafter(inner, pol.lambda_max)]))
        assert pol.lambdas.tobytes() == want.tobytes()
    assert landed.lambdas.size < grid.size + 2 * len(landed.breakpoints)


@pytest.mark.parametrize("mode", ["exact", "hse"])
def test_cli_solve_does_not_import_numpy_ma(tmp_path, mode):
    # np.unique's first call in a process imports numpy.ma (about 10 ms);
    # the table is merged without it.  leggauss would import
    # numpy.polynomial (a few ms); the rule's nodes are written out.  The
    # child imports greencell from where this process found it.
    src = str(Path(optimal.__file__).resolve().parents[1])
    argv = ["solve", "--u-avg", "50", "--mode", mode,
            "--out", str(tmp_path / "policy.csv")]
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "from greencell import cli; "
            f"assert cli.main({argv!r}) == 0; "
            "assert 'numpy.ma' not in sys.modules; "
            "assert 'numpy.polynomial' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True,
                   stdout=subprocess.DEVNULL)
