"""The tabulated policy delivers what solve reports, right after switch-on too."""

import numpy as np
import pytest

from greencell import cli, optimal
from greencell.metrics import evaluate
from greencell.optimal import CASE_A, CASE_B, solve


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
    assert table.avg_users == pytest.approx(reported.avg_users, rel=1e-6)
    assert table.avg_power_w == pytest.approx(reported.avg_power_w, rel=1e-6)


def test_table_is_on_right_after_switch_on():
    p, dist = _context("configs/baseline.json")
    policy, _ = solve(23.0006, dist, p)
    cut = policy.criticals.on_cutoff
    i = int(np.searchsorted(policy.lambdas, cut, side="right"))
    assert policy.lambdas[i] == np.nextafter(cut, dist.lambda_max)
    assert policy.radii[i - 1] == 0.0
    assert policy.radii[i] ** 2 == pytest.approx(
        optimal.x1_star(float(policy.lambdas[i]), policy.mu, p), rel=1e-12)
