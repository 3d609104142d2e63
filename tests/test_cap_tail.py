"""The always-at-cap tail: built once per (density, params) and shared by
solve's feasibility check and the four schemes."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from greencell import cli, optimal, suboptimal
from greencell.numerics import gauss_legendre
from greencell.optimal import cap_tail, max_achievable_throughput, solve
from greencell.params import SystemParams
from greencell.traffic import from_table, triangular

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "baseline.json"
SWEEP_GRID = "55.063,58.705,112.954"  # the benchmark's sweep row
TABLE_A = from_table(np.linspace(0.0, 1e-4, 9),
                     [0.25, 6.25, 9.25, 6.25, 6.25, 4.25, 2.25, 6.25, 7.25])
TABLE_B = from_table(np.linspace(0.0, 1e-4, 9),
                     [0.25, 5.25, 8.25, 7.25, 6.25, 5.25, 5.25, 6.25, 5.25])
SCHEMES = (suboptimal.frw_ofc, suboptimal.frw_oofc, suboptimal.arw_ofc,
           suboptimal.arw_oofc)


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


def _results(dist, p):
    cap = max_achievable_throughput(dist, p)
    out = [cap, solve(0.5 * cap, dist, p)[1]]
    for scheme in SCHEMES:
        out.append(scheme(0.5 * cap, dist, p).summary())
    return out


@pytest.mark.parametrize("switch", ["params", "density"])
def test_the_memo_key_covers_both_arguments(switch):
    p, dist = SystemParams(), TABLE_A
    if switch == "params":
        after = (dist, dataclasses.replace(p, max_bs_power=150.0))
    else:
        after = (TABLE_B, p)
    _results(dist, p)
    switched = _results(*after)
    cap_tail.cache_clear()
    assert switched == _results(*after)


def test_the_cap_tail_is_read_only():
    rule, x = cap_tail(triangular(1e-4), SystemParams())
    for values in (rule.nodes, rule.weights, x):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
