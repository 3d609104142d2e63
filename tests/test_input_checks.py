"""Inputs rejected at the boundary, and manifests that determine the output."""

import json
import math

import pytest

from greencell import cli, suboptimal
from greencell.cli import EXIT_OK, EXIT_USAGE, main
from greencell.optimal import solve
from greencell.params import InvalidParameterError, SystemParams
from greencell.traffic import from_csv, triangular

P = SystemParams(static_power=60.0)
DIST = triangular(1e-4)
NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("u_avg", NON_FINITE)
@pytest.mark.parametrize("func", [
    solve, suboptimal.frw_ofc, suboptimal.frw_oofc, suboptimal.arw_ofc,
    suboptimal.arw_oofc])
def test_library_rejects_non_finite_target(func, u_avg):
    with pytest.raises(ValueError, match="finite"):
        func(u_avg, DIST, P)


@pytest.mark.parametrize("command", ["solve", "sweep", "schemes"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_cli_rejects_non_finite_target(command, raw, capsys):
    code = main([command, f"--u-avg={raw}"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "--u-avg" in err


def test_sweep_rejects_non_finite_entry_in_list(capsys):
    code = main(["sweep", "--u-avg", "40,nan", "--schemes", "optimal"])
    assert code == EXIT_USAGE
    assert "--u-avg" in capsys.readouterr().err


def _solve_manifest(tmp_path, capsys, name, *extra):
    out = tmp_path / name
    code = main(["solve", "--u-avg", "50", "--out", str(out), *extra])
    capsys.readouterr()
    assert code == EXIT_OK
    return json.loads((tmp_path / f"{name}.manifest.json").read_text())


def test_manifest_records_mode(tmp_path, capsys):
    exact = _solve_manifest(tmp_path, capsys, "exact.csv")
    hse = _solve_manifest(tmp_path, capsys, "hse.csv", "--mode", "hse")
    assert exact["options"] == {"mode": "exact"}
    assert hse["options"] == {"mode": "hse"}
    assert exact != hse


def test_manifest_tells_density_tables_apart(tmp_path, capsys):
    manifests = []
    for name, weights in (("a", (1.0, 2.0, 1.0)), ("b", (1.0, 3.0, 1.0))):
        table = tmp_path / f"{name}.csv"
        table.write_text("lambda,weight\n" + "".join(
            f"{lam},{w}\n" for lam, w in zip((0.0, 5e-5, 1e-4), weights)))
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"static_power": 60,
                                   "density_csv": str(table)}))
        manifests.append(_solve_manifest(tmp_path, capsys, f"{name}.out",
                                         "--config", str(cfg)))
    a, b = (m["distribution"] for m in manifests)
    assert a["lambda_max"] == b["lambda_max"]
    assert len(a["table_sha256"]) == 64
    assert a != b


def test_table_digest_ignores_row_order_and_scale(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text("0,1\n5e-5,2\n1e-4,1\n")
    second.write_text("1e-4,2\n0,2\n5e-5,4\n")
    assert from_csv(first).describe() == from_csv(second).describe()


def test_triangular_description_unchanged():
    assert triangular(1e-4).describe() == {"kind": "triangular",
                                           "lambda_max": 1e-4}


def test_json_config_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    with pytest.raises(InvalidParameterError,
                       match="JSON config must be an object"):
        cli._load_config(str(cfg))
    code = main(["solve", "--u-avg", "50", "--config", str(cfg)])
    assert code == EXIT_USAGE
    assert "JSON config must be an object" in capsys.readouterr().err
