"""Inputs rejected at the boundary, and manifests that determine the output."""

import functools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from greencell import cli, mcsim, numerics, optimal, scaling, suboptimal
from greencell.cli import EXIT_OK, EXIT_USAGE, main
from greencell.metrics import evaluate
from greencell.optimal import solve
from greencell.params import (InvalidParameterError, SystemParams,
                              derive_constants, params_from_mapping)
from greencell.traffic import from_csv, from_table, triangular
from oracles import simulate_outage

P = SystemParams(static_power=60.0)
DIST = triangular(1e-4)
NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("u_avg", NON_FINITE + (0.0, -1.0))
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


BAD_SIZES = (-1000.0, -1e-5) + NON_FINITE


@pytest.mark.parametrize("bad", BAD_SIZES)
def test_evaluate_rejects_bad_radius(bad):
    # a negative radius squares into positive power and users while
    # counting as off, so no metric of it would mean anything
    with pytest.raises(ValueError, match="at density"):
        evaluate(lambda lam: bad, DIST, P)
    cut = 5e-5
    with pytest.raises(ValueError, match=f"at density {cut}"):
        # bad at the cut-off only, which is no quadrature node
        evaluate(lambda lam: np.where(lam == cut, bad, 300.0), DIST, P,
                 breakpoints=(cut,))


@pytest.mark.parametrize("bad", BAD_SIZES)
@pytest.mark.parametrize("name", ["density", "radius"])
def test_simulate_total_power_rejects_bad_geometry(name, bad):
    args = {"density": 1e-5, "radius": 1000.0, name: bad}
    with pytest.raises(ValueError, match=name):
        mcsim.simulate_total_power(args["density"], args["radius"], P, 10,
                                   mcsim.make_rng(0))


@pytest.mark.parametrize("bad", BAD_SIZES)
@pytest.mark.parametrize("name", ["distance", "per_user_power"])
def test_simulate_outage_rejects_bad_link(name, bad):
    args = {"distance": 200.0, "per_user_power": 1.0, name: bad}
    with pytest.raises(ValueError, match=name):
        simulate_outage(args["distance"], 1, args["per_user_power"], P, 10,
                        mcsim.make_rng(0))


@pytest.mark.parametrize("bad", BAD_SIZES)
@pytest.mark.parametrize("name", ["density", "radius"])
@pytest.mark.parametrize("law", [scaling.avg_transmit_power,
                                 scaling.avg_transmit_power_exact])
def test_transmit_power_laws_reject_bad_geometry(law, name, bad):
    args = {"density": 1e-5, "radius": 1000.0, name: bad}
    with pytest.raises(ValueError, match=name):
        law(args["radius"], args["density"], P)


@pytest.mark.parametrize("law", [scaling.avg_transmit_power,
                                 scaling.avg_transmit_power_exact])
def test_transmit_power_laws_give_zero_at_zero_geometry(law):
    assert law(0.0, 1e-5, P) == 0.0
    assert law(1000.0, 0.0, P) == 0.0
    assert law(0.0, 0.0, P) == 0.0


@pytest.mark.parametrize("bad", BAD_SIZES)
def test_stpc_power_rejects_a_bad_distance(bad):
    # a negative distance would get the power at r0, a non-finite one NaN
    # or inf
    with pytest.raises(ValueError, match="distance"):
        scaling.stpc_power(bad, 3, P)
    with pytest.raises(ValueError, match="distance"):
        scaling.stpc_power(np.array([100.0, bad]), 3, P)


def test_stpc_power_takes_zero_distance_as_the_reference_distance():
    assert scaling.stpc_power(0.0, 3, P) == scaling.stpc_power(
        P.ref_distance, 3, P)


@pytest.mark.parametrize("n_users", [0, 0.5, -3, math.nan, -math.inf])
def test_stpc_power_rejects_fewer_than_one_user(n_users):
    with pytest.raises(ValueError, match="n_users"):
        scaling.stpc_power(100.0, n_users, P)
    with pytest.raises(ValueError, match="n_users"):
        scaling.stpc_power(100.0, np.array([2.0, n_users]), P)


def test_stpc_power_an_infinite_count_breaks_the_load_guard():
    with pytest.raises(scaling.PowerOverflowError):
        scaling.stpc_power(100.0, math.inf, P)


@pytest.mark.parametrize("flag", ["--radii", "--densities"])
def test_validate_scaling_rejects_negative_grid(flag, capsys):
    code = main(["validate-scaling", "--trials", "10", f"{flag}=1e-6,-1000"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert flag in captured.err
    assert captured.out == ""


def test_validate_scaling_zero_grid_is_all_zero(capsys):
    code = main(["validate-scaling", "--trials", "10", "--radii", "0,250",
                 "--densities", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == EXIT_OK
    assert len(lines) == 3
    for line in lines[1:]:
        assert [float(v) for v in line.split(",")[2:6]] == [0.0] * 4


def _cli_manifest(tmp_path, capsys, name, *extra, command="solve"):
    out = tmp_path / name
    code = main([command, "--u-avg", "50", "--out", str(out), *extra])
    capsys.readouterr()
    assert code == EXIT_OK
    return json.loads((tmp_path / f"{name}.manifest.json").read_text())


def test_manifest_records_mode(tmp_path, capsys):
    exact = _cli_manifest(tmp_path, capsys, "exact.csv")
    hse = _cli_manifest(tmp_path, capsys, "hse.csv", "--mode", "hse")
    assert exact["options"] == {"mode": "exact", "u_avg": 50.0,
                                "format": "csv"}
    assert hse["options"] == {"mode": "hse", "u_avg": 50.0, "format": "csv"}
    assert exact != hse
    # the root tolerances of solve and the schemes, in the commands that
    # run either
    sweep = _cli_manifest(tmp_path, capsys, "sweep.csv", command="sweep")
    schemes = _cli_manifest(tmp_path, capsys, "schemes.csv",
                              command="schemes")
    for manifest in (exact, hse, sweep, schemes):
        assert manifest["tolerances"] == {
            "dual_tol": optimal.DUAL_TOL,
            "dual_grain": optimal.DUAL_GRAIN,
            "threshold_tol": optimal.THRESHOLD_TOL,
            "newton_step_tol": numerics.NEWTON_STEP_TOL,
            "cut_tol": suboptimal._CUT_TOL,
            "level_tol": suboptimal._LEVEL_TOL}


@pytest.mark.parametrize("key", cli.TOLERANCES)
@pytest.mark.parametrize("command", ["solve", "sweep", "schemes"])
def test_manifest_records_each_tolerance_as_run(tmp_path, capsys,
                                                monkeypatch, command, key):
    # one float up leaves every payload byte as it was: the manifest alone
    # tells the two runs apart, by the value each constant had
    def run(name):
        out = tmp_path / name
        code = main([command, "--u-avg", "50", "--format", "json",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        return out.read_bytes(), json.loads(
            (tmp_path / f"{name}.manifest.json").read_text())

    output, manifest = run("first")
    module, name = cli.TOLERANCES[key]
    value = math.nextafter(getattr(module, name), math.inf)
    monkeypatch.setattr(module, name, value)
    patched_output, patched_manifest = run("patched")
    assert patched_output == output
    assert patched_manifest["tolerances"] == {**manifest["tolerances"],
                                              key: value}


# per command: base arguments, and inputs each of which alone changes the
# output; --config is covered by the params and distribution records
MANIFEST_INPUTS = {
    "solve": (["--u-avg", "50"],
              [["--u-avg", "51"], ["--mode", "hse"], ["--format", "json"]]),
    "sweep": (["--u-avg", "30,50"],
              [["--u-avg", "40,50"], ["--schemes", "optimal,arwofc"],
               ["--format", "json"]]),
    "schemes": (["--u-avg", "50"], [["--u-avg", "51"], ["--format", "json"]]),
    "validate-scaling": (
        ["--trials", "10", "--radii", "1000", "--densities", "1e-5"],
        [["--radii", "500"], ["--densities", "2e-5"], ["--trials", "11"],
         ["--seed", "5"], ["--format", "json"]]),
}


@pytest.mark.parametrize("command", MANIFEST_INPUTS)
def test_manifest_records_every_input_that_changes_the_output(
        tmp_path, capsys, command):
    base, changes = MANIFEST_INPUTS[command]

    def run(name, *extra):
        out = tmp_path / name
        code = main([command, *base, *extra, "--out", str(out)])
        capsys.readouterr()
        assert code in (EXIT_OK, cli.EXIT_VALIDATION_FAILED)
        manifest = tmp_path / f"{name}.manifest.json"
        return out.read_bytes(), manifest.read_text()

    output, manifest = run("first")
    assert run("again") == (output, manifest)
    for k, change in enumerate(changes):
        changed_output, changed_manifest = run(f"changed{k}", *change)
        assert changed_output != output, change
        assert changed_manifest != manifest, change


def test_manifest_tells_density_tables_apart(tmp_path, capsys):
    manifests = []
    for name, weights in (("a", (1.0, 2.0, 1.0)), ("b", (1.0, 3.0, 1.0))):
        table = tmp_path / f"{name}.csv"
        table.write_text("lambda,weight\n" + "".join(
            f"{lam},{w}\n" for lam, w in zip((0.0, 5e-5, 1e-4), weights)))
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"static_power": 60,
                                   "density_csv": str(table)}))
        manifests.append(_cli_manifest(tmp_path, capsys, f"{name}.out",
                                         "--config", str(cfg)))
    a, b = (m["distribution"] for m in manifests)
    assert a["lambda_max"] == b["lambda_max"]
    assert len(a["table_sha256"]) == 64
    assert a != b


def test_manifest_changes_with_the_source(tmp_path):
    # a constant edited in a copy of the package changes validate-scaling's
    # bytes, and its manifest with them; an unedited copy writes the same
    # manifest and output as the package itself
    package = Path(cli.__file__).resolve().parent

    def copy(name, old="", new=""):
        tree = tmp_path / name
        shutil.copytree(package, tree / "greencell",
                        ignore=shutil.ignore_patterns("__pycache__"))
        source = tree / "greencell" / "mcsim.py"
        text = source.read_text()
        assert old in text
        source.write_text(text.replace(old, new))
        return tree

    def run(tree, name):
        out = tmp_path / f"{name}.csv"
        done = subprocess.run(
            [sys.executable, "-m", "greencell.cli", "validate-scaling",
             "--trials", "20", "--radii", "500", "--densities", "1e-5",
             "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(tree)}, cwd=tmp_path,
            capture_output=True)
        assert done.returncode in (EXIT_OK, cli.EXIT_VALIDATION_FAILED)
        return out.read_bytes(), json.loads(
            (tmp_path / f"{name}.csv.manifest.json").read_text())

    output, manifest = run(package.parent, "package")
    assert run(copy("same"), "same") == (output, manifest)
    edited_output, edited_manifest = run(
        copy("edited", "_TRIAL_CHUNK = 20_000", "_TRIAL_CHUNK = 7"), "edited")
    assert edited_output != output
    assert {k for k in manifest if edited_manifest[k] != manifest[k]} == {
        "source_sha256"}
    assert manifest["numpy_version"] == np.__version__


def test_table_digest_ignores_row_order_and_scale(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text("0,1\n5e-5,2\n1e-4,1\n")
    second.write_text("1e-4,2\n0,2\n5e-5,4\n")
    assert from_csv(first).describe() == from_csv(second).describe()


@pytest.mark.parametrize("bad", NON_FINITE)
def test_triangular_rejects_non_finite_lambda_max(bad):
    with pytest.raises(ValueError, match="lambda_max must be finite"):
        triangular(bad)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", ["lams", "weights"])
def test_from_table_rejects_non_finite_entries(name, bad):
    # a knot at inf would become lambda_max; a weight at inf makes pdf NaN
    table = {"lams": [0.0, 5e-5, 1e-4], "weights": [1.0, 2.0, 1.0]}
    table[name][1 if name == "weights" else 2] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        from_table(table["lams"], table["weights"])


def test_cli_rejects_non_finite_lambda_max(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("lambda_max = inf\n")
    code = main(["solve", "--u-avg", "50", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "lambda_max must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", [f.name for f in fields(SystemParams)])
def test_params_reject_non_finite_fields(name, bad):
    with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
        SystemParams(**{name: bad})


@pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
def test_cli_rejects_non_finite_power_cap(tmp_path, capsys, raw):
    cfg = tmp_path / "cap.cfg"
    cfg.write_text(f"max_bs_power = {raw}\n")
    code = main(["solve", "--u-avg", "50", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "max_bs_power must be finite" in captured.err
    assert captured.out == ""


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


def test_json_config_rejects_fractional_coding_blocks(tmp_path, capsys):
    # int() would read 1.5 as 1 before SystemParams could check it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coding_blocks": 1.5}))
    with pytest.raises(InvalidParameterError, match="coding_blocks"):
        cli._build_context(cli._load_config(str(cfg)))
    code = main(["solve", "--u-avg", "50", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "coding_blocks" in captured.err
    assert captured.out == ""
    # a whole number, written either way, is still the int field
    cfg.write_text(json.dumps({"coding_blocks": 2.0}))
    p, _ = cli._build_context(cli._load_config(str(cfg)))
    assert p.coding_blocks == 2 and isinstance(p.coding_blocks, int)


@pytest.mark.parametrize("key,value", [
    ("static_power", None), ("static_power", [1]), ("static_power", True),
    ("static_power", {"w": 120}), ("static_power", "abc"),
    ("noise_psd_dbm", False), ("lambda_max", None), ("lambda_max", True),
    # open() would read an int as a file descriptor: 0 is stdin
    ("density_csv", 0), ("density_csv", ["table.csv"]),
])
def test_json_config_values_are_type_checked(tmp_path, capsys, key, value):
    # a parameter or lambda_max is a number or a string, a density_csv a
    # string
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code = main(["solve", "--u-avg", "50", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("error:") and key in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key", ["noise_psd_dbm", "ref_pathloss_db"])
def test_db_value_whose_linear_value_overflows_is_an_error(tmp_path, capsys,
                                                            key):
    # 10 ** (1e300 / 10) is past the float range: an error naming the key,
    # not a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1e300}))
    code = main(["solve", "--u-avg", "50", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("error:") and key in captured.err
    assert captured.out == ""


def test_density_csv_row_without_a_weight_is_an_error(tmp_path, capsys):
    table = tmp_path / "short.csv"
    table.write_text("lambda,weight\n0,1\n1e-5\n1e-4,1\n")
    with pytest.raises(ValueError, match="1e-5"):
        from_csv(table)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"density_csv": str(table)}))
    code = main(["solve", "--u-avg", "50", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("error:") and "1e-5" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text, bad", [
    ("0,1\n5e-5,abc\n1e-4,1\n", "abc"),
    ("0,abc\n5e-5,2\n1e-4,1\n", "abc"),  # a header has no number first
    ("# comment\n0,1\nlambda,weight\n1e-4,1\n", "lambda"),
])
def test_density_csv_row_that_does_not_parse_is_an_error(tmp_path, capsys,
                                                         text, bad):
    # only the first row that is not a comment may be a header
    table = tmp_path / "typo.csv"
    table.write_text(text)
    with pytest.raises(ValueError, match=bad):
        from_csv(table)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"density_csv": str(table)}))
    code = main(["solve", "--u-avg", "50", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("error:") and bad in captured.err


def test_density_csv_header_may_follow_comments(tmp_path):
    table = tmp_path / "header.csv"
    table.write_text("# knots\n\nlambda,weight\n0,0\n5e-5,2\n1e-4,0\n")
    assert from_csv(table).pdf(5e-5) == pytest.approx(2e4, rel=1e-12)


def test_config_line_without_an_equals_sign_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("static_power = 60\nnoequals\n")
    code = main(["solve", "--u-avg", "50", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("error:") and "noequals" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,flag", [
    (["validate-scaling", "--trials", "0"], "--trials"),
    (["sweep", "--u-avg", "50", "--schemes", ","], "--schemes"),
])
def test_cli_rejects_a_flag_with_no_valid_value(argv, flag, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("usage error:") and flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("trials", [0, -1])
def test_simulate_total_power_rejects_no_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        mcsim.simulate_total_power(1e-5, 1000.0, P, trials,
                                   mcsim.make_rng(0))


# any numpy Generator draws the users, each from its own stream; a legacy
# RandomState is no Generator
@pytest.mark.parametrize("bit_generator", [
    np.random.PCG64, np.random.Philox, np.random.MT19937],
    ids=["pcg64", "philox", "mt19937"])
def test_simulate_total_power_takes_any_numpy_generator(bit_generator):
    lam, radius, trials = 1e-5, 1000.0, 10
    est = mcsim.simulate_total_power(lam, radius, P, trials,
                                     np.random.Generator(bit_generator(0)))
    replay = np.random.Generator(bit_generator(0))
    counts = mcsim._poisson_counts(lam * math.pi * radius ** 2, trials, P,
                                   replay)
    dist = radius * np.sqrt(replay.random(int(counts.sum())))
    sums = [float(np.sum(scaling.stpc_power(users, float(users.size), P)))
            if users.size else 0.0
            for users in np.split(dist, np.cumsum(counts)[:-1])]
    assert est.mean == pytest.approx(np.mean(sums), rel=1e-12)


def test_simulate_total_power_rejects_a_random_state():
    with pytest.raises(TypeError, match="Generator"):
        mcsim.simulate_total_power(1e-5, 1000.0, P, 10,
                                   np.random.RandomState(0))


@pytest.mark.parametrize("mu", [0.0, -1.0])
@pytest.mark.parametrize("call", [
    lambda mu: optimal.critical_densities(mu, P),
    lambda mu: optimal.hse_critical_densities(mu, P),
    lambda mu: optimal.hse_x1(1e-5, mu, P),
], ids=["critical_densities", "hse_critical_densities", "hse_x1"])
def test_price_must_be_positive(call, mu):
    with pytest.raises(ValueError, match="mu must be positive"):
        call(mu)


# a NaN price passed every check as if it were none; an infinite one failed
# in a math domain error.  policy_for_mu takes mu = inf as the cap policy
PRICE_CALLS = {
    "critical_densities": lambda mu: optimal.critical_densities(mu, P),
    "hse_critical_densities":
        lambda mu: optimal.hse_critical_densities(mu, P),
    "x1_star": lambda mu: optimal.x1_star(5e-5, mu, P),
    "hse_x1": lambda mu: optimal.hse_x1(5e-5, mu, P),
    "subproblem": lambda mu: optimal.subproblem(5e-5, mu, P),
    "subproblem_off": lambda mu: optimal.subproblem(0.0, mu, P),
    "policy_for_mu": lambda mu: optimal.policy_for_mu(mu, P, 1e-4),
    "policy_for_mu_hse":
        lambda mu: optimal.policy_for_mu(mu, P, 1e-4, mode="hse"),
}


@pytest.mark.parametrize("name, mu", [
    (name, mu) for name in PRICE_CALLS for mu in (math.nan, math.inf)
    if not (name.startswith("policy_for_mu") and mu == math.inf)])
def test_price_must_be_a_finite_number(name, mu):
    with pytest.raises(ValueError,
                       match=f"mu must be positive and finite, got {mu}"):
        PRICE_CALLS[name](mu)


# a NaN price gave a NaN Lagrangian and an infinite one -inf, silently
@pytest.mark.parametrize("mu", NON_FINITE)
def test_lagrangian_rejects_a_non_finite_price(mu):
    with pytest.raises(ValueError, match=f"mu must be finite, got {mu}"):
        optimal.lagrangian_x(1e5, 5e-5, mu, P)


def test_lagrangian_at_a_finite_price_is_unchanged():
    # the check leaves the value the formula gives, bit for bit, at any
    # finite price (zero and negative ones included) and array shape
    x = np.array([0.0, 1.0, 1e5, 4e6])
    lam = np.array([0.0, 1e-6, 5e-5, 1e-4])
    for mu in (-1.0, 0.0, 1e-3, 1.05, 1e9):
        want = scaling.bs_power_x(x, lam, P) - mu * math.pi * lam * x
        assert np.array_equal(optimal.lagrangian_x(x, lam, mu, P), want)
        for xi, li, wi in zip(x, lam, want):
            assert optimal.lagrangian_x(float(xi), float(li), mu, P) == wi


# a subnormal density gave NaN (hse) or failed in Newton (exact); NaN gave
# NaN (hse) or failed on the Newton seeds (exact), as inf did
@pytest.mark.parametrize("density", [
    0.0, -1e-5, np.array([1e-5, 0.0]), 5e-324, 1e-320,
    pytest.param(math.nan, id="nan"), pytest.param(math.inf, id="inf")])
@pytest.mark.parametrize("call", [
    lambda lam: optimal.x1_star(lam, 1.0, P),
    lambda lam: optimal.hse_x1(lam, 1.0, P),
    lambda lam: optimal.hse_x2(lam, P),
    lambda lam: scaling.max_range_x(lam, P.max_bs_power - P.static_power, P),
], ids=["x1_star", "hse_x1", "hse_x2", "max_range_x"])
def test_kernel_density_must_be_positive(call, density):
    with pytest.raises(ValueError,
                       match="density must be positive, normal and finite"):
        call(density)


# mu pi lambda / (a d1) underflowed before its log: NaN with a RuntimeWarning
# (the first two), or a subnormal whose log put x off by 3.6e-5; a subnormal
# mu pi put the law off by 6.2e-11 in logs (the last)
@pytest.mark.parametrize("density, mu", [
    (1e-30, 1e-300), (1e-4, 5e-324), (1e-10, 1e-310), (1e-4, 1e-310)])
def test_x1_star_takes_a_right_side_below_the_float_range(density, mu):
    x = optimal.x1_star(density, mu, P)
    c, h = derive_constants(P), 0.5 * P.pathloss_exp
    y = c.d3 * math.pi * density * x
    # a Pt'(x) = mu pi lambda, each side in logs
    lhs = math.log(P.amp_scaling * c.d1) + (h - 1.0) * math.log(x) + y \
        + math.log(h * -math.expm1(-y) + y)
    assert lhs == pytest.approx(
        math.log(mu) + math.log(math.pi) + math.log(density), rel=1e-14)
    assert optimal.subproblem(density, mu, P) == 0.0


# share / (a d1) was a subnormal whose log put the law off by 2.9e-9 in logs
@pytest.mark.parametrize("density, share", [
    (1e-4, 5e-324), (1e-4, 1e-322), (1e-30, 5e-324)])
def test_max_range_x_takes_a_right_side_below_the_float_range(density, share):
    x = scaling.max_range_x(density, share, P)
    c, h = derive_constants(P), 0.5 * P.pathloss_exp
    y = c.d3 * math.pi * density * x
    # a Pt(x) = share, each side in logs
    lhs = math.log(P.amp_scaling * c.d1) + h * math.log(x) + y \
        + math.log(-math.expm1(-y))
    assert lhs == pytest.approx(math.log(share), rel=1e-14)


# the seed W(k r^(1/h)) / k underflowed to 0 or overflowed to NaN, and
# newton_log failed on its own seed check; the hse forms gave 0 or NaN
@pytest.mark.parametrize("call, density, value", [
    (optimal.x1_star, 1e-300, 1e-300), (optimal.x1_star, 1e-4, 1e300),
    (optimal.hse_x1, 1e-300, 1e-300), (optimal.hse_x1, 1e-4, 1e300),
    (scaling.max_range_x, 1e-300, 1e-300),
    (scaling.max_range_x, 1e300, 1e300)],
    ids=lambda v: getattr(v, "__name__", repr(v)))
def test_a_root_search_that_leaves_the_float_range_names_its_inputs(
        call, density, value):
    name = "share" if call is scaling.max_range_x else "mu"
    with pytest.raises(ValueError, match=re.escape(
            f"leaves the float range at density {density!r} and "
            f"{name} {value!r}")):
        call(density, value, P)


@given(density=st.floats(min_value=sys.float_info.min,
                         max_value=sys.float_info.max),
       value=st.floats(min_value=5e-324, max_value=sys.float_info.max),
       kernel=st.sampled_from(["x1_star", "hse_x1", "max_range_x"]))
@example(density=1e-30, value=1e-300, kernel="x1_star")
@example(density=1e-300, value=1e-300, kernel="max_range_x")
def test_each_kernel_returns_its_root_or_names_its_inputs(density, value,
                                                          kernel):
    # at any positive normal density and positive price or share: a
    # positive finite x, or ValueError naming both; never NaN, never a
    # warning (an error under this suite's settings)
    call = {"x1_star": optimal.x1_star, "hse_x1": optimal.hse_x1,
            "max_range_x": scaling.max_range_x}[kernel]
    try:
        x = call(np.array([density, density]), value, P)
    except ValueError as exc:
        assert f"density {density!r}" in str(exc)
        assert f"{value!r}" in str(exc)
    else:
        assert np.all((x > 0.0) & (x < math.inf))


SOLVERS = (solve, suboptimal.frw_ofc, suboptimal.frw_oofc,
           suboptimal.arw_ofc, suboptimal.arw_oofc)


@functools.lru_cache(maxsize=None)
def _policy(solver):
    """The policy ``solver`` returns at one target."""
    return solver(60.0, DIST, P)[0]


# each gave 0 at NaN; at inf FRw gave its radius and the others failed on
# the kernels' Newton seeds
@pytest.mark.parametrize("density", [
    math.nan, math.inf, -math.inf, -1e-5, np.array([5e-5, math.nan])],
    ids=["nan", "inf", "-inf", "negative", "array"])
@pytest.mark.parametrize("solver", SOLVERS, ids=lambda f: f.__name__)
def test_radius_at_rejects_a_bad_density(solver, density):
    with pytest.raises(ValueError, match="density must be finite and >= 0"):
        _policy(solver).radius_at(density)


@pytest.mark.parametrize("solver", SOLVERS, ids=lambda f: f.__name__)
def test_radius_at_takes_zero_and_lambda_max(solver):
    radii = _policy(solver).radius_at(np.array([0.0, DIST.lambda_max]))
    assert np.all(np.isfinite(radii) & (radii >= 0.0))


@pytest.mark.parametrize("text", [
    "static_power = 60\nstatic_power = 120\n",
    '{"static_power": 60, "static_power": 120}'], ids=["key_value", "json"])
def test_a_config_key_given_twice_is_an_error(tmp_path, capsys, text):
    # the last value was read, silently
    cfg = tmp_path / "cfg"
    cfg.write_text(text)
    code = main(["solve", "--u-avg", "50", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "static_power given twice" in err
    assert out == ""


def test_lambda_max_with_a_density_table_is_an_error(tmp_path, capsys):
    # the table was read and lambda_max dropped, in the manifest too
    table = tmp_path / "table.csv"
    table.write_text("lambda,weight\n0,1\n5e-5,2\n1e-4,1\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda_max": 3e-4,
                               "density_csv": str(table)}))
    out_file = tmp_path / "out.csv"
    code = main(["solve", "--u-avg", "50", "--config", str(cfg),
                 "--out", str(out_file)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "both lambda_max and density_csv" in err
    assert not out_file.exists()


def test_policy_for_mu_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="bogus"):
        optimal.policy_for_mu(1.0, P, 1e-4, mode="bogus")


@pytest.mark.parametrize("alternate,field", [
    ("noise_psd_dbm", "noise_psd"), ("ref_pathloss_db", "ref_pathloss")])
def test_db_alternate_given_before_its_field_is_an_error(alternate, field):
    # the other order is caught on reading the alternate
    with pytest.raises(InvalidParameterError, match=f"both {field}"):
        params_from_mapping({alternate: -60.0, field: 1e-6})


@pytest.mark.parametrize("law", [scaling.avg_transmit_power,
                                 scaling.avg_transmit_power_exact])
def test_transmit_power_laws_guard_the_load_exponent(law):
    # about 3e6 users in the cell: an exponent past EXPONENT_GUARD_BITS
    with pytest.raises(scaling.PowerOverflowError, match="exceeds guard"):
        law(1e4, 1e-2, P)


@pytest.mark.parametrize("lams,weights,match", [
    ([0.0, 5e-5, 1e-4], [1.0, 2.0], "matching"),
    ([[0.0, 1e-4]], [[1.0, 1.0]], "matching"),
    ([1e-4], [1.0], "at least two"),
    ([0.0, 5e-5, 1e-4], [0.0, 0.0, 0.0], "integrate to zero"),
])
def test_from_table_rejects_a_malformed_table(lams, weights, match):
    with pytest.raises(ValueError, match=match):
        from_table(lams, weights)


def test_from_table_extends_the_support_to_zero_with_the_first_weight():
    dist = from_table([2e-5, 1e-4], [3.0, 1.0])
    want = from_table([0.0, 2e-5, 1e-4], [3.0, 3.0, 1.0])
    lam = np.linspace(0.0, 1e-4, 41)
    assert dist.lambda_max == want.lambda_max == 1e-4
    assert dist.pdf(0.0) == dist.pdf(2e-5) > 0.0
    np.testing.assert_array_equal(dist.pdf(lam), want.pdf(lam))
    np.testing.assert_array_equal(dist.cdf(lam), want.cdf(lam))
