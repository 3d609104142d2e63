import json

import pytest

from greencell import cli, mcsim
from greencell.cli import (EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE,
                           EXIT_VALIDATION_FAILED, main)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigLoading:
    def test_json_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"static_power": 60, "lambda_max": 1e-4}))
        code, out, _ = run(capsys, "solve", "--u-avg", "50",
                           "--config", str(cfg), "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["summary"]["case_tag"] in ("case_A", "case_B")

    def test_key_value_config_with_db_alternates(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# comment\nnoise_psd_dbm = -174\n"
                       "ref_pathloss_db = -60\nstatic_power = 60\n")
        code, out, _ = run(capsys, "solve", "--u-avg", "50",
                           "--config", str(cfg), "--format", "json")
        assert code == EXIT_OK

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nosuchkey": 1}))
        code, _, err = run(capsys, "solve", "--u-avg", "50",
                           "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "nosuchkey" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "solve", "--u-avg", "50",
                           "--config", "/nonexistent/cfg.json")
        assert code == EXIT_USAGE


@pytest.mark.parametrize("where", ["--config", "density_csv", "--out"])
def test_a_path_that_is_a_directory_is_an_error(tmp_path, capsys, where):
    argv = ["solve", "--u-avg", "50"]
    if where == "density_csv":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"density_csv": str(tmp_path)}))
        argv += ["--config", str(cfg)]
    else:
        argv += [where, str(tmp_path)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and str(tmp_path) in err
    assert out == ""


class TestSolveCommand:
    def test_case_tags_from_static_power(self, tmp_path, capsys):
        for pc, tag in ((120, "case_A"), (140, "case_B")):
            cfg = tmp_path / f"pc{pc}.json"
            cfg.write_text(json.dumps({"static_power": pc}))
            code, out, _ = run(capsys, "solve", "--u-avg", "50",
                               "--config", str(cfg), "--format", "json")
            assert code == EXIT_OK
            assert json.loads(out)["summary"]["case_tag"] == tag

    def test_infeasible_exit_code(self, capsys):
        code, _, err = run(capsys, "solve", "--u-avg", "5000")
        assert code == EXIT_INFEASIBLE
        assert "achievable" in err

    def test_csv_table_with_summary(self, tmp_path, capsys):
        out_path = tmp_path / "policy.csv"
        code, out, _ = run(capsys, "solve", "--u-avg", "50",
                           "--out", str(out_path))
        assert code == EXIT_OK
        header = out_path.read_text().splitlines()[0]
        assert header == "density,radius_m,bs_power_w,users"
        assert json.loads(out)["u_avg_requested"] == 50.0

    def test_manifest_written(self, tmp_path, capsys):
        out_path = tmp_path / "policy.csv"
        code, _, _ = run(capsys, "solve", "--u-avg", "50",
                         "--out", str(out_path))
        assert code == EXIT_OK
        manifest = json.loads(
            (tmp_path / "policy.csv.manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["params"]["static_power"] == 120.0
        assert manifest["distribution"]["kind"] == "triangular"

    def test_hse_mode_accepted(self, capsys):
        code, out, _ = run(capsys, "solve", "--u-avg", "50",
                           "--mode", "hse", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["summary"]["mode"] == "hse"


class TestValidateScaling:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, "validate-scaling", "--trials", "4000",
                           "--radii", "250,1000", "--densities", "1e-6,1e-5",
                           "--seed", "42")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("radius_m,density,analytic_w")
        assert len(lines) == 5

    def test_single_trial_still_emits(self, capsys):
        code, out, _ = run(capsys, "validate-scaling", "--trials", "1",
                           "--radii", "250", "--densities", "1e-6")
        assert len(out.strip().splitlines()) == 2

    def test_empty_radii_is_usage_error(self, capsys):
        code, _, err = run(capsys, "validate-scaling", "--radii", "")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [["--radii", "-1,2"], ["--radii=-1,2"]],
                             ids=["separate", "joined"])
    def test_a_list_led_by_a_negative_value_reaches_its_check(self, capsys,
                                                              argv):
        # "-1,2" is the flag's value, not an unknown flag
        code, out, err = run(capsys, "validate-scaling", *argv)
        assert code == EXIT_USAGE
        assert "argument --radii: values must be >= 0, got -1.0" in err
        assert out == ""

    def test_mismatch_exits_validation_failed(self, capsys, monkeypatch):
        def broken(density, radius, p, trials, rng):
            return mcsim.McEstimate(mean=1e9, std_err=1e-6, trials=trials)

        monkeypatch.setattr(cli.mcsim, "simulate_total_power", broken)
        code, _, _ = run(capsys, "validate-scaling", "--trials", "10",
                         "--radii", "250", "--densities", "1e-6")
        assert code == EXIT_VALIDATION_FAILED


class TestSweepCommand:
    def test_rows_sorted_and_flagged(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"static_power": 60}))
        code, out, _ = run(capsys, "sweep", "--u-avg", "120,50",
                           "--schemes", "optimal,frwoofc",
                           "--config", str(cfg))
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "scheme,u_avg,feasible,avg_power_w,on_probability"
        body = [line.split(",") for line in lines[1:]]
        assert [row[:2] for row in body] == [
            ["FRwoOFC", "50.0"], ["FRwoOFC", "120.0"],
            ["optimal", "50.0"], ["optimal", "120.0"]]
        # the fixed-radius scheme cannot reach 120 users; row is kept
        flagged = dict((tuple(row[:2]), row[2]) for row in body)
        assert flagged[("FRwoOFC", "120.0")] == "False"
        assert flagged[("optimal", "120.0")] == "True"
        assert flagged[("optimal", "50.0")] == "True"

    def test_unknown_scheme_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--u-avg", "50",
                           "--schemes", "bogus")
        assert code == EXIT_USAGE
        assert "bogus" in err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"static_power": 60}))
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code = main(["sweep", "--u-avg", "40", "--schemes",
                         "optimal,arwoofc", "--config", str(cfg),
                         "--out", str(path)])
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSchemesCommand:
    def test_all_four_reported(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"static_power": 60}))
        code, out, _ = run(capsys, "schemes", "--u-avg", "60",
                           "--config", str(cfg), "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert sorted(r["scheme"] for r in rows) == \
            ["ARwOFC", "ARwoOFC", "FRwOFC", "FRwoOFC"]
        assert all(r["feasible"] for r in rows)

    def test_rows_are_the_scheme_summaries(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"static_power": 60}))
        params, dist = cli._build_context(cli._load_config(str(cfg)))
        code, out, _ = run(capsys, "schemes", "--u-avg", "60",
                           "--config", str(cfg), "--format", "json")
        assert code == EXIT_OK
        for row in json.loads(out)["rows"]:
            want = cli._SCHEME_FUNCS[row["scheme"]](60.0, dist,
                                                    params).summary()
            # a family's unused knob is missing from its summary: null here
            assert {k: v for k, v in row.items() if v is not None} == \
                dict(want, u_avg=60.0, feasible=True)


def test_bad_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "solve", "--no-such-flag")
    assert code == EXIT_USAGE


def test_parser_built_once_and_handler_looked_up_per_call(capsys,
                                                          monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_validate_scaling",
                        lambda args: seen.append(args.trials) or EXIT_OK)
    assert main(["validate-scaling", "--trials", "3"]) == EXIT_OK
    assert seen == [3]
