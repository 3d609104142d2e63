"""The A/B timer runs every workload on this checkout against itself, and
its digest tells a change that moves output bits from one that keeps them."""

import re
import shutil
import sys
from pathlib import Path

import pytest

import solve_timing

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def run(capsys, monkeypatch):
    """``solve_timing.main(argv)``'s output, by workload."""
    def run(*argv):
        monkeypatch.setattr(sys, "path", list(sys.path))
        try:
            code = solve_timing.main([str(a) for a in argv])
        finally:  # the two sides' packages leave with their directory
            for name in [n for n in sys.modules if n.split(".")[0]
                         in ("greencell_parent", "greencell_change")]:
                del sys.modules[name]
        assert code == 0
        sections = re.split(r"^== (\S+)\n", capsys.readouterr().out,
                            flags=re.MULTILINE)[1:]
        return dict(zip(sections[::2], sections[1::2]))
    return run


def digest_lines(text: str) -> dict:
    """side -> its five digest lines; "reach" -> side -> its reach count
    line; "uncalled" -> the change's functions that its CLI runs do not
    call; and the report below them."""
    _, parent, change = re.split(r"^-- (?:parent|change)\n", text,
                                 flags=re.MULTILINE)
    parent, change = parent.splitlines(), change.splitlines()
    uncalled = int(change[5].split()[0])
    return {"parent": parent[:-1], "change": change[:5],
            "reach": {"parent": parent[-1], "change": change[5]},
            "uncalled": change[6:6 + uncalled],
            "report": change[6 + uncalled:]}


def test_every_workload_reads_equal_digests_against_itself(run):
    out = run(ROOT, ROOT, "--workload", *solve_timing.WORKLOADS,
              "--repeats", "1")
    assert list(out) == list(solve_timing.WORKLOADS)
    for workload, text in out.items():
        if workload == "digest":
            lines = digest_lines(text)
            assert len(lines["parent"]) == 5
            assert lines["parent"] == lines["change"]
            assert lines["reach"]["parent"] == lines["reach"]["change"]
            assert lines["reach"]["change"].endswith(
                " functions not called by its CLI runs")
            # bound only for the benchmark's tracer; the entry point
            assert any(line.startswith("numerics.expect  (numerics.py:")
                       for line in lines["uncalled"])
            assert not any(line.startswith("cli.main  ")
                           for line in lines["uncalled"])
            assert lines["report"] == []
            continue
        assert "change won" in text, workload
        digests = {side: h for h, side in re.findall(
            r"^([0-9a-f]{64})  (parent|change) outputs$", text, re.MULTILINE)}
        assert digests.keys() == {"parent", "change"}, workload
        assert digests["parent"] == digests["change"], workload


def test_a_looser_dual_tolerance_shows_in_the_digest_and_the_report(
        run, tmp_path):
    change = tmp_path / "change"
    for part in ("src", "configs"):
        shutil.copytree(ROOT / part, change / part)
    optimal = change / "src" / "greencell" / "optimal.py"
    text = optimal.read_text()
    assert text.count("\nDUAL_TOL = ") == 1
    optimal.write_text(re.sub(r"\nDUAL_TOL = .*", "\nDUAL_TOL = 1e-12", text))
    lines = digest_lines(run(ROOT, change, "--workload", "digest")["digest"])
    # the total, the solver reprs, the CLI solve/sweep/schemes files, the
    # CLI validate-scaling files (no solve in them) and the source hash
    assert [a != b for a, b in zip(lines["parent"], lines["change"])] == [
        True, True, True, False, True]
    report = {line.split()[0]: line.split() for line in lines["report"][1:]}
    # the same reach: equal counts, and no one-sided call before the values
    assert lines["reach"]["parent"] == lines["reach"]["change"]
    assert lines["report"][0].endswith(" values on both sides")
    assert 0.0 < float(report["avg_power_w"][1]) < 1e-10
