"""The A/B timer runs every workload on this checkout against itself."""

import re
import sys
from pathlib import Path

import solve_timing

ROOT = Path(__file__).resolve().parents[1]


def test_every_workload_reads_equal_digests_against_itself(capsys,
                                                           monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    try:
        code = solve_timing.main([str(ROOT), str(ROOT), "--workload",
                                  *solve_timing.WORKLOADS, "--repeats", "1"])
    finally:  # the two sides' packages leave with their directory
        for name in [n for n in sys.modules if n.split(".")[0]
                     in ("greencell_parent", "greencell_change")]:
            del sys.modules[name]
    out = capsys.readouterr().out
    assert code == 0
    sections = re.split(r"^== (\S+)\n", out, flags=re.MULTILINE)[1:]
    assert sections[::2] == list(solve_timing.WORKLOADS)
    for workload, text in zip(sections[::2], sections[1::2]):
        assert "change won" in text, workload
        digests = {side: h for h, side in re.findall(
            r"^([0-9a-f]{64})  (parent|change) outputs$", text, re.MULTILINE)}
        assert digests.keys() == {"parent", "change"}, workload
        assert digests["parent"] == digests["change"], workload
