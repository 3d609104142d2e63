"""Interleaved timing of two checkouts in one process.

    python3 tests/solve_timing.py PARENT CHANGE [--workload W...] [--repeats N]

PARENT and CHANGE are checkout roots.  Each one's ``src/greencell`` is
copied into a temporary directory as ``greencell_parent`` or
``greencell_change``, which its relative imports allow, so one process
imports both.  Each side runs on its own ``configs/``, with the inputs of
PARENT's ``perfbench/``.  The workloads W (``solve`` by default):

- ``solve``: the benchmark's round, ``SOLVE_ROUND`` of ``workloads.py`` on
  the targets and profiles of ``reference.json``, a ``solve`` call each;
- ``sweep3``: the benchmark's sweep through the side's ``cli.main``, at
  55.063, 58.705 and 112.954 users on ``configs/baseline.json``;
- ``optimal20``: ``sweep --schemes optimal`` at 20 targets, 5 to 100 users;
- ``validate``: ``mcsim.simulate_total_power`` at the 12 points of the
  benchmark's validate grid, seeded with each point's first key.

Each repeat times every op once on each side, op by op, with garbage
collected between repeats; which side goes first alternates, and a first,
untimed repeat warms both up and hashes their outputs.  One process keeps
the host's drift out of the ratios: on a shared 2-core host, six processes
of identical code read 1.50 to 2.61 ms at the median solve op, the two
sides of each within 5%.  Per workload it prints each op's median times
and their ratio parent / change (above 1: the change is faster), the
median of the per-op ratios, the repeats whose ops took the change less
time in total (N is 150 by default), and per side a SHA-256 of its
outputs' reprs, equal where the change keeps every output bit.
"""

import argparse
import ast
import gc
import hashlib
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
SWEEPS = {
    "sweep3": ["--u-avg", "55.063,58.705,112.954"],
    "optimal20": ["--u-avg", ",".join(repr(5.0 * k) for k in range(1, 21)),
                  "--schemes", "optimal"],
}
WORKLOADS = ("solve", *SWEEPS, "validate")


def solve_round(root: Path) -> tuple:
    """``SOLVE_ROUND`` of ``root``'s ``perfbench/workloads.py``, read as a
    literal, so that no greencell is imported by name."""
    tree = ast.parse((root / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "SOLVE_ROUND" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no SOLVE_ROUND in {root}/perfbench/workloads.py")


def guarded(call, *args, **kwargs):
    """An op: ``call(*args, **kwargs)``, or the package error it raised;
    any other error, such as a renamed function's, stops the tool."""
    def op():
        try:
            return call(*args, **kwargs)
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            return exc
    return op


def side_ops(workload: str, side: str, roots: dict, ref: dict,
             tmp: str) -> list:
    """One side's ops of ``workload``: (name, zero-argument call) each."""
    pkg, cli, mcsim = (importlib.import_module(f"greencell_{side}{sub}")
                       for sub in ("", ".cli", ".mcsim"))
    baseline = str(roots[side] / "configs" / "baseline.json")
    if workload in SWEEPS:
        out = Path(tmp) / f"{side}.csv"
        argv = ["sweep", *SWEEPS[workload], "--config", baseline,
                "--out", str(out)]
        return [(workload, guarded(lambda: (cli.main(argv), out.read_text())))]
    if workload == "validate":
        p, _ = cli._build_context(cli._load_config(baseline))
        val = ref["validate"]
        return [(f"{radius:g} m|{density:g}",
                 guarded(lambda r=radius, lam=density, key=keys[0]:
                         mcsim.simulate_total_power(lam, r, p, val["trials"],
                                                    mcsim.make_rng(key))))
                for (radius, density), keys in zip(val["points"], val["keys"])]
    ops = []
    for stratum, i, mode in solve_round(roots["parent"]):
        cfg, dist_name = stratum.split("|")
        p, dist = cli._build_context(cli._load_config(str(roots[side] / cfg)))
        if dist_name != "tri":
            prof = ref["solve"]["profiles"][int(dist_name[len("table"):])]
            dist = pkg.from_table(prof["lams"], prof["weights"])
        u = ref["solve"]["targets"][stratum][i]
        ops.append((f"{stratum}|{i}|{mode}",
                    guarded(pkg.solve, u, dist, p, mode=mode)))
    return ops


def output_repr(out) -> str:
    if isinstance(out, tuple) and hasattr(out[0], "summary"):  # a solve
        out = (out[0].summary(), out[1])
    return f"{type(out).__name__}: {out}" if isinstance(out, Exception) \
        else repr(out)


def time_workload(ops: dict, repeats: int) -> None:
    """Time ``ops`` (side -> op list) and print the workload's summary."""
    times = {side: [[] for _ in ops[side]] for side in SIDES}
    digests = {side: hashlib.sha256() for side in SIDES}
    gc.disable()
    for r in range(repeats + 1):  # repeat 0 warms up
        gc.collect()
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        for k in range(len(ops["parent"])):
            for side in order:
                start = time.perf_counter()
                out = ops[side][k][1]()
                elapsed = time.perf_counter() - start
                if r == 0:
                    digests[side].update(output_repr(out).encode())
                else:
                    times[side][k].append(elapsed)
    gc.enable()
    ratios = []
    for k, (name, _) in enumerate(ops["parent"]):
        med = {side: statistics.median(times[side][k]) for side in SIDES}
        ratios.append(med["parent"] / med["change"])
        print(f"{name:36s} parent {med['parent'] * 1e3:8.3f} ms  change "
              f"{med['change'] * 1e3:8.3f} ms  ratio {ratios[-1]:.3f}")
    totals = {side: [sum(t) for t in zip(*times[side])] for side in SIDES}
    wins = sum(c < p for p, c in zip(totals["parent"], totals["change"]))
    print(f"median-op ratio {statistics.median(ratios):.3f}, change won "
          f"{wins}/{repeats} repeats")
    for side in SIDES:
        print(f"{digests[side].hexdigest()}  {side} outputs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=["solve"])
    parser.add_argument("--repeats", type=int, default=150)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    ref = json.loads((roots["parent"] / "perfbench" / "reference.json")
                     .read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for side in SIDES:
            shutil.copytree(roots[side] / "src" / "greencell",
                            Path(tmp) / f"greencell_{side}")
        sys.path.insert(0, tmp)
        for workload in args.workload:
            print(f"== {workload}")
            time_workload({side: side_ops(workload, side, roots, ref, tmp)
                           for side in SIDES}, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
