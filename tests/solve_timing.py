"""Interleaved timing of two checkouts' ``solve`` in one process.

    python3 tests/solve_timing.py PARENT CHANGE [--repeats 150]

PARENT and CHANGE are checkout roots.  Each one's ``src/greencell`` is
copied into a temporary directory under a package name of its own,
``greencell_parent`` and ``greencell_change``, which its relative imports
allow, so one process imports both.  The ops are the benchmark's solve
round: the eight ``SOLVE_ROUND`` entries of PARENT's
``perfbench/workloads.py``, on the targets and table profiles of its
``perfbench/reference.json``, with each side's own params and densities
from ``configs/``.

Each repeat times every op once on each side, op by op; which side goes
first alternates from one repeat to the next, and a first, untimed repeat
warms both up.  Timing both sides in one process, close together in time,
keeps the host's drift out of the ratios, which separate processes do not:
on a shared 2-core host, six processes of identical code read 1.50 to
2.61 ms at the median op, while the two sides of each agreed within 5%.

It prints per op each side's median time and the ratio parent / change
(above 1: the change is faster), the median of the per-op ratios, and one
SHA-256 per side over the reprs of its outputs (policy summary and
metrics, or the error), which agree where the change keeps every output
bit.
"""

from __future__ import annotations

import argparse
import ast
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


def solve_round(root: Path) -> tuple:
    """``SOLVE_ROUND`` of ``root``'s ``perfbench/workloads.py``, read as a
    literal, so that no greencell is imported by name."""
    tree = ast.parse((root / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "SOLVE_ROUND" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no SOLVE_ROUND in {root}/perfbench/workloads.py")


def side_ops(pkg, root: Path, ref: dict, round_: tuple) -> list:
    """One side's ops: (name, zero-argument call) per ``round_`` entry."""
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    ops = []
    for stratum, i, mode in round_:
        cfg, dist_name = stratum.split("|")
        p, dist = cli._build_context(cli._load_config(str(root / cfg)))
        if dist_name != "tri":
            prof = ref["profiles"][int(dist_name[len("table"):])]
            dist = pkg.from_table(prof["lams"], prof["weights"])
        u = ref["targets"][stratum][i]

        def op(u=u, dist=dist, p=p, mode=mode):
            try:
                return pkg.solve(u, dist, p, mode=mode)
            except Exception as exc:  # noqa: BLE001 - the op's output
                return exc
        ops.append((f"{stratum}|{i}|{mode}", op))
    return ops


def output_repr(out) -> str:
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    policy, metrics = out
    return repr((policy.summary(), metrics))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--repeats", type=int, default=150)
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    ref = json.loads((roots["parent"] / "perfbench" / "reference.json")
                     .read_text())["solve"]
    round_ = solve_round(roots["parent"])
    with tempfile.TemporaryDirectory() as tmp:
        for side in SIDES:
            shutil.copytree(roots[side] / "src" / "greencell",
                            Path(tmp) / f"greencell_{side}")
        sys.path.insert(0, tmp)
        ops = {side: side_ops(importlib.import_module(f"greencell_{side}"),
                              roots[side], ref, round_) for side in SIDES}
        names = [name for name, _ in ops["parent"]]
        times = {side: [[] for _ in names] for side in SIDES}
        digests = {side: hashlib.sha256() for side in SIDES}
        for r in range(args.repeats + 1):  # repeat 0 warms up
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            for k in range(len(names)):
                for side in order:
                    call = ops[side][k][1]
                    start = time.perf_counter()
                    out = call()
                    elapsed = time.perf_counter() - start
                    if r == 0:
                        digests[side].update(output_repr(out).encode())
                    else:
                        times[side][k].append(elapsed)
    ratios = []
    for k, name in enumerate(names):
        med = {side: statistics.median(times[side][k]) for side in SIDES}
        ratios.append(med["parent"] / med["change"])
        print(f"{name:36s} parent {med['parent'] * 1e3:7.3f} ms  "
              f"change {med['change'] * 1e3:7.3f} ms  "
              f"ratio {ratios[-1]:.3f}")
    print(f"median-op ratio {statistics.median(ratios):.3f} "
          f"over {args.repeats} repeats")
    for side in SIDES:
        print(f"{digests[side].hexdigest()}  {side} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
