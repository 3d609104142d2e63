"""Interleaved timing of two checkouts on the sweeps lockstep searches serve.

    python3 tests/lockstep_timing.py PARENT CHANGE [--pairs 10] [--repeats 20]

PARENT and CHANGE are checkout roots, each with its own ``src/`` and
``configs/``.  For each workload, each pair runs one fresh process per
checkout, in alternating order; a process imports that checkout's
greencell, runs the workload once to warm up, then ``--repeats`` times,
and reports its median wall time.  The workloads are in-process CLI calls:

- ``sweep3``: the benchmark's sweep, ``greencell sweep`` with the default
  schemes at 55.063, 58.705 and 112.954 users (the last above the cap) on
  ``configs/baseline.json``;
- ``optimal20``: ``greencell sweep --schemes optimal`` at 20 targets, 5 to
  100 users, on the same config.

It prints each pair's medians and their ratio parent / change (above 1:
the change is faster), then per workload the median ratio and the number
of pairs the change won.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = {
    "sweep3": ["--u-avg", "55.063,58.705,112.954"],
    "optimal20": ["--u-avg", ",".join(repr(5.0 * k) for k in range(1, 21)),
                  "--schemes", "optimal"],
}


def child(root: Path, workload: str, repeats: int) -> None:
    """Time ``workload`` in this process on ``root``'s greencell; print the
    median seconds."""
    sys.path.insert(0, str(root / "src"))
    from greencell import cli
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["sweep", *WORKLOADS[workload], "--config",
                str(root / "configs" / "baseline.json"),
                "--out", str(Path(tmp) / "sweep.csv")]
        times = []
        for _ in range(repeats + 1):  # the first run warms up
            start = time.perf_counter()
            if cli.main(argv) != cli.EXIT_OK:
                raise SystemExit(f"sweep failed on {root}")
            times.append(time.perf_counter() - start)
    print(statistics.median(times[1:]))


def timed(root: Path, workload: str, repeats: int) -> float:
    out = subprocess.run([sys.executable, __file__, "--child", str(root),
                          workload, str(repeats)],
                         check=True, capture_output=True, text=True)
    return float(out.stdout)


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        child(Path(sys.argv[2]).resolve(), sys.argv[3], int(sys.argv[4]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for workload in args.workloads:
        ratios = []
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            t = {side: timed(roots[side], workload, args.repeats)
                 for side in order}
            ratios.append(t["parent"] / t["change"])
            print(f"{workload} pair {k + 1}: parent {t['parent'] * 1e3:.2f} ms"
                  f"  change {t['change'] * 1e3:.2f} ms"
                  f"  ratio {ratios[-1]:.3f}", flush=True)
        wins = sum(r > 1.0 for r in ratios)
        print(f"{workload}: median ratio {statistics.median(ratios):.3f}, "
              f"change won {wins}/{len(ratios)} pairs", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
