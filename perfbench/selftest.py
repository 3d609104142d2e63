"""Self-tests of the benchmark itself (not part of greencell's test suite).

    python3 perfbench/selftest.py [--workload solve|sweep|validate ...]

Checks that:
- BENCHMARK.json names exactly the metrics and units run.py reports;
- the tracer rebinds every lookup site and restores each on uninstall;
- two traced runs with the same seed give identical deterministic counters
  (every ``.calls``, ``traffic.pdf_evals``, ``optimal.dual_evals`` and
  ``mcsim.user_draws``), each traced run's outputs are bit-identical to the
  untraced run of the same ops, and every span nests in its parent.

Each traced run is a fresh ``run.py --trace 1`` process.  The default
workloads take about a minute on two cores; ``sweep`` adds about three.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS, (e2e, run.END_TO_END_UNITS)
    assert layers == run.PER_LAYER_UNITS, set(layers) ^ set(run.PER_LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def check_rebinding() -> None:
    from greencell import cli, optimal, params, scaling, suboptimal
    from tracing import Tracer
    originals = (suboptimal.max_range_x, optimal.expect,
                 suboptimal.conditional_expect, scaling.derive_constants,
                 optimal._avg_throughput, cli._SCHEME_FUNCS["ARwOFC"])
    tracer = Tracer("greencell")
    with tracer:
        assert suboptimal.max_range_x.__wrapped__ is originals[0]
        assert optimal.max_range_x is suboptimal.max_range_x
        assert optimal.expect.__wrapped__ is originals[1]
        assert suboptimal.conditional_expect.__wrapped__ is originals[2]
        assert scaling.derive_constants is optimal.derive_constants \
            is params.derive_constants
        assert optimal._avg_throughput.__wrapped__ is originals[4]
        assert cli._SCHEME_FUNCS["ARwOFC"] is suboptimal.arw_ofc
        params.derive_constants(params.SystemParams())
    assert (suboptimal.max_range_x, optimal.expect,
            suboptimal.conditional_expect, scaling.derive_constants,
            optimal._avg_throughput, cli._SCHEME_FUNCS["ARwOFC"]) == originals
    assert tracer.layer_stats()["params.derive_constants"]["calls"] == 1


def traced_record(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    path = run.OUT_DIR / f"result-{workload}-seed{seed}-trace1.json"
    return json.loads(path.read_text())


def check_traced_runs(workload: str, seed: int) -> None:
    import numpy as np
    first = traced_record(workload, seed)
    with np.load(run.OUT_DIR / f"spans-{workload}.npz") as npz:
        spans = {k: npz[k] for k in ("parent", "start", "end")}
    second = traced_record(workload, seed)
    assert first["counters"] == second["counters"], workload
    for rec in (first, second):
        assert rec["checks"]["transparent"], workload
        assert rec["correct"], rec["checks"]
    # every child span nests inside its parent, so no self time is negative
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    child = parent >= 0
    assert np.all(start[child] >= start[parent[child]])
    assert np.all(end[child] <= end[parent[child]])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", nargs="*", default=["validate", "solve"],
                        choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    run.bootstrap()
    checks = [("benchmark_json", check_benchmark_json),
              ("rebinding", check_rebinding)]
    checks += [(f"traced_runs[{w}]", lambda w=w: check_traced_runs(w, args.seed))
               for w in args.workload]
    failed = 0
    for name, fn in checks:
        try:
            fn()
            print(f"PASS {name}", flush=True)
        except (AssertionError, subprocess.CalledProcessError) as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
