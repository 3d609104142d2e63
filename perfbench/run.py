"""greencell benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py [--workload solve|sweep|validate|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a greencell checkout; the package is imported from its
``src/``.  One process, one caller, closed loop; numpy/BLAS/OpenMP thread
pools are pinned to one thread.  ``--trace 0`` repeats the workload's round
of distinct ops a number of times set by ``--seconds``, times a fixed
pure-Python kernel between ops, and reports the end-to-end metrics with
every time scaled to the kernel's reference speed; ``--trace 1`` runs one
round traced and the same round untraced and reports per-layer metrics per
op.  Every output is checked.  Human-readable lines go
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a result
record go to ``.perfbench_out/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".perfbench_out"
PACKAGE = ROOT / "src" / "greencell" / "__init__.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("solve", "sweep", "validate")
SETUP_PROBES = 3
# speed probe: seconds of kernel per second of op, and the kernel's mean
# time on the machine the benchmark was defined on (README.md)
PROBE_SHARE = 0.1
KERNEL_REF_S = 1.1e-3

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s",
                    "peak_rss_mb": "MB"}

# per-layer metrics, per op: (metric, traced function, statistic)
LAYER_STATS = (
    ("optimal.x1_star.calls", "optimal.x1_star", "calls"),
    ("optimal.x1_star.self_s", "optimal.x1_star", "self_s"),
    ("optimal.x2_star.calls", "optimal.x2_star", "calls"),
    ("optimal.x2_star.self_s", "optimal.x2_star", "self_s"),
    ("optimal.subproblem.calls", "optimal.subproblem", "calls"),
    ("optimal.subproblem.self_s", "optimal.subproblem", "self_s"),
    ("scaling.max_range_x.calls", "scaling.max_range_x", "calls"),
    ("scaling.max_range_x.self_s", "scaling.max_range_x", "self_s"),
    ("optimal.critical_densities.calls", "optimal.critical_densities", "calls"),
    ("optimal.critical_densities.self_s", "optimal.critical_densities", "self_s"),
    ("optimal.dual_evals", "optimal._avg_throughput", "calls"),
    ("optimal.dual_evals.self_s", "optimal._avg_throughput", "self_s"),
    ("optimal.policy_for_mu.self_s", "optimal.policy_for_mu", "self_s"),
    ("numerics.lambert_w0.calls", "numerics.lambert_w0", "calls"),
    ("params.derive_constants.calls", "params.derive_constants", "calls"),
    ("params.derive_constants.self_s", "params.derive_constants", "self_s"),
    ("numerics.expect.calls", "numerics.expect", "calls"),
    ("numerics.expect.self_s", "numerics.expect", "self_s"),
    ("numerics.conditional_expect.calls", "numerics.conditional_expect", "calls"),
    ("numerics.conditional_expect.self_s", "numerics.conditional_expect", "self_s"),
    ("scaling.budget_x_vec.calls", "scaling.budget_x_vec", "calls"),
    ("scaling.budget_x_vec.self_s", "scaling.budget_x_vec", "self_s"),
    ("metrics.evaluate.calls", "metrics.evaluate", "calls"),
    ("metrics.evaluate.self_s", "metrics.evaluate", "self_s"),
    ("suboptimal.frw_ofc.self_s", "suboptimal.frw_ofc", "self_s"),
    ("suboptimal.frw_oofc.self_s", "suboptimal.frw_oofc", "self_s"),
    ("suboptimal.arw_ofc.self_s", "suboptimal.arw_ofc", "self_s"),
    ("suboptimal.arw_oofc.self_s", "suboptimal.arw_oofc", "self_s"),
    ("scaling.stpc_power.calls", "scaling.stpc_power", "calls"),
    ("scaling.stpc_power.self_s", "scaling.stpc_power", "self_s"),
    ("mcsim.simulate_total_power.self_s", "mcsim.simulate_total_power", "self_s"),
)
STAT_UNITS = {"calls": "count/op", "self_s": "s/op"}
PER_LAYER_UNITS = {
    **{metric: STAT_UNITS[stat] for metric, _, stat in LAYER_STATS},
    "cli.main.self_s": "s/op",
    "traffic.pdf_evals": "count/op",
    "mcsim.user_draws": "count/op",
    "mcsim.user_draws_per_s": "1/s",
    "trace.overhead": "ratio",
}


def bootstrap() -> None:
    """Pin thread pools and make ``import greencell`` load this checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not PACKAGE.is_file():
        raise SystemExit(f"perfbench: {PACKAGE} not found; run the benchmark "
                         "from the root of a greencell checkout")
    sys.path.insert(0, str(PACKAGE.parent.parent))
    sys.path.insert(0, str(BENCH))
    import greencell
    if Path(greencell.__file__).resolve() != PACKAGE:
        raise SystemExit(f"perfbench: imported {greencell.__file__}, "
                         f"expected {PACKAGE}")


def src_loc() -> int:
    """Net lines of the package source, recorded with every result."""
    return sum(len(p.read_text().splitlines())
               for p in sorted(PACKAGE.parent.rglob("*.py")))


def load_workload(name: str):
    import workloads
    OUT_DIR.mkdir(exist_ok=True)
    ref = json.loads((BENCH / "reference.json").read_text())
    return workloads.make(name, ROOT, ref, OUT_DIR), ref[name]["entries"]


def measure_setup(args) -> list:
    """Seconds from spawning a fresh process to its first op being ready."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: setup probe failed (exit {code})")
        samples.append(t1 - t0)
    return samples


def check_ops(wl, entries, records) -> dict:
    """Run every check once per distinct (input, output); count failed ops.

    An op fails when its output fails any check.  A failure the reference
    also recorded for that input is a known defect of the program at the
    commit that defined the benchmark; any other one is a regression.
    """
    verdicts, failed, regressions = {}, 0, {}
    for op, out in records:
        key = (op.key, wl.fingerprint(out))
        if key not in verdicts:
            verdicts[key] = wl.check(op, out)
        fails = verdicts[key]
        failed += bool(fails)
        new = set(fails) - set(entries[op.key]["known_failures"])
        if new:
            regressions[op.key] = sorted(new)
    known = sorted({f for fails in verdicts.values() for f in fails})
    return {"failed": failed, "failure_kinds": known,
            "regressions": regressions}


def _kernel() -> int:
    s = 0
    for i in range(12_000):
        s += i * i % 7
    return s


class SpeedProbe:
    """Tracks how fast the shared host runs this process during a run.

    Other tenants slow the machine by up to 1.8x for seconds to minutes, and
    every op of a run shares the slowdown.  After each op the probe times a
    fixed pure-Python kernel until kernel time reaches ``PROBE_SHARE`` of op
    time, so its samples spread over the run like the ops do.  ``scale``
    converts the run's times to seconds at the kernel's reference speed.
    """

    def __init__(self):
        self.samples = []
        self.owed = 0.0

    def after_op(self, op_s: float) -> None:
        self.owed += PROBE_SHARE * op_s
        while self.owed > 0.0:
            t0 = time.perf_counter()
            _kernel()
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            self.owed -= dt

    def scale(self) -> float:
        return KERNEL_REF_S / statistics.fmean(self.samples)


def repeats(wl, seconds: float) -> int:
    """Rounds in a run: set by ``--seconds`` alone, never by machine speed,
    so ``attempted`` and ``failed`` repeat exactly between runs."""
    return max(1, round(seconds / wl.round_s))


def timed_run(wl, rng, seconds: float):
    """The round's ops, each repeat in a seeded order; op wall times."""
    ops = wl.round(rng)
    probe = SpeedProbe()
    records, times = [], []
    start = time.perf_counter()
    for _ in range(repeats(wl, seconds)):
        for j in rng.permutation(len(ops)):
            t0 = time.perf_counter()
            out = wl.run(ops[j])
            times.append(time.perf_counter() - t0)
            records.append((ops[j], out))
            probe.after_op(times[-1])
    return records, times, time.perf_counter() - start, probe


def end_to_end(args) -> dict:
    import numpy as np
    setup = measure_setup(args)
    wl, entries = load_workload(args.workload)
    records, times, elapsed, probe = timed_run(
        wl, np.random.default_rng(args.seed), args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = check_ops(wl, entries, records)
    scale = probe.scale()
    # the median of the distinct ops' mean times: a plain median over all
    # times falls between two ops' repeats and takes the tail of each
    per_op = {}
    for (op, _), t in zip(records, times):
        per_op.setdefault(op.key, []).append(t)
    op_p50 = statistics.median(statistics.fmean(t) for t in per_op.values())
    metrics = {"setup_s": scale * statistics.median(setup),
               "ops_per_s": len(times) / (scale * sum(times)),
               "op_p50_s": scale * op_p50,
               "peak_rss_mb": peak_rss_mb}
    notes = {"setup_s": f"median of {len(setup)} fresh processes; wall "
                        f"clock {statistics.median(setup):.4g} s",
             "ops_per_s": f"{len(times)} ops; wall clock {sum(times):.3f} s "
                          f"of ops, {elapsed:.3f} s with the probe; "
                          f"time scale {scale:.4f} from "
                          f"{len(probe.samples)} probe samples",
             "op_p50_s": f"{len(per_op)} distinct ops x "
                         f"{len(times) // len(per_op)} repeats; wall clock "
                         f"{op_p50:.4g} s, max {max(times):.4g} s"}
    return {"metrics": metrics, "units": END_TO_END_UNITS, "notes": notes,
            "attempted": len(records), "checks": checks}


def traced(args) -> dict:
    import numpy as np
    from tracing import Tracer
    wl, entries = load_workload(args.workload)
    ops = wl.round(np.random.default_rng(args.seed))
    # traced first: any first-call cost lands on the traced side, so the
    # overhead ratio errs low rather than high
    tracer = Tracer("greencell")
    wl.attach(tracer)
    try:
        with tracer:
            t0 = time.perf_counter()
            outs = [tracer.span("bench.op", wl.run, op) for op in ops]
            t_traced = time.perf_counter() - t0
    finally:
        wl.detach()
    t0 = time.perf_counter()
    plain = [wl.run(op) for op in ops]
    t_plain = time.perf_counter() - t0
    tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
    checks = check_ops(wl, entries, list(zip(ops, outs)))
    checks["transparent"] = all(wl.fingerprint(a) == wl.fingerprint(b)
                                for a, b in zip(plain, outs))
    stats = tracer.layer_stats()
    metrics = layer_metrics(stats, tracer.counters, len(ops),
                            t_plain / t_traced)
    return {"metrics": metrics, "units": PER_LAYER_UNITS,
            "notes": {"trace.overhead": f"{t_plain:.3f} s untraced vs "
                                        f"{t_traced:.3f} s traced"},
            "attempted": len(ops), "checks": checks,
            "counters": deterministic_counters(stats, tracer.counters)}


def layer_metrics(stats: dict, counters: dict, n_ops: int,
                  overhead: float) -> dict:
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    out = {metric: stats.get(fn, zero)[stat] / n_ops
           for metric, fn, stat in LAYER_STATS}
    out["cli.main.self_s"] = sum(s["self_s"] for name, s in stats.items()
                                 if name.startswith("cli.")) / n_ops
    draws = counters["mcsim.user_draws"]
    mc_s = stats.get("mcsim.simulate_total_power", zero)["total_s"]
    out["traffic.pdf_evals"] = counters["traffic.pdf_evals"] / n_ops
    out["mcsim.user_draws"] = draws / n_ops
    out["mcsim.user_draws_per_s"] = draws / mc_s if mc_s > 0.0 else 0.0
    out["trace.overhead"] = overhead
    return out


def deterministic_counters(stats: dict, counters: dict) -> dict:
    """Counts that must repeat exactly between traced runs of one seed."""
    counts = {f"{name}.calls": s["calls"] for name, s in stats.items()}
    counts.update(counters)
    return dict(sorted(counts.items()))


def report(args, res: dict) -> dict:
    checks = res["checks"]
    correct = not checks["regressions"] and checks.get("transparent", True)
    loc = src_loc()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"src_loc {loc}")
    for name, value in res["metrics"].items():
        note = res["notes"].get(name, "")
        print(f"  {name:36s} {value:<22.10g} {res['units'][name]:9s} {note}")
    print(f"  {'error_rate':36s} "
          f"{checks['failed'] / res['attempted']:<22.10g} {'ratio':9s} "
          f"{checks['failed']} of {res['attempted']} ops failed "
          f"{checks['failure_kinds'] or ''}")
    print(f"  checks: regressions {checks['regressions'] or 'none'}"
          + (f"; traced outputs identical: {checks['transparent']}"
             if "transparent" in checks else ""))
    result = {"correct": bool(correct), "attempted": res["attempted"],
              "failed": checks["failed"],
              "metrics": {k: {"value": v, "unit": res["units"][k]}
                          for k, v in res["metrics"].items()}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, src_loc=loc, checks=checks,
                  counters=res.get("counters"))
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
               ".json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, end="")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v
                                    for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)  # set-up timing child
    args = parser.parse_args(argv)
    bootstrap()
    if args.workload == "all":
        return run_all(args)
    if args.probe:
        load_workload(args.workload)
        print("ready", flush=True)
        return 0
    res = traced(args) if args.trace else end_to_end(args)
    print(json.dumps(report(args, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
