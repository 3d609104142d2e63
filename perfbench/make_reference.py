"""Record the benchmark's input pools and their reference outputs.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference.json``: the pools every workload seed draws its
inputs from (solve targets and table profiles, sweep target grids, Monte
Carlo points and Philox keys) and greencell's output for every pool entry,
with the checks that entry fails.  Run it only at the commit that defines
the benchmark; later commits are checked against the file.  Takes a few
minutes on two cores.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

POOL_SEED = 12116239  # the pools are fixed; workload seeds only pick from them
SOLVE_TARGETS = 8     # per (config, distribution); halves are low/high loads
PROFILES = 3
SWEEP_GRIDS = 4
# the validate-scaling command's default grid
RADII = (250.0, 500.0, 1000.0, 2000.0)
DENSITIES = (1e-6, 1e-5, 5e-5)
KEYS_PER_POINT = 2
TRIALS = 20_000  # one simulator chunk: about 12.5M user draws at the top point


def daily_profile(rng, lambda_max: float, knots: int = 9) -> dict:
    """A piecewise-linear density table from a noisy day of hourly densities.

    Each knot's weight counts the hours whose density lies within one knot
    spacing, plus a floor so no segment has zero weight.
    """
    import numpy as np
    hours = np.arange(24)
    shape = 0.55 - 0.4 * np.cos(2.0 * np.pi * (hours - 4) / 24.0)
    hourly = np.clip(shape * rng.uniform(0.75, 1.25, 24), 0.02, 1.0) * lambda_max
    lams = np.linspace(0.0, lambda_max, knots)
    spacing = lams[1]
    weights = [0.25 + float(np.sum(np.abs(hourly - lam) < spacing))
               for lam in lams]
    return {"lams": [float(x) for x in lams], "weights": weights}


def build_pools(root: Path) -> dict:
    import numpy as np
    from greencell import optimal, traffic
    from workloads import CONFIGS, load_config

    rng = np.random.default_rng(POOL_SEED)
    profiles = [daily_profile(rng, 1e-4) for _ in range(PROFILES)]
    targets, caps = {}, {}
    for cfg in CONFIGS:
        p, lambda_max = load_config(root / cfg)
        dists = {"tri": traffic.triangular(lambda_max)}
        for k, prof in enumerate(profiles):
            dists[f"table{k}"] = traffic.from_table(prof["lams"],
                                                    prof["weights"])
        for name, dist in dists.items():
            cap = optimal.max_achievable_throughput(dist, p)
            caps[f"{cfg}|{name}"] = cap
            frac = 0.05 + 0.9 * (np.arange(SOLVE_TARGETS)
                                 + rng.uniform(0.15, 0.85, SOLVE_TARGETS)) \
                / SOLVE_TARGETS
            targets[f"{cfg}|{name}"] = [round(float(cap * f), 4) for f in frac]
    cap_120w = caps[f"{CONFIGS[0]}|tri"]
    grids = []
    # grids of similar cost: two close feasible targets and one above the cap
    for _ in range(SWEEP_GRIDS):
        base = rng.uniform(0.45, 0.55) * cap_120w
        grids.append([round(base, 3), round(base + rng.uniform(3.0, 5.0), 3),
                      round(cap_120w * rng.uniform(1.05, 1.10), 3)])
    points = [[r, d] for r in RADII for d in DENSITIES]
    keys = [[1000 + KEYS_PER_POINT * i + k for k in range(KEYS_PER_POINT)]
            for i in range(len(points))]
    return {
        "solve": {"profiles": profiles, "caps": caps, "targets": targets,
                  "entries": {}},
        "sweep": {"grids": grids, "entries": {}},
        "validate": {"points": points, "keys": keys, "trials": TRIALS,
                     "entries": {}},
    }


def main() -> int:
    run.bootstrap()
    import workloads

    ref = build_pools(run.ROOT)
    run.OUT_DIR.mkdir(exist_ok=True)
    for name in run.WORKLOADS:
        wl = workloads.make(name, run.ROOT, ref, run.OUT_DIR)
        entries = ref[name]["entries"]
        for op in wl.pool_ops():
            out = wl.run(op)
            entries[op.key] = wl.record(out)
            fails = wl.check(op, out)
            entries[op.key]["known_failures"] = fails
            print(name, op.key, fails or "ok", flush=True)
    ref["src_loc"] = run.src_loc()
    (run.BENCH / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
