"""The benchmark's three workloads: inputs, the timed op, and output checks.

Every input is drawn from a finite pool recorded in ``reference.json`` (see
``make_reference.py``), so that each op has a reference output from the
commit that defined the benchmark.  ``round`` gives a run's distinct ops:
a fixed set whose cost and checks do not depend on the seed, so that the
spread between runs is the machine's and the failed-op count repeats
exactly.  The seed picks the validate Philox keys, and the runner orders
every repeat of the round by it; greencell receives nothing but the
inputs.

An op is one call into the workload's entry point.  ``run`` returns the raw
output and never raises; ``check`` returns the names of the checks the
output fails (an empty list means the op succeeded).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from greencell import cli, mcsim, metrics, optimal, params, scaling, traffic

CONFIGS = ("configs/baseline.json", "configs/low_static.cfg")

# solve: the throughput window the dual search stops in; reference slack is 2x
CONSTRAINT_REL_TOL = 1e-4
POWER_SLACK = 2.0 * CONSTRAINT_REL_TOL
EVALUATE_REL_TOL = 1e-3  # agreement with metrics.evaluate, as tests/test_metrics.py
# a solve round: (config|distribution, target index, mode).  Each config
# takes all four distributions, with targets spread over its pool from low
# to high load; 2 of the 8 ops use mode="hse".  baseline.json|tri|1 is one of
# the two exact pool inputs that fail the evaluate agreement at the defining
# commit, in the round so that this defect shows too.
SOLVE_ROUND = (
    ("configs/baseline.json|tri", 1, "exact"),
    ("configs/baseline.json|table0", 3, "hse"),
    ("configs/baseline.json|table1", 5, "exact"),
    ("configs/baseline.json|table2", 7, "exact"),
    ("configs/low_static.cfg|tri", 6, "exact"),
    ("configs/low_static.cfg|table0", 4, "exact"),
    ("configs/low_static.cfg|table1", 2, "hse"),
    ("configs/low_static.cfg|table2", 0, "exact"),
)

# sweep: the CLI's default scheme set, and the dominance chains it must obey
LATTICE = (("optimal", "ARwOFC"), ("ARwOFC", "ARwoOFC"),
           ("optimal", "FRwOFC"), ("FRwOFC", "FRwoOFC"))

MC_BAND_SE = 3.0  # as validate-scaling


@dataclass(frozen=True)
class Op:
    key: str       # pool entry; indexes the reference outputs
    args: tuple


def load_config(path: Path):
    """(SystemParams, lambda_max) from a JSON or ``key = value`` config file."""
    text = path.read_text()
    if text.lstrip().startswith("{"):
        mapping = json.loads(text)
    else:
        mapping = {}
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, raw = line.partition("=")
                mapping[key.strip()] = raw.strip()
    lambda_max = float(mapping.pop("lambda_max", 1e-4))
    return params.params_from_mapping(mapping), lambda_max


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    """Hooks a traced run calls around its ops; most workloads need none.

    ``round_s`` is about a round's wall time on the machine the benchmark
    was defined on (see README.md); a run repeats the round
    ``seconds/round_s`` times, so the number of ops depends on ``--seconds``
    alone.
    """

    def attach(self, tracer) -> None:
        pass

    def detach(self) -> None:
        pass


class SolveWorkload(Workload):
    """Independent ``optimal.solve`` calls; 1 op in 4 uses ``mode="hse"``.

    A round is the 8 ops of ``SOLVE_ROUND``.
    """

    round_s = 6.6

    def __init__(self, root: Path, ref: dict):
        self.ref = ref["solve"]
        self.params = {}
        self.dists = {}
        for cfg in CONFIGS:
            p, lambda_max = load_config(root / cfg)
            self.params[cfg] = p
            self.dists[(cfg, "tri")] = traffic.triangular(lambda_max)
            for k, prof in enumerate(self.ref["profiles"]):
                self.dists[(cfg, f"table{k}")] = traffic.from_table(
                    prof["lams"], prof["weights"])
        self._run_dists = self.dists

    def attach(self, tracer) -> None:
        self._run_dists = {k: tracer.counted(d) for k, d in self.dists.items()}

    def detach(self) -> None:
        self._run_dists = self.dists

    def pool_ops(self):
        for stratum, targets in self.ref["targets"].items():
            for i in range(len(targets)):
                for mode in ("exact", "hse"):
                    yield self._op(stratum, i, mode)

    def _op(self, stratum: str, i: int, mode: str) -> Op:
        cfg, dist = stratum.split("|")
        u = self.ref["targets"][stratum][i]
        return Op(f"{stratum}|{i}|{mode}", (cfg, dist, u, mode))

    def round(self, rng: np.random.Generator) -> list:
        return [self._op(*op) for op in SOLVE_ROUND]

    def run(self, op: Op):
        cfg, dist, u, mode = op.args
        try:
            return optimal.solve(u, self._run_dists[(cfg, dist)],
                                 self.params[cfg], mode=mode)
        except optimal.InfeasibleError:
            return "infeasible"
        except Exception as exc:  # any other exception is a failed op
            return f"error: {exc!r}"

    @staticmethod
    def fingerprint(out):
        if isinstance(out, str):
            return out
        policy, m = out
        return (repr(policy.summary()),
                policy.lambdas.tobytes(), policy.radii.tobytes(),
                policy.powers.tobytes(), tuple(m.as_dict().items()))

    def check(self, op: Op, out) -> list:
        cfg, dist, u, _ = op.args
        ref = self.ref["entries"][op.key]
        if isinstance(out, str):
            if out == "infeasible" and not ref["feasible"]:
                return []
            return ["exception" if out.startswith("error") else "feasibility"]
        if not ref["feasible"]:
            return ["feasibility"]
        policy, m = out
        failed = []
        if m.avg_users < u * (1.0 - CONSTRAINT_REL_TOL):
            failed.append("users_floor")
        ev = metrics.evaluate(policy.radius_at, self.dists[(cfg, dist)],
                              self.params[cfg], breakpoints=policy.breakpoints)
        if (_rel(m.avg_power_w, ev.avg_power_w) > EVALUATE_REL_TOL
                or _rel(m.avg_users, ev.avg_users) > EVALUATE_REL_TOL):
            failed.append("evaluate_agreement")
        if m.avg_power_w > ref["avg_power_w"] * (1.0 + POWER_SLACK):
            failed.append("power_above_reference")
        return failed

    @staticmethod
    def record(out) -> dict:
        if out == "infeasible":
            return {"feasible": False}
        if isinstance(out, str):
            raise RuntimeError(out)
        return {"feasible": True, "avg_power_w": out[1].avg_power_w,
                "avg_users": out[1].avg_users}


class SweepWorkload(Workload):
    """In-process ``greencell sweep`` over one config with the default schemes.

    A round is one op: the first pool grid on ``baseline.json``, two closely
    spaced feasible targets and one above its throughput cap.  One sweep
    takes 7-11 s, so a round of one op per config would leave too few
    repeats in a run; ``baseline.json`` is the config with both policy cases
    and the infeasible row.
    """

    round_s = 9.0

    def __init__(self, root: Path, ref: dict, out_dir: Path):
        self.ref = ref["sweep"]
        self.root = root
        self.out = out_dir / "sweep.csv"

    def pool_ops(self):
        for cfg in CONFIGS:
            for g in range(len(self.ref["grids"])):
                yield self._op(cfg, g)

    def _op(self, cfg: str, g: int) -> Op:
        return Op(f"{cfg}|{g}", (cfg, tuple(self.ref["grids"][g])))

    def round(self, rng: np.random.Generator) -> list:
        return [self._op(CONFIGS[0], 0)]

    def run(self, op: Op):
        cfg, grid = op.args
        self.out.unlink(missing_ok=True)
        argv = ["sweep", "--u-avg", ",".join(repr(u) for u in grid),
                "--config", str(self.root / cfg), "--out", str(self.out)]
        try:
            code = cli.main(argv)
        except Exception as exc:  # any exception is a failed op
            return (f"error: {exc!r}", "")
        return (code, self.out.read_text() if self.out.exists() else "")

    @staticmethod
    def fingerprint(out):
        return out

    @staticmethod
    def rows(text: str) -> dict:
        rows = {}
        for row in csv.DictReader(io.StringIO(text)):
            power = float(row["avg_power_w"]) if row["avg_power_w"] else None
            rows[(row["scheme"], float(row["u_avg"]))] = {
                "feasible": row["feasible"] == "True", "avg_power_w": power}
        return rows

    def check(self, op: Op, out) -> list:
        code, text = out
        if code != 0:
            return ["exit_code"]
        rows = self.rows(text)
        ref = {(r["scheme"], r["u_avg"]): r
               for r in self.ref["entries"][op.key]["rows"]}
        if set(rows) != set(ref):
            return ["rows"]
        failed = set()
        for k, row in rows.items():
            if row["feasible"] != ref[k]["feasible"]:
                failed.add("feasibility")
            elif row["feasible"] and row["avg_power_w"] > \
                    ref[k]["avg_power_w"] * (1.0 + POWER_SLACK):
                failed.add("power_above_reference")
        for u in op.args[1]:
            for inner, outer in LATTICE:
                a = rows[(inner, u)]["avg_power_w"]
                b = rows[(outer, u)]["avg_power_w"]
                # an infeasible outer scheme with a feasible inner one breaks
                # the nesting of feasible sets
                if (a is None and b is not None) or (
                        a is not None and b is not None
                        and a > b * (1.0 + POWER_SLACK)):
                    failed.add("dominance_lattice")
        return sorted(failed)

    def record(self, out) -> dict:
        return {"rows": [{"scheme": s, "u_avg": u, **row}
                         for (s, u), row in sorted(self.rows(out[1]).items())]}


class ValidateWorkload(Workload):
    """``mcsim.simulate_total_power`` over the validate-scaling default grid.

    A round is one op per (radius, density) point, each with a Philox key
    the seed picks from that point's recorded pool.
    """

    round_s = 0.9

    def __init__(self, root: Path, ref: dict):
        self.ref = ref["validate"]
        self.params, _ = load_config(root / CONFIGS[0])

    def pool_ops(self):
        for i in range(len(self.ref["points"])):
            for key in self.ref["keys"][i]:
                yield self._op(i, key)

    def _op(self, i: int, key: int) -> Op:
        radius, density = self.ref["points"][i]
        return Op(f"{i}|{key}", (radius, density, key))

    def round(self, rng: np.random.Generator) -> list:
        return [self._op(i, int(rng.choice(keys)))
                for i, keys in enumerate(self.ref["keys"])]

    def run(self, op: Op):
        radius, density, key = op.args
        try:
            return mcsim.simulate_total_power(density, radius, self.params,
                                              self.ref["trials"],
                                              mcsim.make_rng(key))
        except Exception as exc:  # any exception is a failed op
            return f"error: {exc!r}"

    @staticmethod
    def fingerprint(out):
        return out if isinstance(out, str) else (out.mean, out.std_err,
                                                 out.trials)

    def check(self, op: Op, out) -> list:
        if isinstance(out, str):
            return ["exception"]
        radius, density, _ = op.args
        exact = scaling.avg_transmit_power_exact(radius, density, self.params)
        if not abs(out.mean - exact) <= MC_BAND_SE * out.std_err:
            return ["within_3se"]
        return []

    @staticmethod
    def record(out) -> dict:
        return {"mc_mean_w": out.mean, "mc_stderr_w": out.std_err}


def make(name: str, root: Path, ref: dict, out_dir: Path):
    if name == "solve":
        return SolveWorkload(root, ref)
    if name == "sweep":
        return SweepWorkload(root, ref, out_dir)
    return ValidateWorkload(root, ref)
