"""Command-line front end: config loading, policy solves, sweeps, CSV/JSON output."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import sys
from functools import lru_cache
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__, mcsim, numerics, optimal, scaling, suboptimal
from .params import (InvalidParameterError, SystemParams, config_float,
                     params_from_mapping)
from .traffic import DensityDistribution, from_csv, triangular

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VALIDATION_FAILED = 3

# each policy's name and its one-target solver, in the sweep's default
# order; the commands run every policy through ``suboptimal.solve_many``
_SCHEME_FUNCS = {
    "optimal": optimal.solve,
    suboptimal.FRW_OFC: suboptimal.frw_ofc,
    suboptimal.FRW_OOFC: suboptimal.frw_oofc,
    suboptimal.ARW_OFC: suboptimal.arw_ofc,
    suboptimal.ARW_OOFC: suboptimal.arw_oofc,
}

_DIST_KEYS = {"lambda_max", "density_csv"}

# the root tolerances that set a solve or scheme output, by manifest key:
# the module and name of each constant, read when a manifest is written
TOLERANCES = {"dual_tol": (optimal, "DUAL_TOL"),
              "dual_grain": (optimal, "DUAL_GRAIN"),
              "threshold_tol": (optimal, "THRESHOLD_TOL"),
              "newton_step_tol": (numerics, "NEWTON_STEP_TOL"),
              "cut_tol": (suboptimal, "_CUT_TOL"),
              "level_tol": (suboptimal, "_LEVEL_TOL")}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value led by a negative number, like "-1,2", is not a flag
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)

    # argparse exits 2 on bad flags by default; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _unique_keys(pairs) -> dict:
    """A dict of ``pairs``; InvalidParameterError naming a key given twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InvalidParameterError(f"{key} given twice in configuration")
        out[key] = value
    return out


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    text = Path(path).read_text()
    if text.lstrip().startswith(("{", "[")):
        doc = json.loads(text, object_pairs_hook=_unique_keys)
        if not isinstance(doc, dict):
            raise InvalidParameterError(
                f"JSON config must be an object, got {type(doc).__name__}")
        return doc
    pairs = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParameterError(f"expected key=value, got: {line!r}")
        key, _, raw = line.partition("=")
        pairs.append((key.strip(), raw.strip()))
    return _unique_keys(pairs)


def _build_context(config: dict):
    dist_cfg = {k: v for k, v in config.items() if k in _DIST_KEYS}
    if len(dist_cfg) > 1:
        raise InvalidParameterError(
            "both lambda_max and density_csv given in configuration")
    params = params_from_mapping(
        {k: v for k, v in config.items() if k not in _DIST_KEYS})
    if "density_csv" in dist_cfg:
        path = dist_cfg["density_csv"]
        if not isinstance(path, str):
            # open() would take an int as a file descriptor
            raise InvalidParameterError(
                f"density_csv must be a path, got {path!r}")
        dist = from_csv(path)
    else:
        dist = triangular(
            config_float("lambda_max", dist_cfg.get("lambda_max", 1e-4)))
    return params, dist


def _emit(args, rows: List[dict], fieldnames: Sequence[str],
          summary: Optional[dict] = None) -> None:
    """Write ``rows``, projected onto ``fieldnames``, as ``args.format`` to
    ``args.out`` or stdout.  JSON carries ``summary``; a CSV cannot, so
    stdout gets it when the CSV goes to a file."""
    if args.format == "json":
        doc = {"rows": [{k: row.get(k) for k in fieldnames} for row in rows]}
        if summary is not None:
            doc["summary"] = summary
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        # csv writes a float as its repr and None as ""
        writer = csv.DictWriter(buf, fieldnames, lineterminator="\n",
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
        return
    Path(args.out).write_text(text)
    if summary is not None and args.format == "csv":
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")


def _tolerances() -> dict:
    """The value of each constant in ``TOLERANCES``, by its manifest key."""
    return {key: getattr(module, name)
            for key, (module, name) in TOLERANCES.items()}


@lru_cache(maxsize=1)
def _source_sha256() -> str:
    """SHA-256 of the package's ``.py`` files, each its name and its bytes,
    in sorted name order: read once a process."""
    package = Path(__file__).parent
    digest = hashlib.sha256()
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        digest.update(name.encode() + b"\0")
        digest.update((package / name).read_bytes())
    return digest.hexdigest()


def _write_manifest(args, params: SystemParams, dist: DensityDistribution,
                    tolerances: dict) -> None:
    """Write ``args.out``'s manifest: everything needed to reproduce the
    output byte for byte on one numpy build and CPU feature set.  Every
    flag but the paths is an option; the config stands in the manifest as
    the params and density it gave, and the code as the hash of its
    source."""
    if args.out is None:
        return
    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "config", "out", "seed")}
    manifest = {"command": args.command, "params": dataclasses.asdict(params),
                "distribution": dist.describe(),
                "seed": getattr(args, "seed", None), "tolerances": tolerances,
                "version": __version__, "source_sha256": _source_sha256(),
                "numpy_version": np.__version__, "options": options}
    Path(args.out + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {raw!r}")
    return value


def _float_list(raw: str) -> List[float]:
    """Comma-separated finite floats, at least one."""
    vals = [_finite_float(v) for v in raw.split(",") if v.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("needs at least one value")
    return vals


def _nonnegative_list(raw: str) -> List[float]:
    vals = _float_list(raw)
    if min(vals) < 0.0:
        raise argparse.ArgumentTypeError(
            f"values must be >= 0, got {min(vals)!r}")
    return vals


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _scheme_list(raw: str) -> List[str]:
    """Comma-separated policy names in any case, at least one."""
    by_lower = {name.lower(): name for name in _SCHEME_FUNCS}
    tokens = [t.strip().lower() for t in raw.split(",") if t.strip()]
    for token in tokens:
        if token not in by_lower:
            raise argparse.ArgumentTypeError(
                f"unknown scheme {token!r}; choose from "
                + ", ".join(_SCHEME_FUNCS))
    if not tokens:
        raise argparse.ArgumentTypeError("needs at least one value")
    return [by_lower[t] for t in tokens]


# a Monte Carlo mean within this many standard errors of the exact
# expectation passes validate-scaling
_BAND_STDERR = 3.0


def cmd_validate_scaling(args) -> int:
    params, dist = _build_context(_load_config(args.config))
    rng = mcsim.make_rng(args.seed)
    rows = []
    for radius in args.radii:
        for density in args.densities:
            analytic = scaling.avg_transmit_power(radius, density, params)
            exact = scaling.avg_transmit_power_exact(radius, density, params)
            est = mcsim.simulate_total_power(density, radius, params,
                                             args.trials, rng)
            ok = abs(est.mean - exact) <= _BAND_STDERR * est.std_err
            rows.append({"radius_m": radius, "density": density,
                         "analytic_w": analytic, "exact_w": exact,
                         "mc_mean_w": est.mean, "mc_stderr_w": est.std_err,
                         "within_3se": ok})
    fields = ["radius_m", "density", "analytic_w", "exact_w", "mc_mean_w",
              "mc_stderr_w", "within_3se"]
    _emit(args, rows, fields)
    _write_manifest(args, params, dist, {"band_stderr": _BAND_STDERR})
    return EXIT_OK if all(row["within_3se"] for row in rows) \
        else EXIT_VALIDATION_FAILED


def cmd_solve(args) -> int:
    params, dist = _build_context(_load_config(args.config))
    try:
        policy, metrics = optimal.solve(args.u_avg, dist, params,
                                        mode=args.mode)
    except optimal.InfeasibleError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    rows = [{"density": lam, "radius_m": r, "bs_power_w": pw,
             "users": math.pi * lam * r * r}
            for lam, r, pw in policy.rows()]
    summary = {**policy.summary(), **metrics.as_dict(),
               "u_avg_requested": args.u_avg}
    _emit(args, rows, ["density", "radius_m", "bs_power_w", "users"],
          summary)
    _write_manifest(args, params, dist, _tolerances())
    return EXIT_OK


def _policy_rows(names: List[str], u_avgs: List[float],
                 problem: optimal.Problem) -> List[dict]:
    """Each policy's row at each target, every search run in one lockstep
    (``suboptimal.solve_many``): a row holds the policy's summary and its
    metrics; an infeasible row has neither.  ``_emit`` projects each onto
    the command's fields."""
    rows = []
    for name, outs in zip(names, suboptimal.solve_many(names, u_avgs,
                                                       problem)):
        for u_avg, out in zip(u_avgs, outs):
            row = {"scheme": name, "u_avg": u_avg,
                   "feasible": not isinstance(out, optimal.InfeasibleError)}
            if row["feasible"]:
                policy, metrics = out
                row.update(policy.summary(), **metrics.as_dict())
            rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    params, dist = _build_context(_load_config(args.config))
    problem = optimal.Problem(dist, params)
    rows = _policy_rows(args.schemes, args.u_avg, problem)
    rows.sort(key=lambda r: (r["scheme"], r["u_avg"]))
    _emit(args, rows,
          ["scheme", "u_avg", "feasible", "avg_power_w", "on_probability"])
    _write_manifest(args, params, dist, _tolerances())
    return EXIT_OK


def cmd_schemes(args) -> int:
    params, dist = _build_context(_load_config(args.config))
    problem = optimal.Problem(dist, params)
    rows = _policy_rows(sorted(n for n in _SCHEME_FUNCS if n != "optimal"),
                        [args.u_avg], problem)
    _emit(args, rows, ["scheme", "u_avg", "feasible", "cutoff",
                       "fixed_radius_m", "fixed_power_w", "avg_power_w",
                       "avg_users", "on_probability", "peak_bs_power_w"])
    _write_manifest(args, params, dist, _tolerances())
    return EXIT_OK


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="greencell",
                     description="Energy-optimal cell range and power "
                                 "adaptation under random user traffic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None,
                        help="JSON or key=value parameter file")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    vs = sub.add_parser("validate-scaling",
                        help="compare analytic transmit power with Monte Carlo")
    common(vs)
    vs.add_argument("--radii", type=_nonnegative_list,
                    default="250,500,1000,2000",
                    help="comma-separated coverage radii [m]")
    vs.add_argument("--densities", type=_nonnegative_list,
                    default="1e-6,1e-5,5e-5",
                    help="comma-separated user densities [1/m^2]")
    vs.add_argument("--trials", type=_positive_int, default=100_000)
    vs.add_argument("--seed", type=int, default=1234)

    sv = sub.add_parser("solve", help="solve for the optimal adaptation policy")
    common(sv)
    sv.add_argument("--u-avg", type=_finite_float, required=True,
                    help="required long-term average supported users")
    sv.add_argument("--mode", choices=("exact", "hse"), default="exact")

    sw = sub.add_parser("sweep",
                        help="average power versus throughput for several policies")
    common(sw)
    sw.add_argument("--u-avg", type=_float_list, required=True,
                    help="comma-separated throughput targets")
    sw.add_argument("--schemes", type=_scheme_list,
                    default=",".join(_SCHEME_FUNCS))

    sc = sub.add_parser("schemes",
                        help="run all four reduced-complexity schemes at one target")
    common(sc)
    sc.add_argument("--u-avg", type=_finite_float, required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # looked up per call, so that a rebound cmd_* global takes effect
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (OSError, ValueError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
