"""Command-line front end: config loading, policy solves, sweeps, CSV/JSON output."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from . import __version__, mcsim, optimal, scaling, suboptimal
from .params import InvalidParameterError, SystemParams, params_from_mapping
from .traffic import DensityDistribution, from_csv, triangular

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VALIDATION_FAILED = 3

_SCHEME_FUNCS = {
    suboptimal.FRW_OFC: suboptimal.frw_ofc,
    suboptimal.FRW_OOFC: suboptimal.frw_oofc,
    suboptimal.ARW_OFC: suboptimal.arw_ofc,
    suboptimal.ARW_OOFC: suboptimal.arw_oofc,
}
_DEFAULT_SCHEMES = ("optimal",) + tuple(_SCHEME_FUNCS)

_DIST_KEYS = {"lambda_max", "density_csv"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one command's output byte for byte."""

    command: str
    params: dict
    distribution: dict
    seed: Optional[int]
    tolerances: dict
    version: str
    options: dict = dataclasses.field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    text = Path(path).read_text()
    if text.lstrip().startswith(("{", "[")):
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise InvalidParameterError(
                f"JSON config must be an object, got {type(doc).__name__}")
        return doc
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParameterError(f"expected key=value, got: {line!r}")
        key, _, raw = line.partition("=")
        out[key.strip()] = raw.strip()
    return out


def _build_context(config: dict):
    dist_cfg = {k: v for k, v in config.items() if k in _DIST_KEYS}
    params = params_from_mapping(
        {k: v for k, v in config.items() if k not in _DIST_KEYS})
    if "density_csv" in dist_cfg:
        dist = from_csv(dist_cfg["density_csv"])
    else:
        dist = triangular(float(dist_cfg.get("lambda_max", 1e-4)))
    return params, dist


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def _write_csv(rows: List[dict], fieldnames: Sequence[str],
               out: Optional[str]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row.get(k)) for k in fieldnames})
    _emit_text(buf.getvalue(), out)


def _emit_text(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit(rows: List[dict], fieldnames: Sequence[str], fmt: str,
          out: Optional[str], summary: Optional[dict] = None) -> None:
    if fmt == "json":
        doc = {"rows": rows}
        if summary is not None:
            doc["summary"] = summary
        _emit_text(json.dumps(doc, indent=2) + "\n", out)
    else:
        _write_csv(rows, fieldnames, out)
        if summary is not None and out is not None:
            sys.stdout.write(json.dumps(summary, indent=2) + "\n")


def _write_manifest(manifest: RunManifest, out: Optional[str]) -> None:
    if out is not None:
        Path(str(out) + ".manifest.json").write_text(manifest.to_json() + "\n")


def _manifest(command: str, params: SystemParams, dist: DensityDistribution,
              seed: Optional[int], tolerances: dict,
              options: Optional[dict] = None) -> RunManifest:
    return RunManifest(command=command, params=dataclasses.asdict(params),
                       distribution=dist.describe(), seed=seed,
                       tolerances=tolerances, version=__version__,
                       options=options or {})


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {raw!r}")
    return value


def _float_list(raw: str, flag: str) -> List[float]:
    vals = [float(v) for v in raw.split(",") if v.strip()]
    if not vals:
        raise _UsageError(f"{flag} needs at least one value")
    if not all(math.isfinite(v) for v in vals):
        raise _UsageError(f"{flag} values must be finite, got {raw!r}")
    return vals


def cmd_validate_scaling(args) -> int:
    params, dist = _build_context(_load_config(args.config))
    radii = _float_list(args.radii, "--radii")
    densities = _float_list(args.densities, "--densities")
    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    rng = mcsim.make_rng(args.seed)
    rows, all_ok = [], True
    for radius in radii:
        for density in densities:
            analytic = scaling.avg_transmit_power(radius, density, params)
            exact = scaling.avg_transmit_power_exact(radius, density, params)
            est = mcsim.simulate_total_power(density, radius, params,
                                             args.trials, rng)
            ok = abs(est.mean - exact) <= 3.0 * est.std_err
            all_ok = all_ok and ok
            rows.append({"radius_m": radius, "density": density,
                         "analytic_w": analytic, "exact_w": exact,
                         "mc_mean_w": est.mean, "mc_stderr_w": est.std_err,
                         "within_3se": ok})
    fields = ["radius_m", "density", "analytic_w", "exact_w", "mc_mean_w",
              "mc_stderr_w", "within_3se"]
    _emit(rows, fields, args.format, args.out)
    _write_manifest(_manifest("validate-scaling", params, dist, args.seed,
                              {"band_stderr": 3.0}), args.out)
    return EXIT_OK if all_ok else EXIT_VALIDATION_FAILED


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
    summary = policy.summary()
    summary.update(metrics.as_dict())
    summary["u_avg_requested"] = args.u_avg
    fields = ["density", "radius_m", "bs_power_w", "users"]
    _emit(rows, fields, args.format, args.out, summary=summary)
    _write_manifest(_manifest("solve", params, dist, None,
                              {"constraint_rel_tol": 1e-4},
                              {"mode": args.mode}), args.out)
    return EXIT_OK


def _parse_schemes(raw: str) -> List[str]:
    by_lower = {name.lower(): name for name in _DEFAULT_SCHEMES}
    names = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in by_lower:
            raise _UsageError(
                f"unknown scheme {token!r}; choose from "
                + ", ".join(_DEFAULT_SCHEMES))
        names.append(by_lower[token])
    if not names:
        raise _UsageError("--schemes needs at least one value")
    return names


def _scheme_row(name: str, u_avg: float, dist, params) -> dict:
    row = {"scheme": name, "u_avg": u_avg, "feasible": True,
           "avg_power_w": None, "on_probability": None}
    try:
        if name == "optimal":
            _, metrics = optimal.solve(u_avg, dist, params)
        else:
            metrics = _SCHEME_FUNCS[name](u_avg, dist, params).metrics
        row["avg_power_w"] = metrics.avg_power_w
        row["on_probability"] = metrics.on_probability
    except optimal.InfeasibleError:
        row["feasible"] = False
    return row


def cmd_sweep(args) -> int:
    params, dist = _build_context(_load_config(args.config))
    u_avgs = _float_list(args.u_avg, "--u-avg")
    schemes = _parse_schemes(args.schemes)
    rows = [_scheme_row(name, u, dist, params)
            for name in schemes for u in u_avgs]
    rows.sort(key=lambda r: (r["scheme"], r["u_avg"]))
    fields = ["scheme", "u_avg", "feasible", "avg_power_w", "on_probability"]
    _emit(rows, fields, args.format, args.out)
    _write_manifest(_manifest("sweep", params, dist, None,
                              {"constraint_rel_tol": 1e-4}), args.out)
    return EXIT_OK


def cmd_schemes(args) -> int:
    params, dist = _build_context(_load_config(args.config))
    rows = []
    for name, func in _SCHEME_FUNCS.items():
        row = {"scheme": name, "u_avg": args.u_avg, "feasible": True,
               "cutoff": None, "fixed_radius_m": None, "fixed_power_w": None,
               "avg_power_w": None, "avg_users": None, "on_probability": None,
               "peak_bs_power_w": None}
        try:
            res = func(args.u_avg, dist, params)
            row.update({"cutoff": res.cutoff,
                        "fixed_radius_m": res.fixed_radius,
                        "fixed_power_w": res.fixed_power})
            row.update(res.metrics.as_dict())
        except optimal.InfeasibleError:
            row["feasible"] = False
        rows.append(row)
    rows.sort(key=lambda r: r["scheme"])
    fields = ["scheme", "u_avg", "feasible", "cutoff", "fixed_radius_m",
              "fixed_power_w", "avg_power_w", "avg_users", "on_probability",
              "peak_bs_power_w"]
    _emit(rows, fields, args.format, args.out)
    _write_manifest(_manifest("schemes", params, dist, None,
                              {"constraint_rel_tol": 1e-4}), args.out)
    return EXIT_OK


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
    vs.add_argument("--radii", default="250,500,1000,2000",
                    help="comma-separated coverage radii [m]")
    vs.add_argument("--densities", default="1e-6,1e-5,5e-5",
                    help="comma-separated user densities [1/m^2]")
    vs.add_argument("--trials", type=int, default=100_000)
    vs.add_argument("--seed", type=int, default=1234)
    vs.set_defaults(func=cmd_validate_scaling)

    sv = sub.add_parser("solve", help="solve for the optimal adaptation policy")
    common(sv)
    sv.add_argument("--u-avg", type=_finite_float, required=True,
                    help="required long-term average supported users")
    sv.add_argument("--mode", choices=("exact", "hse"), default="exact")
    sv.set_defaults(func=cmd_solve)

    sw = sub.add_parser("sweep",
                        help="average power versus throughput for several policies")
    common(sw)
    sw.add_argument("--u-avg", required=True,
                    help="comma-separated throughput targets")
    sw.add_argument("--schemes", default=",".join(_DEFAULT_SCHEMES))
    sw.set_defaults(func=cmd_sweep)

    sc = sub.add_parser("schemes",
                        help="run all four reduced-complexity schemes at one target")
    common(sc)
    sc.add_argument("--u-avg", type=_finite_float, required=True)
    sc.set_defaults(func=cmd_schemes)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (InvalidParameterError, FileNotFoundError, json.JSONDecodeError,
            ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
