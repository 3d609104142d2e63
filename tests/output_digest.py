"""One SHA-256 over every output a refactor must keep bit for bit.

Run it from the root of a checkout, whose ``src/`` and ``configs/`` it
reads, so that one copy of the script serves any two checkouts:

    python3 tests/output_digest.py
    cd ../other-checkout && python3 ../greencell/tests/output_digest.py

It hashes the repr of ``(policy.summary(), metrics)``, or of the error
raised, from ``solve`` in both modes and the four schemes on a grid of
params, densities and targets, and the repr of each Problem's two caps.
Then it runs the CLI's ``solve``, ``sweep``, ``schemes`` and
``validate-scaling`` on both configs in CSV and JSON, and hashes each
output file, its manifest and what the command wrote to stdout.  Reprs,
not values, are hashed, so a float that turns into a numpy scalar changes
the digest.  Two checkouts on one host that print the same digest give
the same outputs.  The CLI files are written to a temporary directory.

Below the total line it prints one digest per section: the solver reprs,
the CLI ``solve``/``sweep``/``schemes`` files and the CLI
``validate-scaling`` files.  A change to one section can so show that the
others are bit-identical; the total line reads as it always has.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import greencell  # noqa: E402
from greencell import cli, optimal, suboptimal  # noqa: E402
from greencell.params import SystemParams  # noqa: E402
from greencell.traffic import from_table, triangular  # noqa: E402

SETTINGS = [(20.0, 0.0), (60.0, 30.0), (120.0, 0.0)]  # (Pc, Ps) in W
ALPHAS = [3.0, 4.5]
DISTS = [triangular(1e-4),
         from_table([0.0, 2e-5, 5e-5, 1e-4], [0.3, 1.0, 0.6, 0.1])]
FRACTIONS = [1e-8, 1e-3, 0.05, 0.3, 0.9, 1.0]  # of each family's cap
SOLVERS = [
    (lambda u, q: optimal.solve(u, q), "cap"),
    (lambda u, q: optimal.solve(u, q, mode="hse"), "cap"),
    (suboptimal.frw_ofc, "frw_cap"), (suboptimal.frw_oofc, "frw_cap"),
    (suboptimal.arw_ofc, "cap"), (suboptimal.arw_oofc, "cap")]
CONFIGS = [ROOT / "configs" / "baseline.json",
           ROOT / "configs" / "low_static.cfg"]
CLI_FRACTIONS = [0.05, 0.5, 0.95]  # of the cap, for solve and sweep


def solver_reprs():
    for static, sleep in SETTINGS:
        for alpha in ALPHAS:
            p = SystemParams(static_power=static, sleep_power=sleep,
                             pathloss_exp=alpha)
            for dist in DISTS:
                problem = optimal.Problem(dist, p)
                yield repr((problem.cap, problem.frw_cap))
                for solver, cap in SOLVERS:
                    for fraction in FRACTIONS:
                        try:
                            policy, metrics = solver(
                                fraction * getattr(problem, cap), problem)
                            yield repr((policy.summary(), metrics))
                        except ValueError as exc:
                            yield repr(exc)


def cli_runs(config: Path):
    """The argument lists of each CLI run on ``config``, without format and
    output path."""
    p, dist = cli._build_context(cli._load_config(str(config)))
    problem = optimal.Problem(dist, p)
    targets = [repr(float(f * problem.cap)) for f in CLI_FRACTIONS]
    for target in targets:
        for mode in ("exact", "hse"):
            yield ["solve", "--u-avg", target, "--mode", mode]
    yield ["sweep", "--u-avg",
           ",".join([*targets, repr(float(1.1 * problem.cap))])]
    yield ["schemes", "--u-avg", repr(float(0.3 * problem.frw_cap))]
    yield ["validate-scaling", "--trials", "2000"]


def cli_files(out_dir: Path):
    for config in CONFIGS:
        for i, argv in enumerate(cli_runs(config)):
            for fmt in ("csv", "json"):
                out = out_dir / f"{config.stem}-{i}-{argv[0]}.{fmt}"
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main([*argv, "--config", str(config),
                                     "--format", fmt, "--out", str(out)])
                yield out.name, repr((code, stdout.getvalue())).encode()
                for path in (out, Path(str(out) + ".manifest.json")):
                    yield path.name, (path.read_bytes() if path.exists()
                                      else b"missing")


def main() -> int:
    if Path(greencell.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"imported {greencell.__file__}, not {ROOT}/src: "
                         "run from the root of a checkout")
    digest = hashlib.sha256()
    sections = {name: hashlib.sha256() for name in
                ("solver reprs", "cli solve/sweep/schemes",
                 "cli validate-scaling")}
    counts = dict.fromkeys(sections, 0)

    def add(section: str, data: bytes) -> None:
        digest.update(data)
        sections[section].update(data)
        counts[section] += 1

    for text in solver_reprs():
        add("solver reprs", text.encode() + b"\n")
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in cli_files(Path(tmp)):
            section = ("cli validate-scaling" if "-validate-scaling." in name
                       else "cli solve/sweep/schemes")
            add(section, name.encode() + b"\0" + data)
    reprs = counts["solver reprs"]
    files = counts["cli solve/sweep/schemes"] + counts["cli validate-scaling"]
    print(f"{digest.hexdigest()}  {reprs} reprs, {files} CLI outputs")
    for name, section in sections.items():
        print(f"{section.hexdigest()}  {name} ({counts[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
