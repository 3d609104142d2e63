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

A digest can only say that outputs changed.  To see by how much:

    python3 tests/output_digest.py --values parent.json   # in each checkout
    python3 tests/output_digest.py --values change.json
    python3 tests/output_digest.py --compare parent.json change.json

``--values FILE`` also writes, as JSON, every float of the solver reprs
and every numeric cell of the CLI output files and of the JSON the CLI
prints, each under a key naming its output and field.  ``--compare A B``
prints, per field, the largest relative difference between the two files
and where it is, and the keys only one file holds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
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


def solver_outputs():
    """(key, output) of each solver call: the Problem's two caps, then
    ``(policy.summary(), metrics)`` or the error raised."""
    for static, sleep in SETTINGS:
        for alpha in ALPHAS:
            p = SystemParams(static_power=static, sleep_power=sleep,
                             pathloss_exp=alpha)
            for d, dist in enumerate(DISTS):
                problem = optimal.Problem(dist, p)
                setting = f"Pc{static:g}/Ps{sleep:g}/alpha{alpha:g}/dist{d}"
                yield f"{setting}/caps", (problem.cap, problem.frw_cap)
                for s, (solver, cap) in enumerate(SOLVERS):
                    for fraction in FRACTIONS:
                        key = f"{setting}/solver{s}/{fraction:g}"
                        try:
                            policy, metrics = solver(
                                fraction * getattr(problem, cap), problem)
                            yield key, (policy.summary(), metrics)
                        except ValueError as exc:
                            yield key, exc


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
    """(name, bytes hashed, numbers) of what each CLI run wrote to stdout,
    its output file and its manifest; the numbers are (key, float) of
    every numeric cell of the output file, or of stdout if it is JSON."""
    for config in CONFIGS:
        for i, argv in enumerate(cli_runs(config)):
            for fmt in ("csv", "json"):
                out = out_dir / f"{config.stem}-{i}-{argv[0]}.{fmt}"
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main([*argv, "--config", str(config),
                                     "--format", fmt, "--out", str(out)])
                text = stdout.getvalue()
                yield (out.name, repr((code, text)).encode(),
                       cell_floats(f"{out.name}/stdout", text, ".json"))
                data = out.read_bytes() if out.exists() else b"missing"
                yield out.name, data, cell_floats(out.name, data.decode(),
                                                  out.suffix)
                manifest = Path(str(out) + ".manifest.json")
                yield manifest.name, (manifest.read_bytes()
                                      if manifest.exists() else b"missing"), ()


def floats(key: str, value):
    """(key/field, float) for every number in ``value``, a nest of
    dicts, sequences and dataclasses."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        for field, item in value.items():
            yield from floats(f"{key}/{field}", item)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from floats(f"{key}/{i}", item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield key, float(value)


def cell_floats(key: str, text: str, suffix: str) -> list:
    """(key/row/column, float) of each numeric CSV cell, or the numbers of
    a JSON text; none for other text."""
    if suffix == ".csv":
        return [(f"{key}/{i}/{column}", float(cell))
                for i, row in enumerate(csv.DictReader(io.StringIO(text)))
                for column, cell in row.items() if is_number(cell)]
    try:
        return list(floats(key, json.loads(text)))
    except ValueError:
        return []


def is_number(cell) -> bool:
    try:
        float(cell)
    except (TypeError, ValueError):
        return False
    return True


def field_of(key: str) -> str:
    """The key's last part that is not a row or sequence index."""
    return next(part for part in reversed(key.split("/"))
                if not part.isdigit())


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(path).read_text()) for path in (path_a, path_b))
    worst = {}
    for key in a.keys() & b.keys():
        x, y = a[key], b[key]
        if x == y or (math.isnan(x) and math.isnan(y)):
            rel = 0.0
        else:
            rel = abs(x - y) / max(abs(x), abs(y))
            rel = math.inf if math.isnan(rel) else rel
        field = field_of(key)
        if field not in worst or rel > worst[field][0]:
            worst[field] = (rel, key, x, y)
    print(f"{len(a.keys() & b.keys())} values in both files")
    for field, (rel, key, x, y) in sorted(worst.items()):
        where = f"  at {key}: {x!r} vs {y!r}" if rel else ""
        print(f"{field:24s} {rel:.3g}{where}")
    for path, only in ((path_a, a.keys() - b.keys()),
                       (path_b, b.keys() - a.keys())):
        if only:
            print(f"{len(only)} keys only in {path}, e.g. {min(only)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--values", metavar="FILE",
                        help="also write every output float to FILE as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --values files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if Path(greencell.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"imported {greencell.__file__}, not {ROOT}/src: "
                         "run from the root of a checkout")
    digest = hashlib.sha256()
    sections = {name: hashlib.sha256() for name in
                ("solver reprs", "cli solve/sweep/schemes",
                 "cli validate-scaling")}
    counts = dict.fromkeys(sections, 0)
    values = {}

    def add(section: str, data: bytes) -> None:
        digest.update(data)
        sections[section].update(data)
        counts[section] += 1

    for key, output in solver_outputs():
        add("solver reprs", repr(output).encode() + b"\n")
        if not isinstance(output, Exception):
            values.update(floats(key, output))
    with tempfile.TemporaryDirectory() as tmp:
        for name, data, numbers in cli_files(Path(tmp)):
            section = ("cli validate-scaling" if "-validate-scaling." in name
                       else "cli solve/sweep/schemes")
            add(section, name.encode() + b"\0" + data)
            values.update(numbers)
    reprs = counts["solver reprs"]
    files = counts["cli solve/sweep/schemes"] + counts["cli validate-scaling"]
    print(f"{digest.hexdigest()}  {reprs} reprs, {files} CLI outputs")
    for name, section in sections.items():
        print(f"{section.hexdigest()}  {name} ({counts[name]})")
    if args.values:
        Path(args.values).write_text(json.dumps(values, indent=0))
        print(f"{len(values)} values written to {args.values}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
