"""Interleaved timing of two checkouts in one process, and their outputs.

    python3 tests/solve_timing.py PARENT CHANGE [--workload W...] [--repeats N]

PARENT and CHANGE are checkout roots (``. .`` for one tree).  Each one's
``src/greencell`` is copied into a temporary directory as
``greencell_parent`` or ``greencell_change``, so one process imports both.
Each side runs on its own ``configs/``, with the inputs of PARENT's
``perfbench/``.  The workloads W (``solve`` by default):

- ``solve``: the benchmark's round, ``SOLVE_ROUND`` of ``workloads.py`` on
  the targets and profiles of ``reference.json``, a ``solve`` call each;
- ``sweep3``: the benchmark's sweep through the side's ``cli.main``, at
  55.063, 58.705 and 112.954 users on ``configs/baseline.json``;
- ``optimal20``: ``sweep --schemes optimal`` at 20 targets, 5 to 100 users;
- ``validate``: ``mcsim.simulate_total_power`` at the 12 points of the
  benchmark's validate grid, seeded with each point's first key;
- ``digest``: the outputs a refactor must keep bit for bit and the code
  its CLI runs reach, untimed and once whatever N (see ``print_digests``).

Each repeat times every op once on each side, with garbage collected
between repeats; which side goes first alternates, and a first, untimed
repeat warms both up and hashes their outputs.  One process keeps the
host's drift out of the ratios: on a shared 2-core host, six processes of
identical code read 1.50 to 2.61 ms at the median solve op.  Per timed
workload it prints each op's median times and their ratio parent / change
(above 1: the change is faster), the median of the per-op ratios, the
repeats (N, 150 by default) whose ops took the change less time in total,
and per side a SHA-256 of its outputs' reprs.
"""

import argparse
import ast
import contextlib
import csv
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
SWEEPS = {
    "sweep3": ["--u-avg", "55.063,58.705,112.954"],
    "optimal20": ["--u-avg", ",".join(repr(5.0 * k) for k in range(1, 21)),
                  "--schemes", "optimal"],
}
WORKLOADS = ("solve", *SWEEPS, "validate", "digest")

# the digest's solver grid
SETTINGS = [(20.0, 0.0), (60.0, 30.0), (120.0, 0.0)]  # (Pc, Ps) in W
ALPHAS = [3.0, 4.5]
TABLE = ([0.0, 2e-5, 5e-5, 1e-4], [0.3, 1.0, 0.6, 0.1])  # with triangular
FRACTIONS = [1e-8, 1e-3, 0.05, 0.3, 0.9, 1.0]  # of each family's cap
# (function, keywords, the Problem's cap its targets are fractions of)
SOLVERS = [("solve", {}, "cap"), ("solve", {"mode": "hse"}, "cap"),
           ("frw_ofc", {}, "frw_cap"), ("frw_oofc", {}, "frw_cap"),
           ("arw_ofc", {}, "cap"), ("arw_oofc", {}, "cap")]
CONFIGS = ["baseline.json", "low_static.cfg"]
CLI_FRACTIONS = [0.05, 0.5, 0.95]  # of the cap, for solve and sweep
SECTIONS = ("solver reprs", "cli solve/sweep/schemes", "cli validate-scaling")


def solve_round(root: Path) -> tuple:
    """``SOLVE_ROUND`` of ``root``'s ``perfbench/workloads.py``, read as a
    literal, so that no greencell is imported by name."""
    tree = ast.parse((root / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "SOLVE_ROUND" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no SOLVE_ROUND in {root}/perfbench/workloads.py")


def guarded(call, *args, **kwargs):
    """An op: ``call(*args, **kwargs)``, or the package error it raised;
    any other error, such as a renamed function's, stops the tool."""
    def op():
        try:
            return call(*args, **kwargs)
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            return exc
    return op


def side_ops(workload: str, side: str, roots: dict, ref: dict,
             tmp: str) -> list:
    """One side's ops of ``workload``: (name, zero-argument call) each."""
    pkg, cli, mcsim = (importlib.import_module(f"greencell_{side}{sub}")
                       for sub in ("", ".cli", ".mcsim"))
    baseline = str(roots[side] / "configs" / "baseline.json")
    if workload in SWEEPS:
        out = Path(tmp) / f"{side}.csv"
        argv = ["sweep", *SWEEPS[workload], "--config", baseline,
                "--out", str(out)]
        return [(workload, guarded(lambda: (cli.main(argv), out.read_text())))]
    if workload == "validate":
        p, _ = cli._build_context(cli._load_config(baseline))
        val = ref["validate"]
        return [(f"{radius:g} m|{density:g}",
                 guarded(lambda r=radius, lam=density, key=keys[0]:
                         mcsim.simulate_total_power(lam, r, p, val["trials"],
                                                    mcsim.make_rng(key))))
                for (radius, density), keys in zip(val["points"], val["keys"])]
    ops = []
    for stratum, i, mode in solve_round(roots["parent"]):
        cfg, dist_name = stratum.split("|")
        p, dist = cli._build_context(cli._load_config(str(roots[side] / cfg)))
        if dist_name != "tri":
            prof = ref["solve"]["profiles"][int(dist_name[len("table"):])]
            dist = pkg.from_table(prof["lams"], prof["weights"])
        u = ref["solve"]["targets"][stratum][i]
        ops.append((f"{stratum}|{i}|{mode}",
                    guarded(pkg.solve, u, dist, p, mode=mode)))
    return ops


def output_repr(out) -> str:
    if isinstance(out, tuple) and hasattr(out[0], "summary"):  # a solve
        out = (out[0].summary(), out[1])
    return f"{type(out).__name__}: {out}" if isinstance(out, Exception) \
        else repr(out)


def time_workload(ops: dict, repeats: int) -> None:
    """Time ``ops`` (side -> op list) and print the workload's summary."""
    times = {side: [[] for _ in ops[side]] for side in SIDES}
    digests = {side: hashlib.sha256() for side in SIDES}
    gc.disable()
    for r in range(repeats + 1):  # repeat 0 warms up
        gc.collect()
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        for k in range(len(ops["parent"])):
            for side in order:
                start = time.perf_counter()
                out = ops[side][k][1]()
                elapsed = time.perf_counter() - start
                if r == 0:
                    digests[side].update(output_repr(out).encode())
                else:
                    times[side][k].append(elapsed)
    gc.enable()
    ratios = []
    for k, (name, _) in enumerate(ops["parent"]):
        med = {side: statistics.median(times[side][k]) for side in SIDES}
        ratios.append(med["parent"] / med["change"])
        print(f"{name:36s} parent {med['parent'] * 1e3:8.3f} ms  change "
              f"{med['change'] * 1e3:8.3f} ms  ratio {ratios[-1]:.3f}")
    totals = {side: [sum(t) for t in zip(*times[side])] for side in SIDES}
    wins = sum(c < p for p, c in zip(totals["parent"], totals["change"]))
    print(f"median-op ratio {statistics.median(ratios):.3f}, change won "
          f"{wins}/{repeats} repeats")
    for side in SIDES:
        print(f"{digests[side].hexdigest()}  {side} outputs")


def solver_outputs(side: str):
    """(key, output) of each solver call of the grid: the Problem's two
    caps, then ``(policy.summary(), metrics)`` or the error raised."""
    pkg = importlib.import_module(f"greencell_{side}")
    for static, sleep in SETTINGS:
        for alpha in ALPHAS:
            p = pkg.SystemParams(static_power=static, sleep_power=sleep,
                                 pathloss_exp=alpha)
            for d, dist in enumerate([pkg.triangular(1e-4),
                                      pkg.from_table(*TABLE)]):
                problem = pkg.optimal.Problem(dist, p)
                setting = f"Pc{static:g}/Ps{sleep:g}/alpha{alpha:g}/dist{d}"
                yield f"{setting}/caps", (problem.cap, problem.frw_cap)
                for s, (name, kw, cap) in enumerate(SOLVERS):
                    for fraction in FRACTIONS:
                        key = f"{setting}/solver{s}/{fraction:g}"
                        try:
                            policy, metrics = getattr(pkg, name)(
                                fraction * getattr(problem, cap), problem,
                                **kw)
                            yield key, (policy.summary(), metrics)
                        except ValueError as exc:
                            yield key, exc


def cli_files(side: str, config: Path, out_dir: Path, sources: set,
              called: set):
    """(name, bytes hashed, (key, float) of each number) of the stdout,
    output file and manifest of each CLI run on ``config``.  A manifest is
    hashed without its ``source_sha256``, which goes to ``sources``, and
    (file, first line) of each code object ``cli.main`` calls to ``called``."""
    cli = importlib.import_module(f"greencell_{side}.cli")
    p, dist = cli._build_context(cli._load_config(str(config)))
    problem = cli.optimal.Problem(dist, p)

    def record(frame, event, _, add=called.add):  # sees C calls, returns
        if event == "call":
            add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    targets = [repr(float(f * problem.cap)) for f in CLI_FRACTIONS]
    runs = [["solve", "--u-avg", target, "--mode", mode]
            for target in targets for mode in ("exact", "hse")]
    runs += [["sweep", "--u-avg",
              ",".join([*targets, repr(float(1.1 * problem.cap))])],
             ["schemes", "--u-avg", repr(float(0.3 * problem.frw_cap))],
             ["validate-scaling", "--trials", "2000"]]
    for i, argv in enumerate(runs):
        for fmt in ("csv", "json"):
            out = out_dir / f"{config.stem}-{i}-{argv[0]}.{fmt}"
            stdout = io.StringIO()
            sys.setprofile(record)
            try:
                with contextlib.redirect_stdout(stdout):
                    code = cli.main([*argv, "--config", str(config),
                                     "--format", fmt, "--out", str(out)])
            finally:
                sys.setprofile(None)
            text = stdout.getvalue()
            yield (out.name, repr((code, text)).encode(),
                   cell_floats(f"{out.name}/stdout", text, ".json"))
            data = out.read_bytes() if out.exists() else b"missing"
            yield out.name, data, cell_floats(out.name, data.decode(),
                                              out.suffix)
            manifest, data = Path(str(out) + ".manifest.json"), b"missing"
            if manifest.exists():
                doc = json.loads(manifest.read_text())
                sources.add(doc.pop("source_sha256", "none"))
                data = (json.dumps(doc, indent=2, sort_keys=True)
                        + "\n").encode()
            yield manifest.name, data, ()


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
    if suffix != ".csv":
        try:
            return list(floats(key, json.loads(text)))
        except ValueError:
            return []
    cells = []
    for i, row in enumerate(csv.DictReader(io.StringIO(text))):
        for column, cell in row.items():
            try:
                cells.append((f"{key}/{i}/{column}", float(cell)))
            except (TypeError, ValueError):
                pass
    return cells


def defined_functions(package: Path) -> dict:
    """{(file, first line of its code object): qualified name} of every
    function and method in ``package``'s modules, nested ones too, as
    ``outer.inner``."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                # a decorated function's code starts at its first decorator
                first = min(n.lineno for n in [child, *child.decorator_list])
                found[(str(path), first)] = f"{path.stem}.{name}"
                name += "."
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}{child.name}."
            visit(child, path, name)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def side_digest(side: str, root: Path, tmp: Path) -> tuple:
    """(lines, values, reached, missed) of one side: its digests, its
    ``source_sha256`` and reach count; its every output float; the names of
    the functions its CLI runs call; and (name, file, line) of the rest."""
    digest = hashlib.sha256()
    sections = {name: hashlib.sha256() for name in SECTIONS}
    counts = dict.fromkeys(SECTIONS, 0)
    values, sources = {}, set()

    def add(section: str, data: bytes) -> None:
        digest.update(data)
        sections[section].update(data)
        counts[section] += 1

    for key, output in solver_outputs(side):
        add("solver reprs", repr(output).encode() + b"\n")
        if not isinstance(output, Exception):
            values.update(floats(key, output))
    out_dir = tmp / f"digest-{side}"
    out_dir.mkdir()
    called = set()
    for config in CONFIGS:
        for name, data, numbers in cli_files(
                side, root / "configs" / config, out_dir, sources, called):
            add(SECTIONS[2] if "-validate-scaling." in name else SECTIONS[1],
                name.encode() + b"\0" + data)
            values.update(numbers)
    defined = defined_functions(tmp / f"greencell_{side}")
    missed = sorted((name, Path(path).name, line)
                    for (path, line), name in defined.items()
                    if (path, line) not in called)
    lines = [f"{digest.hexdigest()}  {counts[SECTIONS[0]]} reprs, "
             f"{counts[SECTIONS[1]] + counts[SECTIONS[2]]} CLI outputs"]
    lines += [f"{sections[name].hexdigest()}  {name} ({counts[name]})"
              for name in SECTIONS]
    lines += [f"{' '.join(sorted(sources))}  source_sha256 (not in the "
              "digests)", f"{len(missed)} of {len(defined)} functions not "
              "called by its CLI runs"]
    reached = {name for key, name in defined.items() if key in called}
    return lines, values, reached, missed


def print_digests(roots: dict, tmp: Path) -> None:
    """Per side, a SHA-256 over the reprs of ``solve`` in both modes and
    the four schemes on the grid above, with each Problem's caps, and over
    what the CLI's ``solve``, ``sweep``, ``schemes`` and
    ``validate-scaling`` write on the side's configs in CSV and JSON; then
    one per section, the manifests' ``source_sha256`` (not hashed), and
    how many of ``defined_functions`` the CLI runs do not call, recorded by
    ``sys.setprofile``; then the change's uncalled functions, and those one
    side's runs call and the other's do not.  A float that turns into a
    numpy scalar changes its repr.  Where a digest differs, it prints per
    field the largest relative difference of the sides' floats at its
    first key in sorted order, and keys one side lacks.
    """
    digests = {}
    for side in SIDES:
        digests[side] = side_digest(side, roots[side], tmp)
        print(f"-- {side}", *digests[side][0], sep="\n")
    (lines_a, a, reach_a, _), (lines_b, b, reach_b, missed) = digests.values()
    for name, file, line in missed:
        print(f"{name}  ({file}:{line})")
    for side, only in zip(SIDES, (reach_a - reach_b, reach_b - reach_a)):
        for name in sorted(only):
            print(f"{name}  called by {side}'s CLI runs only")
    if lines_a[:-2] == lines_b[:-2]:
        return
    worst = {}
    both = sorted(a.keys() & b.keys())
    for key in both:
        x, y = a[key], b[key]
        rel = 0.0 if x == y or math.isnan(x) and math.isnan(y) else (
            abs(x - y) / max(abs(x), abs(y)))
        rel = math.inf if math.isnan(rel) else rel
        # the key's last part that is not a row or sequence index
        field = next(part for part in reversed(key.split("/"))
                     if not part.isdigit())
        if field not in worst or rel > worst[field][0]:
            worst[field] = (rel, key, x, y)
    print(f"{len(both)} values on both sides")
    for field, (rel, key, x, y) in sorted(worst.items()):
        where = f"  at {key}: {x!r} vs {y!r}" if rel else ""
        print(f"{field:24s} {rel:.3g}{where}")
    for side, only in zip(SIDES, (a.keys() - b.keys(), b.keys() - a.keys())):
        if only:
            print(f"{len(only)} keys only in {side}, e.g. {min(only)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=["solve"])
    parser.add_argument("--repeats", type=int, default=150)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    ref = json.loads((roots["parent"] / "perfbench" / "reference.json")
                     .read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for side in SIDES:
            shutil.copytree(roots[side] / "src" / "greencell",
                            Path(tmp) / f"greencell_{side}")
        sys.path.insert(0, tmp)
        for workload in args.workload:
            print(f"== {workload}")
            if workload == "digest":
                print_digests(roots, Path(tmp))
            else:
                time_workload({side: side_ops(workload, side, roots, ref,
                                              tmp) for side in SIDES},
                              args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
