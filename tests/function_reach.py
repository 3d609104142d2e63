"""Functions of the package that no CLI run calls.

Run it from the root of a checkout, whose ``src/`` and ``configs/`` it
reads:

    python3 tests/function_reach.py

It runs the CLI in this process under ``sys.setprofile``: ``solve`` on both
configs, ``solve --mode hse``, ``sweep`` with one infeasible target,
``schemes`` and ``validate-scaling --trials 2000``, each writing to a
temporary directory.  Then it prints, sorted, every function and method
defined in ``src/greencell/*.py`` (nested ones too, as ``outer.inner``)
that none of those runs called, with its file and line.  A name on the
list is code that only tests or the benchmark reach.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
PACKAGE = ROOT / "src" / "greencell"
sys.path.insert(0, str(ROOT / "src"))

import greencell  # noqa: E402
from greencell import cli  # noqa: E402

CONFIGS = [ROOT / "configs" / "baseline.json",
           ROOT / "configs" / "low_static.cfg"]
RUNS = [
    *(["solve", "--u-avg", "50", "--config", str(c)] for c in CONFIGS),
    ["solve", "--u-avg", "50", "--mode", "hse"],
    ["sweep", "--u-avg", "20,50,1e6"],
    ["schemes", "--u-avg", "30"],
    ["validate-scaling", "--trials", "2000"],
]


def defined_functions() -> dict:
    """{(file, first line of its code object): qualified name} of every
    function and method in the package's modules."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                # a decorated function's code starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                found[(str(path), first)] = f"{path.stem}.{name}"
                name += "."
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}{child.name}."
            visit(child, path, name)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def called_code() -> tuple:
    """(file, first line) of each code object the CLI runs called, and
    each run's exit code."""
    called, codes = set(), []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(RUNS):
            out = Path(tmp) / f"{i}-{argv[0]}.csv"
            sink = io.StringIO()
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    codes.append(cli.main([*argv, "--out", str(out)]))
            finally:
                sys.setprofile(None)
    return called, codes


def main() -> int:
    if Path(greencell.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"imported {greencell.__file__}, not {PACKAGE}: "
                         "run from the root of a checkout")
    defined = defined_functions()
    called, codes = called_code()
    missed = sorted((name, Path(path).name, line)
                    for (path, line), name in defined.items()
                    if (path, line) not in called)
    for name, file, line in missed:
        print(f"{name}  ({file}:{line})")
    print(f"{len(missed)} of {len(defined)} functions not called by "
          f"{len(RUNS)} CLI runs, whose exit codes were {codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
