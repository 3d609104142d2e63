"""Every name the benchmark traces is a module-level function of greencell.

perfbench/ traces a layer by rebinding the module global that names it, so
a function renamed, or moved into a method, would leave its per-layer
metric at 0 without an error.  These tests read the names from the
benchmark's files, without importing them.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assigned(path: Path, name: str):
    """The literal assigned to the module-level ``name`` in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path.name}")


def _selftest_bindings() -> set:
    """``module.name`` and ``module.table[key]`` for every greencell global
    that perfbench/selftest.py's rebinding check asserts or keeps."""
    tree = ast.parse((PERFBENCH / "selftest.py").read_text())
    check = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "check_rebinding")
    modules = {alias.asname or alias.name
               for node in ast.walk(check) if isinstance(node, ast.ImportFrom)
               and node.module == "greencell" for alias in node.names}
    found = set()
    read = [node for stmt in ast.walk(check)
            if isinstance(stmt, (ast.Assert, ast.Assign))
            for node in ast.walk(stmt)]
    # a table such as cli._SCHEME_FUNCS is read by key, not as itself
    tables = {id(node.value) for node in read
              if isinstance(node, ast.Subscript)}
    for node in read:
        if isinstance(node, ast.Subscript):
            key, node = f"[{ast.literal_eval(node.slice)!r}]", node.value
        elif id(node) in tables:
            continue
        else:
            key = ""
        if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name) and node.value.id in modules:
            found.add(f"{node.value.id}.{node.attr}{key}")
    return found


def _resolve(dotted: str):
    """The object ``module.name`` or ``module.table[key]`` in greencell."""
    module, _, rest = dotted.partition(".")
    name, _, key = rest.partition("[")
    obj = getattr(importlib.import_module(f"greencell.{module}"), name)
    return obj[ast.literal_eval(key[:-1])] if key else obj


def _module_function(obj) -> bool:
    # a module-level function, bare or under a decorator that keeps its
    # names, as functools' do
    return (callable(obj) and not inspect.isclass(obj)
            and obj.__module__.startswith("greencell.")
            and obj.__qualname__ == obj.__name__)


# a layer deleted from greencell whose metric the benchmark still reports
# (ROADMAP known defect); strict, so that the mark goes when the metric does
GONE = {"scaling.budget_x_vec"}
LAYERS = [pytest.param(fn, marks=pytest.mark.xfail(
              strict=True, reason="deleted from greencell; metric reads 0"))
          if fn in GONE else fn
          for fn in sorted({fn for _, fn, _ in _assigned(
              PERFBENCH / "run.py", "LAYER_STATS")})]


@pytest.mark.parametrize("traced", LAYERS)
def test_each_traced_layer_is_a_module_function_of_its_module(traced):
    # the tracer wraps only functions defined in the module it names
    module, name = traced.split(".")
    obj = _resolve(traced)
    assert _module_function(obj), traced
    assert obj.__module__ == f"greencell.{module}" and obj.__name__ == name


@pytest.mark.parametrize("builder", sorted(_assigned(
    PERFBENCH / "tracing.py", "_DIST_BUILDERS")))
def test_each_density_builder_is_a_module_function(builder):
    assert _module_function(_resolve(builder)), builder


BINDINGS = sorted(_selftest_bindings())


def test_the_selftest_reads_the_bindings_it_names():
    assert {"optimal._avg_throughput", "optimal.expect",
            "suboptimal.max_range_x", "cli._SCHEME_FUNCS['ARwOFC']",
            "params.derive_constants"} <= set(BINDINGS)


@pytest.mark.parametrize("binding", BINDINGS)
def test_each_selftest_binding_is_a_module_function(binding):
    assert _module_function(_resolve(binding)), binding
