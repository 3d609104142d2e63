"""The model keeps no module-level cache.

State that a computation keeps belongs to the object it is computed from,
as a ``Problem`` keeps its cap state and a ``SystemParams`` its derived
constants: a module-level ``functools`` cache grows without bound across
objects and hashes its key on every call.  ``cli.py`` is the front end, not
the model; its parser is built once per process.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "greencell"
CACHES = {"lru_cache", "cache"}
MODEL = sorted(path.name for path in PACKAGE.glob("*.py")
               if path.name != "cli.py")


def _cache_decorators(tree: ast.Module) -> list:
    """Names of the functions in ``tree`` under a functools cache."""
    module_names = {"functools"}
    cache_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            module_names |= {alias.asname or alias.name for alias in node.names
                             if alias.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            cache_names |= {alias.asname or alias.name for alias in node.names
                            if alias.name in CACHES}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if (isinstance(target, ast.Name) and target.id in cache_names) or (
                    isinstance(target, ast.Attribute) and target.attr in CACHES
                    and isinstance(target.value, ast.Name)
                    and target.value.id in module_names):
                found.append(node.name)
    return found


def test_the_model_is_every_module_but_the_cli():
    assert {"params.py", "optimal.py", "scaling.py"} <= set(MODEL)
    assert "cli.py" not in MODEL


@pytest.mark.parametrize("module", MODEL)
def test_no_model_function_is_under_a_functools_cache(module):
    tree = ast.parse((PACKAGE / module).read_text())
    assert _cache_decorators(tree) == [], module


@pytest.mark.parametrize("source", [
    "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(): pass",
    "from functools import cache as c\n@c\ndef f(): pass",
    "import functools\n@functools.lru_cache\ndef f(): pass",
    "import functools as ft\n@ft.cache\ndef f(): pass",
])
def test_every_spelling_of_a_cache_is_found(source):
    assert _cache_decorators(ast.parse(source)) == ["f"]


def test_a_cached_property_is_not_a_module_cache():
    source = ("from functools import cached_property\n"
              "class C:\n    @cached_property\n    def f(self): pass")
    assert _cache_decorators(ast.parse(source)) == []
