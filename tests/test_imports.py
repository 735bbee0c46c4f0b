"""The package imports nothing but the standard library, numpy and itself."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "treepolicy").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "treepolicy"}


def imported_roots(tree: ast.Module):
    """The top-level package of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert any(p.name == "__init__.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_numpy_only(path):
    roots = set(imported_roots(ast.parse(path.read_text(), filename=str(path))))
    assert roots <= ALLOWED, f"{path.name} imports {sorted(roots - ALLOWED)}"
