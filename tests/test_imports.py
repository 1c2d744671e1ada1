"""Every name a library module imports is used in that module, and none is scipy."""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "bergman_lab"
_MODULES = sorted(p.name for p in _SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree):
    """Names bound by import statements anywhere in the tree and never read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", _MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((_SRC / module).read_text(), filename=module)
    assert _unused_imports(tree) == []


def _imported_roots(tree):
    """Top-level packages named by the import statements anywhere in the tree."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("module", _MODULES + ["__init__.py"])
def test_no_scipy_import(module):
    # scipy is a test dependency only: importing it costs a run 0.25-0.3 s
    tree = ast.parse((_SRC / module).read_text(), filename=module)
    assert "scipy" not in _imported_roots(tree)


def test_finds_a_scipy_import():
    tree = ast.parse("def f():\n    from scipy.linalg import solve\nimport scipy.special as sp\n")
    assert _imported_roots(tree) == {"scipy"}


def test_finds_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert _unused_imports(tree) == [(1, "math"), (2, "path")]
