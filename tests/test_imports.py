"""Every name a library module imports is used in that module, and none is scipy.

Every import sits at module level, none inside a function body.

And one choice of rule is made in one place: only quadrature.density_rule
reads weighted_disc_rule, and only quadrature builds the rules of regions.  Only the functions of _CACHED hold a
process-wide cache, and each docstring says what one entry holds.  Only
kernels takes Horner sums (polyval).
"""

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


def _function_imports(tree):
    """(line, function) of every import statement inside a function body."""
    return sorted(
        (node.lineno, fn.name)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


@pytest.mark.parametrize("module", _MODULES + ["__init__.py"])
def test_no_import_inside_a_function(module):
    # a module's dependencies are read at its top, and no call pays for an import
    tree = ast.parse((_SRC / module).read_text(), filename=module)
    assert _function_imports(tree) == []


def test_finds_an_import_inside_a_function():
    tree = ast.parse(
        "import math\n"
        "def f():\n    from .config import DEFAULTS\n    return DEFAULTS\n"
        "class C:\n    def g(self):\n        def h():\n            import os\n        return h\n"
    )
    assert _function_imports(tree) == [(3, "f"), (8, "g"), (8, "h")]


def _readers(tree, name):
    """Functions whose bodies read name, bare or as an attribute; "<module>" at top level."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name
            ):
                found.add(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_only_density_rule_reads_weighted_disc_rule():
    # radial or not, a density's polar rule is chosen in density_rule alone
    readers = set()
    for module in _MODULES + ["__init__.py"]:
        tree = ast.parse((_SRC / module).read_text(), filename=module)
        readers.update((module, f) for f in _readers(tree, "weighted_disc_rule"))
    assert readers == {("quadrature.py", "density_rule")}


def test_only_quadrature_builds_region_rules():
    # a family of regions is integrated on _region_blocks alone: S(a) is built
    # in _carleson_rule at |a| only, and no other module takes one rule per region
    readers = {}
    for module in _MODULES + ["__init__.py"]:
        tree = ast.parse((_SRC / module).read_text(), filename=module)
        for name in ("_disk_map", "_carleson_rule", "region_quadrature"):
            readers.setdefault(name, set()).update((module, f) for f in _readers(tree, name))
    assert readers == {
        "_disk_map": {("quadrature.py", "_region_blocks")},
        "_carleson_rule": {("quadrature.py", "region_quadrature")},
        # __init__ exports it by an import, which reads no name
        "region_quadrature": {("quadrature.py", "_region_blocks")},
    }


def test_only_kernels_reads_polyval():
    # Horner sums off a rule run in two places: _radial_forms (one pass per
    # distinct |z|^2 for the diagonal forms of a radial model) and
    # polynomial_values
    readers = set()
    for module in _MODULES + ["__init__.py"]:
        tree = ast.parse((_SRC / module).read_text(), filename=module)
        readers.update((module, f) for f in _readers(tree, "polyval"))
    assert readers == {("kernels.py", "_radial_forms"), ("kernels.py", "polynomial_values")}


def test_finds_a_second_reader():
    tree = ast.parse(
        "def density_rule(v):\n    return weighted_disc_rule(1, 2, *v.power)\n"
        "class M:\n    def norm_rule(self):\n        return q.weighted_disc_rule(3, 4, 1.0, 0.0)\n"
        "rule = weighted_disc_rule\n"
    )
    assert _readers(tree, "weighted_disc_rule") == {"density_rule", "norm_rule", "<module>"}


# (module, function) of every lru_cache and functools.cache in the library:
# Gauss data, small reference rules, one float per |a|, the CLI parser, and
# two read-only results: lattices and the radial masses of disks and
# Carleson sets
_CACHED = {
    ("quadrature.py", "gauss_rule"),
    ("quadrature.py", "_jacobi_rings"),
    ("quadrature.py", "_polar_rule"),
    ("quadrature.py", "_carleson_area"),
    ("cli.py", "build_parser"),
    ("geometry.py", "_lattice"),
    ("weights.py", "_radial_masses"),
}


def _cached_functions(tree):
    """Functions an lru_cache or functools.cache decorates; "<call>" for one applied by a call."""
    names = {"lru_cache"} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in ("cache", "lru_cache")
    }

    def is_cache(node):
        node = node.func if isinstance(node, ast.Call) else node
        return (isinstance(node, ast.Name) and node.id in names) or (
            isinstance(node, ast.Attribute)
            and node.attr in ("cache", "lru_cache")
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        )

    found, decorating = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in filter(is_cache, node.decorator_list):
                found.add(node.name)
                decorating.update(map(id, ast.walk(decorator)))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and is_cache(node):
            if id(node) not in decorating:
                found.add("<call>")
    return found


def test_only_allowlisted_functions_hold_a_cache():
    # a process-wide cache outlives every caller: each is named here, and its
    # docstring says what one entry holds
    cached, docstrings = set(), {}
    for module in _MODULES + ["__init__.py"]:
        tree = ast.parse((_SRC / module).read_text(), filename=module)
        cached.update((module, f) for f in _cached_functions(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (module, node.name) in _CACHED:
                docstrings[module, node.name] = ast.get_docstring(node)
    assert cached == _CACHED
    assert all("entry" in doc for doc in docstrings.values())


def test_finds_every_cache():
    tree = ast.parse(
        "import functools\nfrom functools import lru_cache, cache as memo\n"
        "@lru_cache(maxsize=4)\ndef a():\n    pass\n"
        "@functools.cache\ndef b():\n    pass\n"
        "class C:\n    @memo\n    def c(self):\n        pass\n"
        "@property\ndef not_cached():\n    cache = {}\n    return cache\n"
        "d = functools.lru_cache(maxsize=None)(len)\n"
    )
    assert _cached_functions(tree) == {"a", "b", "c", "<call>"}
    assert _cached_functions(ast.parse("cache = {}\ndef f():\n    return cache\n")) == set()
