"""Source hygiene checks that need no linter: stdlib `ast` and `inspect`."""
import ast
import inspect
from pathlib import Path

import pytest

from cknlab import solver

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "cknlab")
             .glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module
    (nor listed in `__all__`)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {e.value for e in node.value.elts}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


def test_unused_imports_detected():
    src = "import os\nimport sys as system\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(src) == ["line 1: os", "line 2: system",
                                   "line 3: tau"]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def local_relative_imports(source: str) -> list[str]:
    """Relative (package) imports made inside a function body."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= {(node.lineno, "." * node.level + (node.module or ""))
                      for node in ast.walk(fn)
                      if isinstance(node, ast.ImportFrom) and node.level}
    return [f"line {line}: from {mod}" for line, mod in sorted(found)]


def test_local_relative_imports_detected():
    src = ("from .a import x\n"
           "def f():\n"
           "    from .b import y\n"
           "    from os import path\n"
           "    def g():\n"
           "        from ..c import z\n")
    assert local_relative_imports(src) == ["line 3: from .b",
                                           "line 6: from ..c"]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_function_level_package_imports(path):
    assert local_relative_imports(path.read_text()) == []


def cg_call_sites(source: str) -> list[str]:
    """Enclosing function of every call to scipy's `cg`, under any name a
    `from scipy.sparse.linalg import cg [as x]` binds or as `<mod>.cg`."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "scipy.sparse.linalg"
             for alias in node.names if alias.name == "cg"}
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id in names)
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "cg")):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return sites


def test_cg_call_sites_detected():
    src = ("from scipy.sparse.linalg import cg as krylov\n"
           "import scipy.sparse.linalg as spla\n"
           "def f():\n"
           "    krylov(A, b)\n"
           "def g():\n"
           "    spla.cg(A, b)\n"
           "spla.cg(A, b)\n")
    assert cg_call_sites(src) == ["f", "g", "<module>"]


def test_cg_is_called_only_in_spd_solve():
    sites = {(path.name, where) for path in SRC
             for where in cg_call_sites(path.read_text())}
    assert sites == {("solver.py", "_spd_solve")}


@pytest.mark.parametrize("name", ["_spd_solve", "solve", "residual",
                                  "harmonic_replacement"])
def test_solves_take_no_per_call_cg_options(name):
    params = inspect.signature(getattr(solver, name)).parameters
    assert not {"tol", "rtol", "max_iter", "maxiter", "x0"} & set(params)
