"""Source hygiene checks that need no linter: stdlib `ast` only."""
import ast
from pathlib import Path

import pytest

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
