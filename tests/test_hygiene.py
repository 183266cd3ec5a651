"""Source hygiene checks that need no linter: stdlib `ast` and `inspect`."""
import ast
import functools
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from cknlab import solver
from cknlab.fields import BoxGrid, RadialGrid
from cknlab.measure import BallSpec

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


MEMO_DECORATORS = {"lru_cache", "cache"}


def functools_memos(source: str) -> list[str]:
    """Every use of `functools.lru_cache` or `functools.cache`, imported by
    name (under any alias) or read as an attribute of `functools`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, f"functools.{alias.name}")
                      for alias in node.names if alias.name in MEMO_DECORATORS]
        elif (isinstance(node, ast.Attribute) and node.attr in MEMO_DECORATORS
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            found.append((node.lineno, f"functools.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_functools_memos_detected():
    src = ("import functools\n"
           "from functools import cached_property, lru_cache as memo\n"
           "from functools import cache, wraps\n"
           "@functools.lru_cache(maxsize=None)\n"
           "def f(x): pass\n"
           "@functools.cache\n"
           "def g(x): pass\n"
           "h = functools.partial(f, 1)\n")
    assert functools_memos(src) == ["line 2: functools.lru_cache",
                                    "line 3: functools.cache",
                                    "line 4: functools.lru_cache",
                                    "line 6: functools.cache"]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_functools_memos(path):
    """Tables and operators are memoised by `fields._per_grid`, on the grid
    they belong to, so that they die with it; a module-level memo holds
    every grid it was called with, and its tables, alive."""
    assert functools_memos(path.read_text()) == []


def cg_call_sites(source: str) -> list[str]:
    """Enclosing function of every call to the package's CG, `_pcg`, by
    name or as `<mod>._pcg`."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id == "_pcg")
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_pcg")):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_cg_call_sites_detected():
    src = ("def f():\n"
           "    _pcg(A, b)\n"
           "def g():\n"
           "    solver._pcg(A, b)\n"
           "    pcg(A, b)\n"
           "_pcg(A, b)\n")
    assert cg_call_sites(src) == ["f", "g", "<module>"]


def test_cg_is_called_only_in_spd_solve():
    sites = {(path.name, where) for path in SRC
             for where in cg_call_sites(path.read_text())}
    assert sites == {("solver.py", "_spd_solve")}


KINDS = {"RadialGrid", "BoxGrid", "Tridiagonal", "Stencil"}


def kind_branches(source: str) -> list[str]:
    """Enclosing function of every `isinstance` call whose class argument
    names a grid or operator kind of `KINDS`, by name or as `<mod>.<Kind>`,
    alone, in a tuple or in a `|` union."""
    sites = []

    def kinds(node) -> set:
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.Attribute):
            return {node.attr}
        if isinstance(node, ast.Tuple):
            return set().union(*map(kinds, node.elts))
        if isinstance(node, ast.BinOp):
            return kinds(node.left) | kinds(node.right)
        return set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and kinds(node.args[1]) & KINDS):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_kind_branches_detected():
    src = ("def f(A):\n"
           "    return isinstance(A, Stencil)\n"
           "def g(grid, A):\n"
           "    isinstance(grid, fields.RadialGrid)\n"
           "    isinstance(A, (int, Tridiagonal))\n"
           "    isinstance(grid, float | BoxGrid)\n"
           "    isinstance(grid, DiscreteField)\n"
           "    isinstance(A, np.ndarray)\n"
           "isinstance(x, RadialGrid)\n")
    assert kind_branches(src) == ["f", "g", "g", "g", "<module>"]


def test_one_kind_branch_in_the_package():
    """What differs between a radial and a box grid, or a chain and a
    stencil, is a member of those classes; the generic code calls it.
    The one branch left is `_spd_solve`'s choice of solve."""
    sites = [(path.name, where) for path in SRC
             for where in kind_branches(path.read_text())]
    assert sites == [("solver.py", "_spd_solve")]


ACCURACY_OPTIONS = {"tol", "rtol", "max_iter", "maxiter", "x0"}


@pytest.mark.parametrize("name", ["_spd_solve", "solve", "residual",
                                  "harmonic_replacement"])
def test_solves_take_no_per_call_cg_options(name):
    params = inspect.signature(getattr(solver, name)).parameters
    assert not ACCURACY_OPTIONS & set(params)


def accuracy_options(module) -> list[str]:
    """`name(option)` for each per-call accuracy option taken by a public
    function, class constructor or method that `module` defines."""
    found = []

    def check(name, fn):
        try:
            params = inspect.signature(fn).parameters
        except ValueError:  # a class with a builtin constructor
            return
        found.extend(f"{name}({p})" for p in sorted(ACCURACY_OPTIONS & set(params)))

    for name, obj in vars(module).items():
        if (name.startswith("_")
                or getattr(obj, "__module__", None) != module.__name__):
            continue
        if inspect.isfunction(obj):
            check(name, obj)
        elif inspect.isclass(obj):
            check(name, obj)
            for meth, fn in vars(obj).items():
                if inspect.isfunction(fn) and not meth.startswith("_"):
                    check(f"{name}.{meth}", fn)
    return found


def test_accuracy_options_detected():
    mod = types.ModuleType("fake")
    exec("def f(a, tol=1e-8): pass\n"
         "def _g(x0): pass\n"
         "class T:\n"
         "    def __init__(self, n, rtol): pass\n"
         "    def run(self, maxiter=3): pass\n"
         "    def _step(self, max_iter): pass\n", mod.__dict__)
    assert accuracy_options(mod) == ["f(tol)", "T(rtol)", "T.run(maxiter)"]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_public_api_takes_no_per_call_accuracy_options(path):
    """Solver and quadrature accuracy are module constants, not arguments."""
    module = importlib.import_module(f"cknlab.{path.stem}")
    assert accuracy_options(module) == []


def module_level_scipy_imports(source: str) -> list[str]:
    """scipy modules an import statement outside every function body names
    (`from scipy import x` counts as `scipy.x`): what importing runs."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            found.extend((node.lineno, f"scipy.{alias.name}")
                         for alias in node.names)
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.startswith("scipy.")):
            found.append((node.lineno, node.module))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return [f"line {line}: {mod}" for line, mod in found]


def test_module_level_scipy_imports_detected():
    src = ("import scipy.sparse as sp\n"
           "from scipy.integrate import quad\n"
           "from scipy import special\n"
           "try:\n"
           "    import scipy\n"
           "except ImportError:\n"
           "    pass\n"
           "import numpy\n"
           "def f():\n"
           "    from scipy.optimize import brentq\n")
    assert module_level_scipy_imports(src) == [
        "line 1: scipy.sparse", "line 2: scipy.integrate",
        "line 3: scipy.special", "line 5: scipy"]


# the package runs on numpy alone: importing it imports no scipy
SCIPY_AT_IMPORT = set()


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_module_level_scipy_imports_are_solver_modules(path):
    assert [found for found in module_level_scipy_imports(path.read_text())
            if found.split(": ")[1] not in SCIPY_AT_IMPORT] == []


# `argparse` is for `cli.main` alone; the package uses no `fractions` (nor
# the `decimal` that it imports) and no `numpy.polynomial`
NOT_ON_RUN_PATH = ("scipy", "argparse", "fractions", "decimal",
                   "numpy.polynomial")


def fresh_modules(script: str) -> list[str]:
    """`sys.modules` after a fresh interpreter, with the package on its
    path, runs `script`."""
    src = str(Path(solver.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", script + "\nimport sys\nprint(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    out = out.splitlines()[-1].split()  # the script may print lines of its own
    assert "cknlab.solver" in out
    return out


def off_run_path(modules: list[str]) -> list[str]:
    return [name for name in modules
            if any(name == top or name.startswith(top + ".")
                   for top in NOT_ON_RUN_PATH)]


def test_off_run_path_detected():
    assert off_run_path(["numpy", "numpy.polynomial.legendre", "scipy",
                         "decimal", "_decimal", "argparse", "fractions",
                         "numpy.polynomialx"]) == [
        "numpy.polynomial.legendre", "scipy", "decimal", "argparse",
        "fractions"]


def test_run_path_loads_no_scipy():
    """A fresh interpreter that imports the modules a benchmark worker
    imports and runs a radial solve, a box solve and a box harmonic
    replacement loads no scipy module: the run path is numpy alone.  Nor
    does it load the modules of `NOT_ON_RUN_PATH`."""
    out = fresh_modules(
        "from cknlab import (cli, fields, inequalities, measure, moser,\n"
        "                    regularity, solver)\n"
        "from cknlab.params import validate\n"
        "P = validate(3, 0.3, 0.5)\n"
        "radial = fields.RadialGrid(0.0, 1.0, 64)\n"
        "solver.solve(solver.assemble(P, radial, dirichlet=1.0))\n"
        "box = fields.BoxGrid((-1.0,) * 3, (1.0,) * 3, (8,) * 3)\n"
        "u, rep = solver.solve(solver.assemble(P, box,\n"
        "                      dirichlet=lambda p: p[:, 0]))\n"
        "assert rep.iterations > 0\n"
        "solver.harmonic_replacement(P, u, measure.BallSpec((0.0,) * 3, 0.6))")
    assert off_run_path(out) == []


def test_cli_runs_load_only_what_they_execute(tmp_path):
    """One fresh interpreter runs `cli.run` on every experiment, at its
    defaults, and loads none of the modules of `NOT_ON_RUN_PATH`: each
    runs as a `ckn-lab run` process would."""
    out = fresh_modules(
        "from pathlib import Path\n"
        "from cknlab import cli\n"
        f"tmp = Path({str(tmp_path)!r})\n"
        "for name in cli.EXPERIMENTS:\n"
        "    cfg = tmp / f'{name}.cfg'\n"
        "    cfg.write_text(f'experiment={name}\\noutput_dir={tmp}\\n'\n"
        "                   'params.N=3\\nparams.a=0.3\\nparams.b=0.5\\n'\n"
        "                   'seed=1\\n')\n"
        "    assert cli.run(str(cfg)) in (0, 2), name  # 1: not run")
    assert "cknlab.moser" in out
    assert off_run_path(out) == []
    assert len(list(tmp_path.glob("*.cfg"))) == 10


LINALG_ALLOWED = {"norm"}


def lapack_and_polynomial_uses(source: str) -> list[str]:
    """Every `numpy.linalg` routine but those of `LINALG_ALLOWED`, every
    `polyfit` and every `numpy.polynomial`, named in an import or read as
    an attribute (`np.linalg.solve`, `numpy.polynomial.legendre`, ...)."""
    found = []

    def dotted(node) -> str:
        if isinstance(node, ast.Attribute):
            return f"{dotted(node.value)}.{node.attr}"
        return node.id if isinstance(node, ast.Name) else "?"

    def flagged(name: str) -> bool:
        parts = name.split(".")
        if "polyfit" in parts or "polynomial" in parts:
            return True
        if "linalg" in parts[:-1]:
            return parts[parts.index("linalg") + 1] not in LINALG_ALLOWED
        return False

    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [dotted(node)]
        elif isinstance(node, ast.Name):
            names = [node.id]
        found += [(node.lineno, name) for name in names if flagged(name)]
    return [f"line {line}: {name}" for line, name in sorted(set(found))]


def test_lapack_and_polynomial_uses_detected():
    src = ("import numpy as np\n"
           "from numpy.linalg import eigvalsh, norm\n"
           "from numpy.polynomial.legendre import leggauss\n"
           "import numpy.polynomial\n"
           "def f(x, y):\n"
           "    np.linalg.norm(x)\n"
           "    np.linalg.lstsq(x, y)\n"
           "    return np.polyfit(x, y, 1), polyfit\n")
    assert lapack_and_polynomial_uses(src) == [
        "line 2: numpy.linalg.eigvalsh",
        "line 3: numpy.polynomial.legendre.leggauss",
        "line 4: numpy.polynomial",
        "line 7: np.linalg.lstsq",
        "line 8: np.polyfit",
        "line 8: polyfit"]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_lapack_or_polynomial_in_the_package(path):
    """What the package computes needs no LAPACK and no `numpy.polynomial`:
    its Gauss-Legendre rule is frozen and its line fits are closed-form, so
    no run touches OpenBLAS's LAPACK buffers or its CPU-dependent kernels."""
    assert lapack_and_polynomial_uses(path.read_text()) == []


def experiment_grid_constructions(source: str) -> list[str]:
    """Every `exp_*` function that calls `RadialGrid(...)`, by name or as
    `<mod>.RadialGrid`."""
    return [fn.name for fn in ast.parse(source).body
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("exp_")
            and any(isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name)
                 and node.func.id == "RadialGrid")
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "RadialGrid"))
                for node in ast.walk(fn))]


def test_experiment_grid_constructions_detected():
    src = ("def exp_a(cfg):\n"
           "    return RadialGrid(0.0, 1.0, 8)\n"
           "def exp_b(cfg):\n"
           "    return [fields.RadialGrid(0.0, 1.0, n) for n in (2, 4)]\n"
           "def exp_c(cfg):\n"
           "    return replace(cfg['grid'], n_cells=4)\n"
           "def _typed_config(exp, raw):\n"
           "    return RadialGrid(0.0, 1.0, 8)\n")
    assert experiment_grid_constructions(src) == ["exp_a", "exp_b"]


def test_experiments_build_no_grid():
    """The config's grid is built, and a bad grid value rejected as a config
    error, in one place before the run; an experiment refines it with
    `dataclasses.replace`."""
    cli_py = next(path for path in SRC if path.name == "cli.py")
    assert experiment_grid_constructions(cli_py.read_text()) == []


def per_grid_tables(source: str) -> list[str]:
    """Every module-level function, and every method of a module-level
    class (as `<Class>.<method>`), decorated with `_per_grid`, by name or
    as `<mod>._per_grid`."""
    defs = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            defs.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{fn.name}", fn) for fn in node.body
                     if isinstance(fn, ast.FunctionDef)]
    return [name for name, fn in defs
            if any((isinstance(d, ast.Name) and d.id == "_per_grid")
                   or (isinstance(d, ast.Attribute) and d.attr == "_per_grid")
                   for d in fn.decorator_list)]


def test_per_grid_tables_detected():
    src = ("@_per_grid\n"
           "def a(grid): pass\n"
           "@fields._per_grid\n"
           "def b(grid, w): pass\n"
           "@cached_property\n"
           "def c(self): pass\n"
           "def d(grid): pass\n"
           "class G:\n"
           "    @_per_grid\n"
           "    def e(self, w): pass\n"
           "    @property\n"
           "    def f(self): pass\n")
    assert per_grid_tables(src) == ["a", "b", "G.e"]


def shared_arrays(value) -> list:
    """The arrays a memoised value hands out to every caller: itself, or
    each public array attribute of an operator that two reads return as
    one object (fields and cached properties; a fresh array per read is
    no one else's)."""
    if isinstance(value, np.ndarray):
        return [value]
    names = [name for name in dir(value) if not name.startswith("_")]
    return [getattr(value, name) for name in names
            if isinstance(getattr(value, name), np.ndarray)
            and getattr(value, name) is getattr(value, name)]


def test_memoised_tables_are_read_only():
    """A table memoised on its grid (`fields._per_grid`, and the grids'
    cached properties) is shared by every later caller: one in-place
    write would corrupt every later energy, stiffness or solve on that
    grid, so each hands out read-only arrays.  A new table joins
    `calls` with sample arguments, or this test fails."""
    radial = RadialGrid(0.0, 1.0, 16)
    box = BoxGrid((-1.0,) * 3, (1.0,) * 3, (6,) * 3)
    calls = [
        ("fields.RadialGrid.cell_weights", (radial, 3, -0.6)),
        ("fields.RadialGrid.ball_cell_weights", (radial, 3, -0.6, BallSpec((0.0,), 0.7))),
        ("fields.RadialGrid.ball_dual_weights", (radial, 3, -0.6, BallSpec((0.0,), 0.7))),
        ("fields.radial_face_dual_weights", (radial, 3, -0.6)),
        ("fields.BoxGrid.cell_weights", (box, 3, -0.6)),
        ("fields._ball_coverage_fractions", (box, BallSpec((0.1, 0.0, 0.2), 0.7))),
        ("fields.box_face_dual_weights", (box, -0.6, 1)),
        ("fields.box_face_area_weights", (box, -0.6, 2)),
        ("fields.RadialGrid.stiffness", (radial, 3, -0.6)),
        ("fields.BoxGrid.stiffness", (box, 3, -0.6)),
    ]
    tables = {f"{path.stem}.{name}" for path in SRC
              for name in per_grid_tables(path.read_text())}
    assert tables == {key for key, _ in calls}
    for key, args in calls:
        mod, *names = key.split(".")
        table = functools.reduce(getattr, names,
                                 importlib.import_module(f"cknlab.{mod}"))
        arrays = shared_arrays(table(*args))
        assert arrays, key
        assert not any(a.flags.writeable for a in arrays), key
    # a box grid caches no cell-sized array: its readers use per-axis centres
    for grid, n_props in ((radial, 2), (box, 0)):
        props = [name for name, attr in vars(type(grid)).items()
                 if isinstance(attr, functools.cached_property)]
        arrays = [getattr(grid, name) for name in props]
        assert len(arrays) == n_props, props
        assert not any(a.flags.writeable for a in arrays), props


TESTS = Path(__file__).resolve().parent
WORKER = TESTS.parent / "perfbench" / "worker.py"
# the code outside the package that counts as a run: the benchmark's
# worker and the acceptance criteria (a name that only other tests read is
# machinery no run reaches)
READERS = [WORKER, TESTS / "test_acceptance.py"]


def _reads(nodes) -> set[str]:
    """Every name and attribute that `nodes` load."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def _is_alias(node) -> bool:
    """`name = other` or `name = property(...)`: a method or property."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)):
        return False
    value = node.value
    return isinstance(value, ast.Name) or (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id == "property")


def unreached_public_names(package: dict[str, str],
                           readers: list[str]) -> list[str]:
    """`module.name` of each public top-level function or class of
    `package` (module name -> source), and `module.Class.name` of each
    public method or property of a top-level class (a `def`, or a
    class-level `name = other` or `name = property(...)`), that no reader
    reaches.

    The `readers` and each module's top-level statements are reached.  A
    definition is reached when reached code loads its name, as a name or
    as an attribute of any object (a method also needs its class reached),
    and then the code it runs is reached: a function's decorators,
    defaults and body; a class's bases, decorators and other statements,
    and its dunder methods.  So a name read only inside its own definition,
    or only by code that is not reached, is not reached."""
    defs = []  # (qualified name, name, class, the nodes it runs)
    roots = [ast.parse(source) for source in readers]
    for mod, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{mod}.{node.name}", node.name, None, [node]))
            elif isinstance(node, ast.ClassDef):
                cls = f"{mod}.{node.name}"
                runs = [*node.bases, *node.keywords, *node.decorator_list]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs.append((f"{cls}.{item.name}", item.name, cls,
                                     [item]))
                    elif _is_alias(item):
                        name = item.targets[0].id
                        defs.append((f"{cls}.{name}", name, cls, [item.value]))
                    else:
                        runs.append(item)
                defs.append((cls, node.name, None, runs))
            else:
                roots.append(node)
    read, reached, grew = _reads(roots), set(), True
    while grew:
        grew = False
        for qual, name, cls, nodes in defs:
            if qual in reached or cls is not None and cls not in reached:
                continue
            if name in read or name.startswith("__") and name.endswith("__"):
                reached.add(qual)
                read |= _reads(nodes)
                grew = True
    return sorted(qual for qual, name, _, _ in defs
                  if qual not in reached and not name.startswith("_"))


def test_unreached_public_names_detected():
    package = {"m": ("def used(): return helper()\n"
                     "def helper(): pass\n"
                     "def dead(): return lonely()\n"
                     "def lonely(): pass\n"
                     "def selfish(n): return selfish(n - 1)\n"
                     "class C:\n"
                     "    def __init__(self): self.meth = 1\n"
                     "    def meth(self): pass\n"
                     "    @property\n"
                     "    def prop(self): return self._hidden()\n"
                     "    def _hidden(self): return Hint\n"
                     "    alias = meth\n"
                     "class Hint: pass\n"
                     "class Dead:\n"
                     "    def __call__(self): return lonely()\n"
                     "    def prop(self): pass\n"
                     "TABLE = {'k': C}\n"),
               "n": "from .m import used\nused()\n"}
    readers = ["import m\nm.TABLE['k']().prop\n"]
    assert unreached_public_names(package, readers) == [
        "m.C.alias", "m.C.meth", "m.Dead", "m.Dead.prop", "m.dead",
        "m.lonely", "m.selfish"]


def test_every_public_name_is_reached():
    """Each public function, class, method and property of the package is
    reached from a `ckn-lab run` (the modules' top-level code, `cli.main`
    and the experiment table), from the benchmark's worker or from an
    acceptance criterion.  A lemma probe comes back with the experiment
    that runs it, not as machinery that only its own tests reach."""
    package = {path.stem: path.read_text() for path in SRC}
    readers = [path.read_text() for path in READERS]
    assert unreached_public_names(package, readers) == []


_MISSING = object()


def _package_object(dotted: str):
    """The module, or attribute of a module, that `dotted` names, or
    `_MISSING`."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        parent, _, name = dotted.rpartition(".")
        if not parent:
            return _MISSING
        return getattr(_package_object(parent), name, _MISSING)


def _takes(fn, n_args: int, keywords: list[str]) -> bool:
    """Whether `fn`'s signature binds `n_args` positional arguments and
    `keywords` (True where it has none that `inspect` can read)."""
    try:
        inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))
    except ValueError:
        return True
    except TypeError:
        return False
    return True


def unresolved_package_reads(source: str) -> list[str]:
    """What `source` takes from `cknlab` that the package does not have,
    found without running `source`: each module it imports, each name it
    imports from one, each attribute it loads from an imported module or
    name (`module.attr`, `Class.attr`), and each call of one of these with
    arguments that its signature does not take (counted, and keywords by
    name; a call with `*args` or `**kwargs` is not checked)."""
    tree = ast.parse(source)
    imports = []  # (line, dotted name imported, local name, dotted name bound)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports += [(node.lineno, a.name, a.asname or a.name.split(".")[0],
                         a.name if a.asname else a.name.split(".")[0])
                        for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imports += [(node.lineno, f"{node.module}.{a.name}",
                         a.asname or a.name, f"{node.module}.{a.name}")
                        for a in node.names]
    bound, found = {}, []  # local name -> (dotted name, object)
    for line, dotted, local, target in imports:
        if dotted.split(".")[0] != "cknlab":
            continue
        if _package_object(dotted) is _MISSING:
            found.append((line, dotted))
        else:
            bound[local] = target, _package_object(target)

    def resolve(node):
        """(dotted name, object) of a bound name or an attribute of one."""
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            dotted, obj = bound[node.value.id]
            return f"{dotted}.{node.attr}", getattr(obj, node.attr, _MISSING)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            got = resolve(node)
            if got and got[1] is _MISSING:
                found.append((node.lineno, got[0]))
        elif (isinstance(node, ast.Call) and all(k.arg for k in node.keywords)
              and not any(isinstance(a, ast.Starred) for a in node.args)):
            got = resolve(node.func)
            keywords = [k.arg for k in node.keywords]
            if got and got[1] is not _MISSING and not _takes(
                    got[1], len(node.args), keywords):
                shown = ["_"] * len(node.args) + [f"{k}=_" for k in keywords]
                found.append((node.lineno, f"{got[0]}({', '.join(shown)})"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_unresolved_package_reads_detected():
    src = ("from cknlab import fields, nosuchmodule\n"
           "from cknlab.fields import RadialGrid, NoSuchGrid\n"
           "from cknlab.nowhere import x\n"
           "import cknlab.solver as S\n"
           "import numpy as np\n"
           "fields.cell_weights(RadialGrid(0.0, 1.0, 8), 3, 0.0)\n"
           "fields.no_such_table(np.zeros(3))\n"
           "S.solve(system)\n"
           "S.solve(system, tol=1e-8)\n"
           "RadialGrid.from_nothing\n"
           "RadialGrid(0.0, 1.0, 8).centers\n"
           "S.assemble(*args)\n"
           "np.no_such_numpy_name\n")
    assert unresolved_package_reads(src) == [
        "line 1: cknlab.nosuchmodule", "line 2: cknlab.fields.NoSuchGrid",
        "line 3: cknlab.nowhere.x", "line 7: cknlab.fields.no_such_table",
        "line 9: cknlab.solver.solve(_, tol=_)",
        "line 10: cknlab.fields.RadialGrid.from_nothing"]


def test_benchmark_worker_reads_only_what_the_package_has():
    """The benchmark runs each tree's `perfbench/worker.py` on that tree's
    package, so a name the worker reads that a change deleted or renamed
    fails each operation that reads it: a share of failed operations
    that no other test sees."""
    assert unresolved_package_reads(WORKER.read_text()) == []
