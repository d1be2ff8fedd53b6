"""Every module of the package uses each name it imports; a name listed in
the module's ``__all__`` counts as used. Every ``__all__`` entry is defined or
imported at module level. Every private module-level name is used somewhere
in the package outside its own definition."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seplane"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_guard_sees_unused_and_exported_names():
    source = "import math\nfrom os import path, sep\n__all__ = ['sep']\n"
    assert unused_imports(source) == ["math", "path"]
    assert unused_imports("import numpy as np\nx = np.pi\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], f"{path.name} imports names it never uses"


def undefined_exports(source: str) -> list[str]:
    """``__all__`` entries that the module neither defines nor imports at
    module level (a stale entry fails only on ``import *``)."""
    defined, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return sorted(set(exported) - defined)


def test_export_guard_sees_stale_entries():
    source = ("from os import sep\nX = 1\nY: int = 2\ndef f():\n    Z = 3\n"
              "class C:\n    pass\n__all__ = ['sep', 'X', 'Y', 'f', 'C', 'Z', 'Gone']\n")
    assert undefined_exports(source) == ["Gone", "Z"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_export_is_defined(path):
    assert undefined_exports(path.read_text()) == [], \
        f"{path.name} lists names in __all__ that it does not define"


def private_definitions(tree: ast.Module):
    """Module-level private names (dunders aside) with their defining nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def references(tree: ast.AST):
    """(name, node) for every read of a name, attribute or imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    refs = {name: list(references(tree)) for name, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        for name, definition in private_definitions(tree):
            inside = {id(n) for n in ast.walk(definition)}
            if not any(ref == name and (other != module or id(node) not in inside)
                       for other in trees for ref, node in refs[other]):
                dead.append(f"{module}.{name}")
    return sorted(dead)


def test_dead_code_guard_sees_unreferenced_private_names():
    sources = {
        "a": "def _used():\n    return 1\n\n"
             "def _recursive(n):\n    return _recursive(n - 1)\n\n"
             "_CONST = 3\n_LONE = 4\n__version__ = '1'\n",
        "b": "from .a import _used\nimport a\nx = _used() + a._CONST\n",
    }
    assert unreferenced_private(sources) == ["a._LONE", "a._recursive"]


def test_no_unreferenced_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private(sources) == []


def scipy_integrate_imports(source: str) -> list[str]:
    """Names a module takes from scipy.integrate, by any import form."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name.startswith("scipy.integrate")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "scipy.integrate" or node.module.startswith("scipy.integrate."):
                names += [f"{node.module}.{a.name}" for a in node.names]
            elif node.module == "scipy":
                names += [f"scipy.{a.name}" for a in node.names if a.name == "integrate"]
    return sorted(names)


def test_scipy_integrate_guard_sees_every_form():
    source = ("import scipy.integrate\nfrom scipy import integrate, optimize\n"
              "from scipy.integrate import RK45\nfrom scipy.integrate._ivp import rk\n"
              "from scipy.optimize import brentq\n")
    assert scipy_integrate_imports(source) == [
        "scipy.integrate", "scipy.integrate", "scipy.integrate.RK45",
        "scipy.integrate._ivp.rk"]


def test_stepper_is_the_only_stepper():
    # integrate.py owns its Dormand-Prince stepper; no scipy solver beside it
    assert scipy_integrate_imports((PACKAGE / "integrate.py").read_text()) == []


def loaded_after_import(modules: list[str]) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after ``import seplane``."""
    probe = (f"import sys, seplane; print(*sorted(m for m in {modules!r} "
             f"if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={"PYTHONPATH": str(PACKAGE.parent),
                                           "PATH": "/usr/bin:/bin", "OPENBLAS_NUM_THREADS": "1",
                                           "PYTHONDONTWRITEBYTECODE": "1"})
    return proc.stdout.split()


def test_import_does_not_load_scipy_interpolate():
    # the quadrature route reads the stepper's own quartics; scipy.interpolate
    # would add about 50 ms to every start. scipy.optimize (brentq) shows the
    # probe sees what the package does load
    assert loaded_after_import(["scipy.interpolate", "scipy.optimize"]) == ["scipy.optimize"]
