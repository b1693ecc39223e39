"""Every imported name is used by the module that imports it, every
private top-level name of the package is read somewhere in the package,
scipy is imported only inside the functions that call it, and start-up
loads only what it needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tmeseg").glob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_unused_and_used_names():
    source = "import os\nimport a.b\nfrom typing import Sequence, Optional\nx: Optional[int] = a.b\n"
    assert _unused_imports(source) == ["os (line 1)", "Sequence (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _private_definitions(source: str) -> dict[str, int]:
    """Private (one leading underscore) functions, classes and constants
    bound at the top level of a module, with their lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def _read_names(source: str) -> set[str]:
    """Names an expression of the module loads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_the_check_sees_unread_private_names():
    source = "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\n"
    defined = _private_definitions(source)
    assert defined == {"_A": 1, "_B": 2, "_f": 4, "_C": 6}
    assert sorted(set(defined) - _read_names(source)) == ["_B", "_C", "_f"]


def test_no_unread_private_names():
    texts = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    read = set().union(*(_read_names(text) for text in texts.values()))
    unread = [
        f"{module}: {name} (line {line})"
        for module, text in texts.items()
        for name, line in _private_definitions(text).items()
        if name not in read
    ]
    assert unread == []


def _scipy_imports(source: str) -> list[tuple[Optional[str], int]]:
    """The enclosing function (None at module level) and line of each import
    of scipy or one of its submodules."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "scipy" for m in modules):
                found.append((func, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else func)

    visit(ast.parse(source), None)
    return found


def test_the_check_sees_scipy_imports():
    source = (
        "import scipy.ndimage\nimport numpy\n"
        "def f():\n    from scipy import ndimage\n"
        "class C:\n    def g(self):\n        if 1:\n            import scipy\n"
    )
    assert _scipy_imports(source) == [(None, 1), ("f", 4), ("g", 8)]


def test_scipy_is_imported_only_by_the_blur():
    # a top-level import would load scipy.ndimage in every command: about
    # 0.4 s and 27 MB of RSS, measured on a 2-CPU host
    found = [
        (path.name, func)
        for path in SOURCES
        for func, _ in _scipy_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == [("raster.py", "gaussian_smooth")]


def _loaded_by(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``statement``."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{statement}\nprint(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stdout.split())


def test_the_container_import_loads_only_its_dependencies():
    # every command and the benchmark's set-up start with it
    loaded = _loaded_by("import tmeseg.container")
    assert {m for m in loaded if m.split(".")[0] == "tmeseg"} == {
        "tmeseg", "tmeseg.config", "tmeseg.container", "tmeseg.data", "tmeseg.raster",
        "tmeseg.taxonomy",
    }


@pytest.mark.parametrize("module", ["tmeseg.container", "tmeseg.cli"])
def test_start_up_loads_no_scipy_thread_pool_or_tiling(module):
    loaded = _loaded_by(f"import {module}")
    heavy = {
        m
        for m in loaded
        if m.split(".")[0] == "scipy"
        or m.startswith(("concurrent.futures", "tmeseg.tiling"))
    }
    assert heavy == set()
