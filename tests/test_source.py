"""Static checks of the package source.  Every name a module imports is used
in that module; ``__init__`` is exempt, since it imports to re-export.  Every
private top-level function, class and constant is referenced somewhere in
the package, so a folded helper cannot linger beside its replacement.  No
module other than ``__init__`` refers to ``mesh`` beyond defining it: radial
functions are sampled by ``PhaseGrid.radial``, and coordinates by ``axes``.
``expressions`` neither imports ``math`` nor reads ``ndim``: its nodes have
one numpy evaluator for scalar and array n.  No module imports ``threading``
or ``concurrent.futures``, or reads ``os.environ`` or ``os.getenv``: the
library runs on one thread and takes no settings from the environment."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "fstarq"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_unused_import_is_caught():
    source = "import math\nfrom typing import Iterable, Mapping\nx: Mapping = math.pi\n"
    assert unused_imports(source) == ["line 2: Iterable"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """'module line N: name' for each private top-level name that no module
    loads, either bare or as an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return [f"{module} line {line}: {name}"
            for module, tree in trees.items()
            for name, line in _private_definitions(tree) if name not in loaded]


def test_unreferenced_private_is_caught():
    sources = {
        "a": "_USED = 1\n_UNUSED = 2\ndef _helper():\n    return _USED\n"
             "class _Spare:\n    pass\n",
        "b": "from a import _helper\nx = _helper()\n",
    }
    assert unreferenced_privates(sources) == ["a line 2: _UNUSED", "a line 5: _Spare"]


def test_every_private_name_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreferenced_privates(sources) == []


def mesh_references(source: str) -> list[int]:
    """Lines that import, call or otherwise load ``mesh``; its definition is none."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if ((isinstance(node, ast.Name) and node.id == "mesh")
                or (isinstance(node, ast.Attribute) and node.attr == "mesh")
                or (isinstance(node, ast.ImportFrom)
                    and any(alias.name == "mesh" for alias in node.names))):
            lines.add(node.lineno)
    return sorted(lines)


def test_mesh_reference_is_caught():
    source = ("from .phasespace import axes, mesh\n"
              "def mesh(grid):\n    return grid\n"
              "Q, P = mesh(g)\n"
              "x = phasespace.mesh\n"
              "meshes = grid.axes()\n")
    assert mesh_references(source) == [1, 4, 5]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_samples_no_full_mesh(path):
    assert mesh_references(path.read_text(encoding="utf-8")) == []


def scalar_branches(source: str) -> list[int]:
    """Lines that import ``math`` or read ``ndim``, the marks of a scalar branch."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if ((isinstance(node, ast.Import) and any(a.name == "math" for a in node.names))
                or (isinstance(node, ast.ImportFrom) and node.module == "math")
                or (isinstance(node, ast.Attribute) and node.attr == "ndim")
                or (isinstance(node, ast.Name) and node.id == "ndim")):
            lines.add(node.lineno)
    return sorted(lines)


def test_scalar_branch_is_caught():
    source = ("import math\n"
              "from math import exp\n"
              "import numpy as np\n"
              "y = np.exp(x) if np.ndim(x) else exp(x)\n"
              "z = x.ndim\n"
              "w = np.sqrt(x)\n")
    assert scalar_branches(source) == [1, 2, 4, 5]


def test_expressions_have_one_numpy_evaluator():
    assert scalar_branches((PACKAGE / "expressions.py").read_text(encoding="utf-8")) == []


THREAD_MODULES = ("threading", "concurrent.futures")
ENVIRONMENT_READS = ("environ", "getenv")


def threads_or_environment(source: str) -> list[int]:
    """Lines that import a thread module or read the environment through ``os``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            if node.module == "os" and any(a.name in ENVIRONMENT_READS for a in node.names):
                lines.add(node.lineno)
        else:
            names = []
        if any(name == m or name.startswith(m + ".") for name in names for m in THREAD_MODULES):
            lines.add(node.lineno)
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.add(node.lineno)
    return sorted(lines)


def test_thread_or_environment_use_is_caught():
    source = ("import threading\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "from concurrent import futures\n"
              "import concurrent.futures as cf\n"
              "import os\n"
              "cap = os.environ.get('FSTAR_THREADS')\n"
              "cap = os.getenv('FSTAR_THREADS')\n"
              "from os import environ\n"
              "n = os.cpu_count()\n"
              "import threadpoolctl\n")
    assert threads_or_environment(source) == [1, 2, 3, 4, 6, 7, 8]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_module_runs_on_one_thread_and_reads_no_environment(path):
    assert threads_or_environment(path.read_text(encoding="utf-8")) == []
