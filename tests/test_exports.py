"""Every public name of the package is used, and each module loads only what it imports.

A public module-level name of ``src/fedpact`` (a class, a function or an
assigned constant whose name has no leading underscore) must be used in
code (a bare name, or an attribute of a package module such as
``contracts.grid_search_menu``; a string, a docstring or a same-named
method does not count) by some module of ``src/fedpact``, or by a
``perfbench`` script.  Its own ``class``/``def`` line or assignment does
not count, uses elsewhere in its defining module do.  A name reached only
from the tests fails here.  The package itself re-exports nothing: each
name is imported from its module.  An exception class of the package must
be named by some ``except`` clause in it: one that no caller tells apart
from its base would be that base under another name.
"""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fedpact"
MODULES = ("cli", "config", "contracts", "coverage", "learning", "simulation")


def public_names() -> list[str]:
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names.append(node.name)
            elif isinstance(node, ast.Assign):
                names += [target.id for target in node.targets if isinstance(target, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def used_names() -> set[str]:
    modules = {"fedpact"} | {p.stem for p in PACKAGE.glob("*.py")}
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                used.add(node.attr)
    return used


USED = used_names()


@pytest.mark.parametrize("name", public_names())
def test_export_is_used(name):
    assert name in USED, f"{name} is public but no module or benchmark script uses it"


def _name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def exception_classes() -> list[str]:
    """The package's classes with a base named ``...Error`` or ``...Exception``."""
    return [
        node.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
        and any(_name(base).endswith(("Error", "Exception")) for base in node.bases)
    ]


def caught_names() -> set[str]:
    caught = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {_name(t) for t in types}
    return caught


@pytest.mark.parametrize("name", exception_classes())
def test_exception_class_is_caught(name):
    assert name in caught_names(), f"{name} is an exception class no except clause names"


@pytest.mark.parametrize("module, loaded", [
    ("fedpact", []),
    ("fedpact.contracts", ["contracts"]),
    ("fedpact.coverage", ["coverage"]),
    ("fedpact.cli", list(MODULES)),
], ids=["package", "contracts", "coverage", "cli"])
def test_import_loads_only_its_dependencies(module, loaded):
    script = (
        f"import sys\nimport {module}\n"
        "print(sorted(name for name in sys.modules if name.startswith('fedpact.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=src_env(), check=True)
    assert proc.stdout == f"{[f'fedpact.{module}' for module in loaded]}\n"
