"""Every name the package exports is used by the package or the benchmark.

A name that ``fedpact/__init__.py`` re-exports must be used in code (a
bare name, or an attribute of a package module such as
``contracts.grid_search_menu``; a string, a docstring or a same-named
method does not count) by some module of ``src/fedpact`` other than
``__init__.py``, or by a ``perfbench`` script.  Its own ``class``/``def``
line does not count, uses elsewhere in its defining module do.  An
export reached only from the tests fails here.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fedpact"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def used_names() -> set[str]:
    modules = {"fedpact"} | {p.stem for p in PACKAGE.glob("*.py")}
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                used.add(node.attr)
    return used


USED = used_names()


@pytest.mark.parametrize("name", exported_names())
def test_export_is_used(name):
    assert name in USED, f"fedpact.{name} is exported but no module or benchmark script uses it"
