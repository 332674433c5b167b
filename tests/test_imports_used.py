"""Every name a module imports is used in that module: the package
modules, the tests and the demos.

No linter ships with the toolchain, so this stdlib check keeps a deletion
from leaving a dead import behind.  The package's ``__init__.py`` is left
out, since it imports names to re-export them, and so are ``__future__``
imports.  A name used only inside a quoted annotation counts as unused;
under ``from __future__ import annotations`` no annotation needs the
quotes.
"""

import ast
from pathlib import Path

import pytest

import sstkit

PACKAGE = sorted(p for p in Path(sstkit.__file__).parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")])
# package modules by file name, tests and demos by path from the repo root
MODULES = ([pytest.param(p, id=p.name) for p in PACKAGE]
           + [pytest.param(p, id=p.relative_to(ROOT).as_posix()) for p in SCRIPTS])


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - used) == []
