"""Every private helper of the package is named somewhere in the package
outside its own definition: each module-level function or class, and
each method, whose name starts with one underscore.

No linter ships with the toolchain, so this stdlib check keeps a deletion
from leaving behind a helper that only the tests call.  A helper counts
as named where a module reads it as a name or an attribute, a decorator
or an import's use included; a recursive call inside its own body, a
docstring or a string does not count.  Names are matched across the whole
package, so two helpers with one name count as each other's uses.
"""

import ast
from collections import Counter
from pathlib import Path

import sstkit

PACKAGE = sorted(Path(sstkit.__file__).parent.glob("*.py"))


def named(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a name or an
    attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def private_definitions(tree: ast.Module):
    """Each private module-level function or class, and each private
    method, of ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef)
                        and is_private(item.name))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and is_private(node.name):
            yield node


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_private_helper_is_named_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    uses = sum((named(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items() for node in private_definitions(tree)
        if uses[node.name] == named(node)[node.name]
    ]
    assert unused == []
