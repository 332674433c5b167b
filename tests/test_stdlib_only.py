"""sstkit has no runtime dependencies: every absolute import in the package,
and in the scripts under ``tools/``, names a module of the Python standard
library."""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sstkit"


def absolute_imports(path):
    """(line, top-level module) of each absolute import in one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    assert files
    # the CLI's digests come from the built-in SHA-256 module: _sha2 from
    # Python 3.12 on, _sha256 before, and each interpreter lists only its own
    allowed = set(sys.stdlib_module_names) | {"__future__", "_sha2", "_sha256"}
    foreign = [f"{path.name}:{line}: {module}"
               for path in files for line, module in absolute_imports(path)
               if module not in allowed]
    assert foreign == []
