"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wdreps"


def _imported_modules(tree):
    """Top-level names of the absolute imports in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = {(path.name, name)
               for path in sources
               for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
               if name not in sys.stdlib_module_names}
    assert not foreign
