"""Every module of the package uses each name it imports.

A change that removes the last use of an imported name should remove the
import too.  `__init__.py` imports names to re-export them, so it is left
out.
"""

import ast
from pathlib import Path

import pytest

import linkstream

PACKAGE = Path(linkstream.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names a module imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    source = ("import os\nfrom bisect import bisect_left, bisect_right\n"
              "bisect_left([], 0)\n")
    assert unused_imports(source) == ["os", "bisect_right"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []
