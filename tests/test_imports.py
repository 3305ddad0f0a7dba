"""Every name a ``harmonia`` module imports is used in that module.

This is the unused-import rule of a linter, read off each module's syntax
tree, so a change that drops the last use of a name must drop its import
too.  ``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "harmonia"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_modules_are_found():
    assert {"cli.py", "modelio.py", "sweep.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text("utf-8")) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from .a import b, c as d\n\nprint(b, os)\n")
    assert unused_imports(source) == ["d", "json"]
