"""Every import in the package source is read somewhere in its module.

Neither pyflakes nor ruff is a dependency, so a stdlib ``ast`` scan does
the one check of theirs kept here: an import whose name the module never
reads and does not export.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _unused_imports(source):
    """(line, name) of each imported name that the module never reads and
    does not export.  A literal ``__all__`` exports the names it lists; a
    computed one, as in a package ``__init__``, every public name."""
    tree = ast.parse(source)
    imported, exported, computed = {}, set(), False
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                exported |= {elt.value for elt in node.value.elts}
            else:
                computed = True
    if computed:
        exported |= {name for name in imported if not name.startswith("_")}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read | exported)


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport sys\nfrom math import pi as tau, e\n"
              "__all__ = ['e']\nsys.exit(tau)\n")
    assert _unused_imports(source) == [(2, "os")]


def test_package_modules_found():
    assert any(path.name == "locc.py" for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
