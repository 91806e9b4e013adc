"""Every import and every parameter in the package source is read.

Neither pyflakes nor ruff is a dependency, so stdlib ``ast`` scans do the
two checks of theirs kept here: an import whose name the module never
reads and does not export, and a parameter of a function or lambda that
its body never reads.
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


def _unread_parameters(source):
    """(line, function, name) of each parameter of a function or lambda
    that its body, nested scopes included, never reads.  ``self``, ``cls``
    and names starting with ``_`` are exempt, the last for a callback
    whose signature its caller fixes."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [(node.lineno, name, param) for param in params
                   if param not in read | {"self", "cls"}
                   and not param.startswith("_")]
    return sorted(unread)


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


def test_scan_finds_an_unread_parameter():
    source = ("def f(a, b, *args, c, _d, **kw):\n"
              "    def g():\n        return a + c\n    return g, kw\n"
              "class C:\n    def m(self, x, cls=None):\n        x = 1\n"
              "on = lambda last: True\noff = lambda _last: False\n")
    assert _unread_parameters(source) == [
        (1, "f", "args"), (1, "f", "b"), (6, "m", "x"),
        (8, "<lambda>", "last")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert _unread_parameters(path.read_text(encoding="utf-8")) == []
