"""Every import, parameter and private top-level name in the package
source is read, every exported name is bound, and numpy is imported
only inside the functions that use it.

Neither pyflakes nor ruff is a dependency, so stdlib ``ast`` scans do the
checks of theirs kept here: an import whose name the module never reads
and does not export, a parameter of a function or lambda that its body
never reads, a module-private function, class or constant that no
module of the package reads, and a name in a literal ``__all__`` that
its module does not bind.  A fifth scan keeps numpy off the import of
the package: no numpy import runs when a module is imported, and code
that reads ``np`` sits in a function, or inside one, that imports it.
A sixth refuses an ``indent=`` keyword in any call: json renders
indented text only in pure Python, so ``io.dumps`` lays out its indent
itself around the C encoder.
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


def _unread_privates(sources):
    """(module, line, name) of each top-level function, class or constant
    whose name starts with one ``_`` (dunders are exempt) that no module
    in ``sources``, a dict of module name -> source, reads as a name or
    as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                read.add(sub.attr)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_scan_finds_an_unread_private():
    sources = {
        "a.py": ("_USED = 1\n_UNUSED: int = 2\n__version__ = '1'\n"
                 "def _helper():\n    return _USED\n"
                 "class _Box:\n    pass\ndef _called():\n    pass\n"),
        "b.py": "import a\nfrom a import _called\n_called(a._helper)\n"}
    assert _unread_privates(sources) == [("a.py", 2, "_UNUSED"),
                                         ("a.py", 6, "_Box")]


def test_no_unread_privates():
    assert _unread_privates({
        str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
        for path in MODULES}) == []


def _unbound_exports(source):
    """(line, name) of each name a literal ``__all__`` lists that the
    module does not bind at its top level, by a def, class, assignment
    or import."""
    bound, listed = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = {sub.id for t in targets for sub in ast.walk(t)
                     if isinstance(sub, ast.Name)}
            bound |= names
            if "__all__" in names and isinstance(node.value,
                                                 (ast.List, ast.Tuple)):
                listed += [(node.lineno, elt.value)
                           for elt in node.value.elts]
    return sorted(entry for entry in listed if entry[1] not in bound)


def test_scan_finds_an_unbound_export():
    source = ("import os.path\nfrom math import pi as tau\n"
              "X, Y = 1, 2\nZ: int = 3\n"
              "def f():\n    W = 4\nclass C:\n    V = 5\n"
              "__all__ = ['os', 'tau', 'pi', 'X', 'Y', 'Z', 'f', 'C',\n"
              "           'W', 'V', 'gone']\n")
    assert _unbound_exports(source) == [
        (9, "V"), (9, "W"), (9, "gone"), (9, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unbound_exports(path):
    assert _unbound_exports(path.read_text(encoding="utf-8")) == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_scope(node):
    """The nodes of ``node``'s body that run in its own scope: nested
    functions, lambdas and classes are not entered."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (*_SCOPES, ast.ClassDef)):
            yield from _own_scope(child)


def _imported_in(func):
    """Names a function or lambda binds by an import in its own scope."""
    return {alias.asname or alias.name.split(".")[0]
            for node in _own_scope(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def _eager_numpy(source):
    """(line, what) of each numpy import that runs when the module is
    imported, that is outside every function and outside an
    ``if TYPE_CHECKING:`` block, and of each read of ``np``, annotations
    aside, in code whose function, and every enclosing one, imports no
    ``np``."""
    tree = ast.parse(source)
    annotations = {id(sub) for node in ast.walk(tree) for ann in (
        getattr(node, "annotation", None), getattr(node, "returns", None))
        if ann is not None for sub in ast.walk(ann)}
    found = []

    def visit(node, bound, guarded):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and bound is None and not guarded):
            modules = ([alias.name for alias in node.names]
                       if isinstance(node, ast.Import) else [node.module or ""])
            found.extend((node.lineno, "import " + module) for module in modules
                         if module.split(".")[0] == "numpy")
        elif (isinstance(node, ast.Name) and node.id == "np"
              and isinstance(node.ctx, ast.Load)
              and id(node) not in annotations and "np" not in (bound or ())):
            found.append((node.lineno, "np"))
        if isinstance(node, _SCOPES):
            bound = (bound or set()) | _imported_in(node)
        checking = isinstance(node, ast.If) and "TYPE_CHECKING" in (
            getattr(node.test, "id", None), getattr(node.test, "attr", None))
        for child in ast.iter_child_nodes(node):
            visit(child, bound,
                  guarded or (checking and any(child is stmt
                                               for stmt in node.body)))

    visit(tree, None, False)
    return sorted(found)


def test_scan_finds_eager_numpy():
    source = ("from typing import TYPE_CHECKING\n"
              "import numpy as np\nfrom numpy.linalg import norm\n"
              "if TYPE_CHECKING:\n    import numpy as np\n"
              "def f(a: np.ndarray) -> np.ndarray:\n"
              "    import numpy as np\n"
              "    def g(b: np.ndarray):\n        return np.eye(2)\n"
              "    return g, lambda: np.zeros(1)\n"
              "def h():\n    return np.ones(1)\n"
              "class C:\n    import numpy\n"
              "    def m(self):\n        return np.pi\n"
              "x: np.ndarray = np.zeros(1)\n")
    assert _eager_numpy(source) == [
        (2, "import numpy"), (3, "import numpy.linalg"), (12, "np"),
        (14, "import numpy"), (16, "np"), (17, "np")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_imported_only_where_used(path):
    assert _eager_numpy(path.read_text(encoding="utf-8")) == []


def _indent_calls(source):
    """(line, call) of each call that passes an ``indent=`` keyword."""
    return sorted((node.lineno, ast.unparse(node.func))
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and any(kw.arg == "indent" for kw in node.keywords))


def test_scan_finds_an_indent_keyword():
    source = ("import json\njson.dumps({}, sort_keys=True)\n"
              "text = json.dumps(\n    [], indent=2)\n"
              "def f(indent=None):\n"
              "    return json.JSONEncoder(indent=indent)\n"
              "f(indent=4)\n")
    assert _indent_calls(source) == [
        (3, "json.dumps"), (6, "json.JSONEncoder"), (7, "f")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_indent_keyword(path):
    assert _indent_calls(path.read_text(encoding="utf-8")) == []
