"""Source hygiene: every name a gicast module or test file imports is used
in it, every name a gicast module exports is bound in it, and every private
name it defines is read in it."""

import ast
from pathlib import Path

import pytest

import gicast

MODULES = sorted(p for p in Path(gicast.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports (bar `__future__`) that no
    expression in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os, sys\nfrom a import b as c, d\nprint(sys, d)\n") == ["os", "c"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unbound_exports(source: str) -> list[str]:
    """Names listed in the module's `__all__` that no top-level statement
    of it binds: a def, a class, an assignment or an import."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exported = [elt.value for elt in node.value.elts]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return [name for name in exported if name not in bound]


def test_unbound_exports_are_found():
    source = "import os\nfrom a import b\nX: int = 1\nY = Z = 2\ndef f(): pass\nclass C: pass\n"
    source += "__all__ = ['os', 'b', 'X', 'Z', 'f', 'C', 'Gone', 'g']\n"
    assert unbound_exports(source) == ["Gone", "g"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_binds_every_export(path):
    assert unbound_exports(path.read_text()) == []


def unread_private_names(source: str) -> list[str]:
    """`_private` functions, methods and classes, and module-level names,
    that the module defines and no expression in it reads, by name or as
    an attribute.  Dunder names are left out: Python calls them."""
    tree = ast.parse(source)
    defined = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    private = [name for name in defined if name.startswith("_") and not name.endswith("__")]
    return [name for name in private if name not in read]


def test_unread_private_names_are_found():
    source = "_A, B = 1, 2\n_C = _A\ndef _f(): pass\ndef _g(): return _C\nclass _K:\n"
    source += "    def __init__(self): self._m = 1\n    def _n(self): pass\n    def _o(self): pass\n"
    source += "def h(k): return _g() + k._o\n"
    assert unread_private_names(source) == ["_f", "_K", "_n"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_private_name(path):
    assert unread_private_names(path.read_text()) == []
