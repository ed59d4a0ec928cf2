"""Source hygiene: every name a gicast module imports is used in it."""

import ast
from pathlib import Path

import pytest

import gicast

MODULES = sorted(p for p in Path(gicast.__file__).parent.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
