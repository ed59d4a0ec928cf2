"""Source hygiene: every name a gicast module or test file imports is used
in it, every name a gicast module exports is bound in it, every private
name it defines is read in it, every name the benchmark reads off the
package exists, and every checked-in benchmark trajectory file is
consistent with its own runs."""

import ast
import json
import statistics
from pathlib import Path

import pytest

import gicast

MODULES = sorted(p for p in Path(gicast.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))
ROOT = Path(__file__).parent.parent
BENCH = sorted((ROOT / "gicbench").glob("*.py"))
TRAJECTORY = sorted(ROOT.glob("BENCH_*.json"))


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


def package_attributes(source: str) -> set[str]:
    """Every dotted attribute chain read off the name `g`, such as
    `load_instance` or `cli.main` for `g.load_instance(...)` and
    `g.cli.main(...)`.  The benchmark passes the imported gicast package
    around under that name."""
    chains = set()
    for node in ast.walk(ast.parse(source)):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id == "g":
            chains.add(".".join(reversed(names)))
    return chains


def test_package_attributes_are_found():
    source = "def f(g, h):\n    g.a(h.b)\n    return g.cli.main\n"
    assert package_attributes(source) == {"a", "cli", "cli.main"}


def test_benchmark_reads_only_names_the_package_has():
    import gicast.cli  # noqa: F401  (the benchmark imports it before any run)

    chains = set().union(*(package_attributes(path.read_text()) for path in BENCH))
    assert {"cli.main", "solve_decode", "iupm_rate"} <= chains

    def resolve(chain: str):
        obj = gicast
        for name in chain.split("."):
            obj = getattr(obj, name, None)
        return obj

    assert sorted(chain for chain in chains if resolve(chain) is None) == []


def test_trajectory_files_are_checked_in():
    assert len(TRAJECTORY) >= 11  # BENCH_10 on


@pytest.mark.parametrize("path", TRAJECTORY, ids=lambda p: p.name)
def test_trajectory_file_matches_its_runs(path):
    """Every end-to-end metric of every workload that BENCHMARK.json names
    has 10 runs a side, whose median and inclusive quartiles are the ones
    recorded (both rounded to 4 places); 3 seeds were traced, and every run
    that records `correct` was correct."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = json.loads(path.read_text())
    assert len(bench["traced"]["seeds"]) == 3
    for workload in spec["workloads"]:
        entry = bench["workloads"][workload["name"]]
        for side, flags in entry.get("correct", {}).items():
            assert flags == [True] * 10, (workload["name"], side)
        for metric in spec["end_to_end"]:
            for side in ("parent", "change"):
                stats = entry["metrics"][metric["name"]][side]
                runs = stats["runs"]
                assert len(runs) == 10, (workload["name"], metric["name"], side)
                q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
                recorded = (stats["median"], stats["q1"], stats["q3"])
                assert recorded == pytest.approx((statistics.median(runs), q1, q3), abs=1e-4)
