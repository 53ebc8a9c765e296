"""The cross-check registry: references.py is the one home of the second
routes, every ROUTES row names an engine function and a known pool, and
every route runs in some test.  Also the tests' own import lint: no test
module imports a name it never uses."""

from __future__ import annotations

import ast
import pkgutil
from pathlib import Path

from references import POOL_SIZES, ROUTES

TREES = {p.name: ast.parse(p.read_text()) for p in Path(__file__).parent.glob("*.py")}
TESTS = [name for name in TREES if name.startswith("test_")]


def nodes(kind, names=tuple(TREES)):
    """(module name, node) for every node of that kind in the modules."""
    return [(n, node) for n in names for node in ast.walk(TREES[n]) if isinstance(node, kind)]


def test_no_test_module_imports_another():
    imported = [(name, node.module or "") for name, node in nodes(ast.ImportFrom)]
    imported += [(name, a.name) for name, node in nodes(ast.Import) for a in node.names]
    assert [(name, m) for name, m in imported if m.startswith("test_")] == []


def test_every_reference_route_is_defined_once_in_references_and_registered():
    defined = [
        (name, f.name) for name, f in nodes(ast.FunctionDef) if f.name.startswith("reference_")
    ]
    assert sorted(defined) == sorted(("references.py", route.__name__) for route in ROUTES)


def test_every_target_resolves_and_every_pool_is_sized():
    for route, (target, pool) in ROUTES.items():
        assert callable(pkgutil.resolve_name(target)), (route.__name__, target)
        assert pool is None or pool in POOL_SIZES, route.__name__


def test_every_route_runs_in_a_test():
    # named by a test module other than as the argument of pool_of
    calls = [c for _, c in nodes(ast.Call, TESTS) if getattr(c.func, "id", "") == "pool_of"]
    pooled = {id(arg) for c in calls for arg in c.args}
    named = {node.id for _, node in nodes(ast.Name, TESTS) if id(node) not in pooled}
    assert sorted(route.__name__ for route in ROUTES if route.__name__ not in named) == []


def test_no_test_module_imports_a_name_it_never_uses():
    used = {(name, node.id) for name, node in nodes(ast.Name)}
    bound = [
        (name, (alias.asname or alias.name).split(".")[0])
        for name, node in nodes((ast.Import, ast.ImportFrom))
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    assert [b for b in bound if b not in used] == []
