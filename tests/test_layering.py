"""The modules of the package import each other as a stack: no cycle.

Every ``from .x import ...`` and ``from . import x`` line counts, at module
level, inside functions and under ``if TYPE_CHECKING``, so a module may only
name what sits below it.  ``__init__`` and ``__main__`` are left out: they
import the whole package by design.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reinhardt"


def import_graph() -> dict[str, set[str]]:
    """Module name -> the package modules its relative imports name."""
    modules = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__")}
    graph = {}
    for name, path in modules.items():
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                named = [node.module] if node.module else [a.name for a in node.names]
                targets.update(m for m in named if m in modules)
        graph[name] = targets
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of ``graph`` as a closed path of module names, or []."""
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(node: str) -> list[str]:
        state[node] = 1
        path.append(node)
        for succ in sorted(graph[node]):
            if state.get(succ) == 1:
                return path[path.index(succ):] + [succ]
            if succ not in state and (cycle := visit(succ)):
                return cycle
        state[node] = 2
        path.pop()
        return []

    for node in sorted(graph):
        if node not in state and (cycle := visit(node)):
            return cycle
    return []


def test_the_graph_is_read_from_every_kind_of_import_line():
    graph = import_graph()
    assert "cones" in graph["domain"]  # module level
    assert "norms" in graph["cli"] and "montecarlo" in graph["cli"]  # inside functions
    assert "linalg" in graph["cones"]  # from . import linalg
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) == []


def test_package_imports_form_a_stack():
    assert find_cycle(import_graph()) == []


def test_the_log_polyhedron_sits_below_the_specs():
    graph = import_graph()
    assert "domain" not in graph["cones"]
    assert "cones" in graph["domain"]
