"""The package's modules import each other without a cycle, counting the
imports made inside functions, which Python defers to their first call and
so never reports as circular; and importing one module loads only the
modules it imports, since the package itself imports none."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import drrho

PACKAGE = Path(drrho.__file__).parent


def _imports(path: Path, modules: set[str]) -> dict[str, bool]:
    """The package modules ``path`` imports, each mapped to whether some
    import of it sits inside a function."""
    out: dict[str, bool] = {}

    def visit(node, in_function: bool) -> None:
        targets = []
        if isinstance(node, ast.Import):
            targets = [a.name.split(".")[1] for a in node.names if a.name.startswith("drrho.")]
        elif isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").split(".")[0] == "drrho"):
            parts = (node.module or "").split(".")[node.level == 0 :]
            targets = [parts[0]] if parts and parts[0] else [a.name for a in node.names]
        for target in targets:
            if target in modules:
                out[target] = out.get(target, False) or in_function
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse(path.read_text()), False)
    return out


def import_graph() -> dict[str, dict[str, bool]]:
    paths = {p.stem: p for p in sorted(PACKAGE.glob("*.py"))}
    return {name: _imports(path, set(paths)) for name, path in paths.items()}


def import_cycles(graph: dict[str, dict[str, bool]]) -> list[list[str]]:
    """One cycle per back edge of a depth-first walk, each as the module
    path that closes it, led by a module that imports its successor inside
    a function when the cycle has one."""
    cycles, done, stack = [], set(), []

    def walk(name: str) -> None:
        stack.append(name)
        for target in sorted(graph[name]):
            if target in stack:
                cycle = stack[stack.index(target) :]
                lazy = [i for i, m in enumerate(cycle) if graph[m][cycle[(i + 1) % len(cycle)]]]
                first = lazy[0] if lazy else 0
                cycle = cycle[first:] + cycle[:first]
                cycles.append(cycle + cycle[:1])
            elif target not in done:
                walk(target)
        stack.pop()
        done.add(name)

    for name in sorted(graph):
        if name not in done:
            walk(name)
    return cycles


def test_import_graph_is_found():
    graph = import_graph()
    assert graph["experiments"]["trainer"] is False and graph["contrastive"]["risk"] is False
    assert {"baselines", "container"} <= set(graph["trainer"])  # from . import baselines, container
    assert import_cycles({"a": {"b": False}, "b": {"a": True}}) == [["b", "a", "b"]]


def test_package_imports_have_no_cycle():
    cycles = import_cycles(import_graph())
    assert cycles == [], "import cycles: " + "; ".join(" → ".join(c) for c in cycles)


def _loaded_by(module: str) -> set[str]:
    """The package modules a fresh interpreter holds after ``import module``."""
    code = f"import sys, {module}; print(' '.join(m for m in sys.modules if m.startswith('drrho.')))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    return {m.removeprefix("drrho.") for m in out.split()}


def _closure(graph: dict[str, dict[str, bool]], name: str) -> set[str]:
    seen, todo = set(), [name]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(graph[module])
    return seen


def test_importing_the_package_loads_no_module():
    assert _loaded_by("drrho") == set()


def test_importing_a_module_loads_only_what_it_imports():
    closure = _closure(import_graph(), "risk")
    assert closure == {"risk", "errors"}
    assert _loaded_by("drrho.risk") == closure
