"""Module layering: imports sit at module level, form no cycle, and reach
no private name of another module; the benchmark tracer's bindings exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

import quditgraph

PACKAGE = Path(quditgraph.__file__).parent


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(tree, modules):
    """Package modules a module imports; ``from . import __version__`` names
    the package itself and is left out."""
    deps = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").startswith("quditgraph."):
                deps.add(node.module.split(".")[1])
            elif node.level == 1 and node.module:
                deps.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "quditgraph":
                deps.update(alias.name for alias in node.names if alias.name in modules)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("quditgraph."):
                    deps.add(alias.name.split(".")[1])
    return deps


def test_no_import_inside_function_or_class():
    nested = []
    for name, tree in _trees().items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested.extend(
                    f"{name}.py:{node.lineno}"
                    for node in ast.walk(scope)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert nested == []


def test_module_import_graph_is_acyclic():
    trees = _trees()
    graph = {name: _imported_modules(tree, trees) for name, tree in trees.items()}
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError(f"import cycle: {' -> '.join(path[path.index(name):] + [name])}")
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
    assert graph["serialize"] == set()


def test_no_private_name_imported_from_another_module():
    private = [
        f"{name}.py:{node.lineno} {alias.name}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("quditgraph"))
        for alias in node.names
        if alias.name.startswith("_") and alias.name != "__version__"
    ]
    assert private == []


def test_benchmark_tracer_bindings_resolve():
    """perfbench/child.py wraps each (module, attr) of its SPANS by name in
    trace mode; a binding a refactor drops would fail every traced run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    unresolved = [
        f"{mod}.{attr}"
        for bindings in child.SPANS.values()
        for mod, attr in bindings
        if not callable(getattr(importlib.import_module(f"quditgraph.{mod}"), attr, None))
    ]
    assert child.SPANS and unresolved == []
