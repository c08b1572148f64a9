"""Module layering: imports sit at module level, form no cycle, and reach
no private name of another module; every exported name exists; the benchmark
tracer's bindings exist."""

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


def test_exports_resolve_and_package_reexports_are_listed():
    """Every name in a module's ``__all__`` exists, and every name the package
    re-exports from a module is in that module's ``__all__``."""
    trees, stale, unlisted = _trees(), [], []
    for name in trees:
        module = importlib.import_module("quditgraph" if name == "__init__" else f"quditgraph.{name}")
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    for node in trees["__init__"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            listed = importlib.import_module(f"quditgraph.{node.module}").__all__
            unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    assert stale == [] and unlisted == []


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


# The six-pair order of a graph's weights and the cut tables, in each spelling
# the package has had: the 2|2 cuts by vertex, and the vertex rows and the
# cut blocks by weight column.
PAIR_ORDER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
CUT_TABLES = (((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)),
              ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)),
              ((1, 4, 2, 3), (0, 5, 2, 3), (0, 5, 1, 4)))


def _as_tuples(value):
    return tuple(map(_as_tuples, value)) if isinstance(value, (tuple, list)) else value


def test_pair_order_and_cut_table_are_spelled_once():
    """The pair order is written out only as ``graphs.PAIRS`` and the cut rule's
    table only as ``measures.CUTS``: every other table derives from them, so
    the rule cannot be re-spelled beside the one kernel, ``cut_ranks``."""
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.List)):
                try:
                    value = _as_tuples(ast.literal_eval(node))
                except ValueError:
                    continue
                if value == PAIR_ORDER or value in CUT_TABLES:
                    found.append((name, value))
    assert found == [("graphs", PAIR_ORDER), ("measures", CUT_TABLES[0])]


# The dense residue of the package: the functions perfbench/child.py's SPANS
# wraps by name (steering.project, states.build_state and
# family_reduced_state, measures.purity_profile, classify.profile_class) and
# what they call, by module. No command reaches any of it; it shrinks as
# those spans leave SPANS. Every other float route lives in tests/dense.py.
DENSE_RESIDUE = {
    "pauli": {"omega_powers"},
    "states": {"NORM_TOL", "StateVector", "build_state", "apply_local_fourier",
               "family_reduced_state"},
    "measures": {"PAIR_TOL", "PurityProfile", "partial_trace", "purity", "purity_profile"},
    "steering": {"PROB_TOL", "ZeroProbabilityError", "MeasurementEvent", "_line",
                 "basis_eigenvalue", "mub_eigenstate", "project"},
    "classify": {"profile_class"},
}
_FLOAT_ATTRIBUTES = {("np", "exp"), ("np", "sqrt"), ("np", "linalg")}


def _top_level_name(node) -> str | None:
    """The name a module-level statement defines, or None."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        return getattr(node.targets[0], "id", None)
    return None


def _is_float_use(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id.endswith("_TOL") or node.id == "complex"
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in _FLOAT_ATTRIBUTES)


def test_float_routes_lie_in_the_named_dense_residue():
    """Every *_TOL name, ``complex`` and ``np.exp``, ``np.sqrt`` or
    ``np.linalg`` in the package sits in a definition of DENSE_RESIDUE, a
    *_TOL import names a residue constant of its source module, and every
    residue name still exists."""
    outside = []
    for name, tree in _trees().items():
        for statement in tree.body:
            if isinstance(statement, ast.ImportFrom):
                source = (statement.module or "").split(".")[-1]
                outside += [f"{name}.py:{statement.lineno} imports {source}.{alias.name}"
                            for alias in statement.names if alias.name.endswith("_TOL")
                            and alias.name not in DENSE_RESIDUE.get(source, ())]
                continue
            if _top_level_name(statement) in DENSE_RESIDUE.get(name, ()):
                continue
            outside += [f"{name}.py:{node.lineno}" for node in ast.walk(statement)
                        if _is_float_use(node)]
    missing = [f"{module}.{attr}" for module, attrs in DENSE_RESIDUE.items() for attr in attrs
               if not hasattr(importlib.import_module(f"quditgraph.{module}"), attr)]
    assert outside == [] and missing == []
