import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "locvol"


def test_no_assert_guards_in_the_package():
    # `python -O` strips assert statements, so every guard must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def _import_time_nodes(tree):
    """Nodes that run when the module is imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def test_numpy_is_not_imported_at_module_level():
    # importing locvol must not load numpy
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _locvol_imports(nodes):
    """The locvol modules a package module's nodes import."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.partition(".")[0] == "locvol"}
        elif isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(f"locvol.{node.module}")
            else:  # from . import name: a submodule, or a name of the package
                found |= {f"locvol.{a.name}" if (SRC / f"{a.name}.py").is_file()
                          else "locvol" for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "locvol":
            found.add(node.module)
    return found


def test_import_layers():
    # the layering that lets each subcommand load only its family of modules
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    imports = {name: _locvol_imports(ast.walk(tree)) for name, tree in trees.items()}
    assert imports["linalg"] == imports["linprog"] == set()
    # the simplex is the tests' reference only: no package module runs it
    assert [name for name, found in imports.items() if "locvol.linprog" in found] == []
    # a lattice with psef generators reads its cone by double description,
    # loading geometry on demand, so dual graphs and round models never do
    assert "locvol.geometry" in imports["surface"]
    assert "locvol.geometry" not in _locvol_imports(_import_time_nodes(trees["surface"]))
    assert not imports["surface"] & {"locvol.toric", "locvol.monomial"}, imports["surface"]
    polyhedral = {"locvol.geometry", "locvol.toric", "locvol.monomial"}
    assert not imports["cone"] & polyhedral, imports["cone"]
    assert [name for name, found in imports.items() if "locvol.cli" in found] == []


def _names_used(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name


# _staircase_mask is a perfbench/tracing.py target and the tests' dense
# staircase reference until it moves out of the package (ROADMAP items 5, 6)
UNCALLED_PRIVATE = {"monomial._staircase_mask"}


def test_no_uncalled_private_functions():
    # a private module-level function nothing in the package refers to is dead
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _names_used(tree))
    dead = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        and not node.name.startswith("__")
        and uses[node.name] == Counter(_names_used(node))[node.name]
    }
    assert dead == UNCALLED_PRIVATE, dead


def test_benchmark_tracing_targets_resolve():
    # perfbench/tracing.py rebinds these locvol names from outside; a name
    # that no longer resolves turns its metrics null in the benchmark output
    import importlib
    import importlib.util

    path = SRC.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    targets = {f"{module}.{name}" for module, name, *_ in tracing.SPANS + tracing.COUNTERS}
    targets |= {f"locvol.cli.{name}"
                for name in ("_validate", "_emit_json", "_emit_csv", "_RUNNERS")}
    targets |= {t for _, needs in tracing.METRICS.values() for t in needs}
    missing = []
    for target in sorted(targets):
        module, _, name = target.rpartition(".")
        if not hasattr(importlib.import_module(module), name):
            missing.append(target)
    assert not missing, missing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.install_cli(importlib.import_module("locvol.cli"))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
