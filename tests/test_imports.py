"""The package's import structure: every import of one abc_eqf module by
another sits at module level, the graph of those imports has no cycle, and
config, at the bottom of it, imports no other module of the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "abc_eqf"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _package_imports(node: ast.AST) -> list[str]:
    """The abc_eqf modules that the import statement node imports; [] for
    any other statement."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names
                if a.name.startswith("abc_eqf.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        if node.module == "abc_eqf":
            return [a.name for a in node.names]
        if node.module and node.module.startswith("abc_eqf."):
            return [node.module.split(".")[1]]
        return []
    if node.module:
        return [node.module.split(".")[0]]
    return [a.name for a in node.names]       # from . import x


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(), filename=f"{module}.py")


def _module_level_imports(module: str) -> set[str]:
    """Package modules imported by statements outside every function."""
    found = set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        found.update(_package_imports(node))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(_tree(module))
    return found - {"__init__"}


@pytest.mark.parametrize("module", MODULES)
def test_no_package_import_inside_a_function(module):
    inside = []
    for fn in ast.walk(_tree(module)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside += [f"{module}.py:{node.lineno}" for node in ast.walk(fn)
                       if _package_imports(node)]
    assert not inside


def test_package_import_graph_is_acyclic():
    graph = {m: _module_level_imports(m) for m in MODULES}
    unknown = {(m, d) for m, deps in graph.items() for d in deps if d not in graph}
    assert not unknown
    done: set[str] = set()

    def visit(module, path):
        assert module not in path, f"import cycle: {' -> '.join(path + [module])}"
        if module in done:
            return
        for dep in sorted(graph[module]):
            visit(dep, path + [module])
        done.add(module)

    for module in MODULES:
        visit(module, [])


def test_config_imports_no_package_module():
    assert _module_level_imports("config") == set()
    assert not [node for node in ast.walk(_tree("config")) if _package_imports(node)]
