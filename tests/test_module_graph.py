"""The package's import graph is one-way and keeps private names private.

The modules are parsed with `ast`, not imported. A package import is any
`from .x import ...`, `from . import x` or absolute `relaxdiff.x` import;
imports under `if TYPE_CHECKING:` are for type hints only and never run.
"""

import ast
import graphlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "relaxdiff"
TREES = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _is_type_checking(node: ast.AST) -> bool:
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _targets(node: ast.AST) -> list[tuple[str, list[str]]]:
    """(package module, names taken from it) for one import statement."""
    if isinstance(node, ast.ImportFrom):
        parts = node.module.split(".") if node.module else []
        if node.level == 0:
            if parts[:1] != ["relaxdiff"]:
                return []
            parts = parts[1:]
        names = [a.name for a in node.names]
        if not parts:  # `from . import x`: each name is a module
            return [(name, []) for name in names]
        return [(parts[0], names)]
    if isinstance(node, ast.Import):
        return [(a.name.split(".")[1], []) for a in node.names
                if a.name.startswith("relaxdiff.")]
    return []


def package_imports(tree: ast.Module) -> list[tuple[str, list[str], bool]]:
    """(module, names, inside a function) for every package import that runs."""
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if _is_type_checking(child):
                for other in child.orelse:
                    visit(other, in_function)
                continue
            found.extend((module, names, in_function) for module, names in _targets(child))
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, False)
    return found


def test_the_parser_sees_the_package():
    assert {"cli", "diagnostics", "stepper", "fixedpoint", "grid"} <= set(TREES)
    stepper = {module for module, _, _ in package_imports(TREES["stepper"])}
    assert {"diagnostics", "grid", "sparse"} <= stepper


def test_package_imports_form_an_acyclic_graph():
    # function-local imports count too: one would hide a cycle from import time
    graph = {name: {module for module, _, _ in package_imports(tree)} - {name}
             for name, tree in TREES.items()}
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_no_function_body_imports_from_the_package():
    local = [(name, module) for name, tree in TREES.items()
             for module, _, in_function in package_imports(tree) if in_function]
    assert local == []


def test_no_module_uses_another_modules_private_names():
    private = []
    for name, tree in TREES.items():
        imports = package_imports(tree)
        private += [(name, f"{module}.{n}") for module, names, _ in imports if module != name
                    for n in names if n.startswith("_")]
        # `from . import stepper` then `stepper._name`
        modules = {module for module, names, _ in imports if not names}
        private += [(name, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")]
    assert private == []
