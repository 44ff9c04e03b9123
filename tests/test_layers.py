"""The package's layering, read from the source of each module."""

import ast
from pathlib import Path

import eulersums


def _package_imports(path: Path) -> set[str]:
    """The package modules that the module at ``path`` imports anywhere in
    its source, function bodies included, by relative or absolute name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:  # from .words import merge, from . import numerics
            names = ["eulersums." + (node.module or alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # from eulersums.words import merge, from eulersums import numerics
            names = [f"{node.module}.{alias.name}" if node.module == "eulersums" else node.module for alias in node.names]
        else:
            continue
        out |= {name.split(".")[1] for name in names if name.startswith("eulersums.")}
    return out


def _reached(graph: dict[str, set[str]], module: str) -> set[str]:
    """Every package module that ``module`` imports, directly or through others."""
    seen, stack = set(), [module]
    while stack:
        for name in graph[stack.pop()] - seen:
            seen.add(name)
            stack.append(name)
    return seen


def test_layering_invariants():
    # words imports nothing from the package; numerics never consults the
    # expansion or reduction engines, not even through another module; and
    # reduction rewrites combinations without expanding sums
    graph = {path.stem: _package_imports(path) for path in Path(eulersums.__file__).parent.glob("*.py")}
    assert {"algebra", "indices", "words"} <= graph["expansion"]  # the parse sees imports where they are
    assert {"numerics", "expansion", "reduction"} <= graph["cli"]
    assert graph["words"] == set()
    assert _reached(graph, "numerics").isdisjoint({"expansion", "reduction"})
    assert "expansion" not in _reached(graph, "reduction")
