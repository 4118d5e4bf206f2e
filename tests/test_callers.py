"""Every module-level function and class of the package has a caller.

Walks ``src/isingsat/**/*.py`` with ``ast``.  A definition counts as used
when its name appears as a ``Name`` or an ``Attribute`` somewhere in
``src/`` or ``perfbench/*.py`` outside its own definition.  Import lines,
``__all__`` strings and docstrings are not references, and neither are the
tests: an entry point that only tests reach is dead code.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Reached only from tests on purpose: independent oracles that check what
# the pipeline computes.
TEST_ORACLES = {
    "circuit.simulate",  # evaluates a multiplier netlist wire by wire
}


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
    return out


def test_every_definition_has_a_caller():
    package = ROOT / "src" / "isingsat"
    sources = [*sorted((ROOT / "src").rglob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py"))]
    refs: dict[str, list[tuple[Path, int]]] = {}
    trees = {}
    for path in sources:
        trees[path] = tree = ast.parse(path.read_text(), filename=str(path))
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    uncalled = []
    for path in sources:
        if not path.is_relative_to(package):
            continue
        parts = path.relative_to(package).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            qualname = f"{module}.{node.name}"
            outside = [(p, line) for p, line in refs.get(node.name, ())
                       if p != path or not node.lineno <= line <= node.end_lineno]
            if not outside and qualname not in TEST_ORACLES:
                uncalled.append(qualname)
    assert not uncalled, f"reached only from tests: {', '.join(uncalled)}"
