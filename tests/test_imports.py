"""No module of the package imports a name it never uses, or asserts.

An import bound inside a function must be read in that function; one at
module level must be read somewhere in the module. Annotations count as
reads, so names imported for annotations only pass. Validation raises
instead of asserting, because `python -O` strips assert statements.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import dgcipher

SOURCES = sorted(pathlib.Path(dgcipher.__file__).parent.glob("*.py"))


def _unused_imports(scope: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each name an import in scope binds and scope never reads."""
    bound: dict[str, int] = {}
    unused: list[tuple[int, str]] = []
    pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            unused += _unused_imports(node)
            continue
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.partition(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        pending += ast.iter_child_nodes(node)
    read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
    return unused + [(line, name) for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(source: pathlib.Path):
    assert sorted(_unused_imports(ast.parse(source.read_text(encoding="utf-8")))) == []


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_module_has_no_assert_statement(source: pathlib.Path):
    tree = ast.parse(source.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
