"""No module of the package imports a name it never uses, or asserts, and
the package reads every private name it defines at module level.

An import bound inside a function must be read in that function; one at
module level must be read somewhere in the module. Annotations count as
reads, so names imported for annotations only pass. A private name bound
at module level must be read in some module of the package, so a table
or helper left behind by a rewrite fails. Validation raises instead of
asserting, because `python -O` strips assert statements.
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


def _private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each private name the module binds at its top level.

    Dunder names are not private: the interpreter or outside tools read
    them, as with the PEP 562 hooks __getattr__ and __dir__ and __version__.
    """
    bound: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [(node.lineno, target.id) for target in targets if isinstance(target, ast.Name)]
    return [(line, name) for line, name in bound if name.startswith("_") and not name.endswith("__")]


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, reads as an attribute or imports from another module."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_package_reads_every_private_name_it_defines():
    trees = {source.name: ast.parse(source.read_text(encoding="utf-8")) for source in SOURCES}
    read = set().union(*map(_read_names, trees.values()))
    unread = [
        (module, line, name)
        for module, tree in trees.items()
        for line, name in _private_definitions(tree)
        if name not in read
    ]
    assert unread == []
