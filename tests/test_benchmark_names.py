"""Every name the benchmark's in-process layer pass reads from the package
exists, so a refactor that moves or drops one fails here and not only in
the benchmark run.

perfbench/layers.py is parsed, not imported: it imports the benchmark's
own modules, which the tests do not put on the path.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
MODULES = ("text_model", "keyset", "cascade", "classical", "analysis", "cli")


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> module, from `a, b = (self.dg[n] for n in ("m1", "m2"))`."""
    aliases = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Tuple)
            and isinstance(node.value, ast.GeneratorExp)
            and isinstance(node.value.generators[0].iter, ast.Tuple)
        ):
            names = [target.id for target in node.targets[0].elts]
            modules = [element.value for element in node.value.generators[0].iter.elts]
            aliases.update(zip(names, modules))
    return aliases


def _module_of(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The module an expression names: a local alias or `self.dg["module"]`."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "dg"
        and isinstance(node.slice, ast.Constant)
    ):
        return node.slice.value
    return None


def _reads(tree: ast.Module) -> set[tuple[str, ...]]:
    """(module, attribute, ...) for each attribute chain read from a module."""
    aliases = _module_aliases(tree)
    reads = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        module = _module_of(node, aliases)
        if chain and module is not None:
            reads.add((module, *chain))
    return reads


def test_every_name_the_layer_pass_reads_exists():
    reads = _reads(ast.parse(LAYERS.read_text(encoding="utf-8")))
    # The parse found the reads of every module the pass times.
    assert {module for module, *_ in reads} == set(MODULES)
    missing = []
    for module, *chain in sorted(reads):
        value = importlib.import_module(f"dgcipher.{module}")
        for attribute in chain:
            if not hasattr(value, attribute):
                missing.append(".".join((module, *chain)))
                break
            value = getattr(value, attribute)
    assert missing == []
