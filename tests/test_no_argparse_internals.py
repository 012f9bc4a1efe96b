"""No private argparse name in the program: the command grammar is declared
as data in `macgap.cli` and handed to argparse through its public calls, so
nothing reads the parser's internals, which may change between Python
releases.  Tests may still walk a built parser."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "macgap").glob("*.py"))
# private attributes of argparse parsers that a reading of the grammar would use
PARSER_INTERNALS = {"_actions", "_defaults", "_mutually_exclusive_groups"}


def _private_uses(tree):
    """(line, name) of every private argparse name in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in PARSER_INTERNALS or (
                    node.attr.startswith("_") and isinstance(node.value, ast.Name)
                    and node.value.id == "argparse"):
                yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "argparse":
            yield from ((node.lineno, a.name) for a in node.names if a.name.startswith("_"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_argparse_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    uses = list(_private_uses(tree))
    assert not uses, f"{path.name} uses private argparse names: {uses}"


def test_the_guard_sees_them():
    source = ("import argparse\nfrom argparse import _StoreAction\n"
              "p._actions\np._defaults\np._mutually_exclusive_groups\n"
              "argparse._SubParsersAction\nargparse.Namespace\np.actions\n")
    assert [name for _, name in _private_uses(ast.parse(source))] == [
        "_StoreAction", "_actions", "_defaults", "_mutually_exclusive_groups",
        "_SubParsersAction"]
