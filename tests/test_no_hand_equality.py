"""No class of the program writes its own equality: `record.Record` gives
field equality and leaves instances unhashable, and `record.FrozenRecord`
hashes by the fields, so a value class subclasses one of them instead of
defining `__eq__` or `__hash__`, by a method or by an assignment such as
`__hash__ = None`."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "macgap").glob("*.py"))
EQUALITY = {"__eq__", "__hash__"}


def _equality_defs(tree):
    """(line, class, name) of every `__eq__` or `__hash__` that a class body
    in `tree` defines or assigns."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            yield from ((node.lineno, cls.name, name) for name in names if name in EQUALITY)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "record.py"],
                         ids=lambda p: p.name)
def test_no_hand_written_equality(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = list(_equality_defs(tree))
    assert not defs, f"{path.name} defines equality outside record.py: {defs}"


def test_the_guard_sees_them():
    source = ("class A:\n    def __eq__(self, other):\n        return True\n"
              "    __hash__ = None\n"
              "class B:\n    __hash__: object = None\n    def __repr__(self):\n        return ''\n"
              "def __eq__(a, b):\n    return a is b\n"
              "class C:\n    class D:\n        def __hash__(self):\n            return 0\n")
    assert [(cls, name) for _, cls, name in _equality_defs(ast.parse(source))] == [
        ("A", "__eq__"), ("A", "__hash__"), ("B", "__hash__"), ("D", "__hash__")]
