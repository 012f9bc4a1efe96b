"""No code in src/macgap that only tests call, and no import that nothing
uses.

Every top-level definition of the package (function, class or assigned
name) must be reached from one of four roots: `cli.main`, the names of
`macgap.__all__`, the names that tests/test_acceptance.py imports from the
package, and the attributes that bench/layers.py traces (`TRACED`, loaded,
never changed).  A definition reaches every name that its body, decorators,
defaults and annotations mention, and a module's other top-level
statements, which run on import, reach what they mention.  Methods are
outside the walk: a class of `macgap.__all__` is public API with every
method it has, such as `GRat.is_real` and `SignedMap.evaluate`, whether
or not the package itself calls them.  A reference that the tests compare
a fast path against lives in tests/reference_table.py, and a test-only
helper in the test module that uses it.  Both checks read source text, so
each self-test injects a fault into a copy of it.
"""

import ast
import pathlib

import pytest

import macgap
from test_bench_smoke import load_bench

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "macgap"
SOURCES = sorted(PACKAGE.glob("*.py"))

# "module.name" of a definition kept although no root reaches it -> why
ALLOWED: dict[str, str] = {}


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _defined(node):
    """The names a top-level statement defines; module dunders such as
    `__all__` and `__version__` are metadata, not definitions."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        return []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def unreached(sources, roots):
    """Sorted "module.name" of every top-level definition of `sources`
    (module name -> text) that no root (module, name) reaches."""
    defs, imported, roots = {}, {}, list(roots)
    for mod, text in sources.items():
        imported[mod] = {}
        for node in ast.parse(text).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported[mod].update((a.asname or a.name, (node.module, a.name))
                                     for a in node.names)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            elif names := _defined(node):
                defs.update(((mod, name), node) for name in names)
            else:
                roots += [(mod, name) for name in _names(node)]

    def resolve(mod, name):
        while (mod, name) not in defs and name in imported.get(mod, {}):
            mod, name = imported[mod][name]
        return mod, name

    seen, todo = set(), [resolve(*root) for root in roots]
    while todo:
        key = todo.pop()
        if key in defs and key not in seen:
            seen.add(key)
            todo += [resolve(key[0], name) for name in _names(defs[key])]
    return sorted(f"{mod}.{name}" for mod, name in defs.keys() - seen)


def unused_imports(text):
    """Sorted names that a module-level import of `text` binds and nothing
    else in it mentions; a name listed in `__all__` counts as used."""
    tree = ast.parse(text)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    exported = {n.value for node in tree.body if isinstance(node, ast.Assign)
                and "__all__" in _names(node.targets[0])
                for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    return sorted(bound - _names(tree) - exported)


@pytest.fixture(scope="module")
def roots():
    """The four roots as (module, name) pairs of src/macgap."""
    out = [("cli", "main")]
    out += [("__init__", name) for name in macgap.__all__]
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "macgap":
            mod = node.module.partition(".")[2] or "__init__"
            out += [(mod, a.name) for a in node.names]
    with pytest.MonkeyPatch.context() as mp:
        traced = load_bench("layers", mp).TRACED
    out += [(modname.removeprefix("macgap."), attr.split(".")[0])
            for modname, attr, _, _ in traced]
    return out


def _sources():
    return {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}


def test_every_definition_is_reached(roots):
    # an allowed entry that a root now reaches is stale, and fails too
    assert unreached(_sources(), roots) == sorted(ALLOWED)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_the_walk_sees_an_unused_function(roots):
    sources = _sources()
    # `_orphan` calls a reached function, `_lonely` is called only by it,
    # and `_called` is reached through `parse_map`
    sources["hermitian"] = sources["hermitian"].replace(
        "    lines = enumerate(text.splitlines(), 1)\n",
        "    _called()\n    lines = enumerate(text.splitlines(), 1)\n") + (
        "\n\ndef _orphan(f):\n    return _lonely(parse_map(f))\n"
        "\n\ndef _lonely(f):\n    return f\n"
        "\n\ndef _called():\n    return None\n"
        "\n\n_UNUSED_LIMIT = 3\n")
    assert unreached(sources, roots) == [
        "hermitian._UNUSED_LIMIT", "hermitian._lonely", "hermitian._orphan"]


def test_the_import_check_sees_an_unused_import():
    text = (PACKAGE / "polyspace.py").read_text(encoding="utf-8")
    head, sep, tail = text.partition("from .record import")
    injected = head + "import json\nfrom .gaussint import pairing as _pairs\n" + sep + tail
    assert unused_imports(injected) == ["_pairs", "json"]
    # a name that the module only re-exports through `__all__` is used
    assert unused_imports("from .x import a, b\n__all__ = ['a']\n") == ["b"]
