"""No float ever enters a verdict path.  The program refuses float and
complex constants, `float(` calls and true division `/` (and `/=`): exact
code divides with `//` or on `Fraction`s.  A site outside `ALLOWED` fails,
and so does one more site than an entry allows; each entry gives its reason.
The scan is by `ast`, so strings and comments do not count."""

import ast
import collections
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "macgap").glob("*.py"))

# (file, enclosing function, kind) -> (sites, why it is not a float in a
# verdict)
ALLOWED = {
    ("hermitian.py", "_rand_pairs", "float constant"): (
        1, "the 0.4 of `uniform() < 0.4`, an rng draw that picks whether a witness "
           "candidate's coordinate gets an imaginary part; the candidate is tested "
           "on integers"),
    ("polyspace.py", "GRat.__truediv__", "division"): (
        2, "a Fraction over a Fraction, the two exact parts of a GRat quotient"),
    ("polyspace.py", "restrict", "division"): (
        1, "a GRat over a GRat, the substituted form's exact coefficients"),
}


def float_sites(tree):
    """(enclosing function, kind) of every float constant, `float(` call and
    true division under `tree`."""
    sites = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Constant) and isinstance(child.value, (float, complex)):
                sites.append((".".join(scope), "float constant"))
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == "float"):
                sites.append((".".join(scope), "float call"))
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                sites.append((".".join(scope), "division"))
            walk(child, inner)

    walk(tree, ())
    return sites


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_outside_the_allowed_sites(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = collections.Counter(float_sites(tree))
    allowed = {(scope, kind): count for (name, scope, kind), (count, _) in ALLOWED.items()
               if name == path.name}
    extra = {site: n for site, n in found.items() if n > allowed.get(site, 0)}
    assert not extra, f"{path.name}: float sites outside ALLOWED: {extra}"


def test_every_allowed_site_exists():
    # an entry whose site is gone would silently allow a new one there
    found = collections.Counter(
        (path.name, *site) for path in SOURCES
        for site in float_sites(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert {key: count for key, (count, _) in ALLOWED.items()} == {
        key: found[key] for key in ALLOWED}


def test_the_scan_sees_each_kind():
    tree = ast.parse("def f(x):\n    x /= 2\n    return float(x) / 3 + 0.5\n")
    assert sorted(float_sites(tree)) == [
        ("f", "division"), ("f", "division"), ("f", "float call"), ("f", "float constant")]
