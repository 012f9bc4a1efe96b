"""The sources must parse under the oldest Python that pyproject.toml
declares in `requires-python`."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "macgap").glob("*.py"))


def declared_minimum() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text)
    assert match, "pyproject.toml declares no requires-python lower bound"
    return int(match.group(1)), int(match.group(2))


def test_minimum_is_declared():
    assert declared_minimum() == (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_at_declared_minimum(path):
    ast.parse(
        path.read_text(encoding="utf-8"),
        filename=str(path),
        feature_version=declared_minimum(),
    )
