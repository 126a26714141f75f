"""The declared requires-python floor holds for the package and its tests."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _declared_floor():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
                             text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize(
    "path", sorted(str(p.relative_to(ROOT))
                   for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")))
def test_source_parses_at_the_declared_python_floor(path):
    source = (ROOT / path).read_text(encoding="utf-8")
    ast.parse(source, filename=path, feature_version=_declared_floor())
