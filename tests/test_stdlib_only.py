"""The library is pure stdlib: every import in src/bnseries is a stdlib module or a sibling."""

import ast
import re
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "bnseries").glob("*.py"))


def _foreign_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                continue  # from .sibling import ...
            names = [node.module or ""] if node.level == 0 else ["." * node.level]
        else:
            continue
        for name in names:
            if name.partition(".")[0] not in sys.stdlib_module_names:
                yield node.lineno, name


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "gf.py", "oracle.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_or_siblings(path):
    assert list(_foreign_imports(path)) == []


def _python_floor():
    """The (major, minor) of requires-python in pyproject.toml."""
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_sources_parse_at_the_declared_python_floor(path):
    ast.parse(path.read_text(), str(path), feature_version=_python_floor())


def test_the_floor_check_refuses_newer_syntax():
    assert _python_floor() == (3, 10)
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # 3.11
    ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=_python_floor())
