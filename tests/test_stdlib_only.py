"""The runtime depends on the standard library only: every module that
``src/ietkit`` imports at top level names a standard-library package.  And
every module parses under the grammar of the oldest Python that
pyproject.toml allows."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "ietkit").glob("*.py"))


def imported_packages(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.partition(".")[0] for name in names}


def test_the_package_has_sources():
    assert len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_standard_library(path):
    assert imported_packages(path) <= sys.stdlib_module_names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_sources_parse_as_python_3_10(path):
    """pyproject.toml promises Python >= 3.10; this checks the grammar only,
    not which library calls each version has."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
