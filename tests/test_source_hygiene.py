"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

import rftraffic

SOURCES = sorted(Path(rftraffic.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that no ``Name`` node reads; ``__future__`` is exempt."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_the_package_sources_are_found():
    assert {"cli.py", "detect.py", "export.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_reported():
    tree = ast.parse("import os\n"
                     "from dataclasses import dataclass, replace\n"
                     "@dataclass\n"
                     "class A:\n"
                     "    pass\n")
    assert _unused_imports(tree) == ["line 1: os", "line 2: replace"]
