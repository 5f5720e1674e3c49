"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

import rftraffic

SOURCES = sorted(Path(rftraffic.__file__).parent.glob("*.py"))
BENCH_SOURCES = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


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


def _unread_definitions(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """The public top-level functions and classes of ``modules`` that no ``Name``
    or ``Attribute`` node of ``readers`` reads, as ``module.name``."""
    read = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}.{node.name}" for module, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read]


def test_the_package_sources_are_found():
    assert {"cli.py", "detect.py", "export.py"} <= {path.name for path in SOURCES}
    assert {"run.py", "workloads.py"} <= {path.name for path in BENCH_SOURCES}


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


def test_every_public_definition_has_a_reader_outside_the_tests():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in BENCH_SOURCES]
    assert _unread_definitions(modules, [*modules.values(), *bench]) == []


def test_a_definition_only_tests_read_is_reported():
    module = ast.parse("def used():\n"
                       "    pass\n"
                       "def unread():\n"
                       "    return used()\n"
                       "class Read:\n"
                       "    pass\n"
                       "class _Private:\n"
                       "    pass\n")
    reader = ast.parse("import m\n"
                       "m.Read()\n")
    assert _unread_definitions({"m": module}, [module, reader]) == ["m.unread"]
