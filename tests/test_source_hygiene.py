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


def _loaded_names(readers: list[ast.Module]) -> set[str]:
    """The names that a ``Name`` or ``Attribute`` node of ``readers`` loads."""
    read = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _unread_definitions(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """The public top-level functions and classes of ``modules`` that no ``Name``
    or ``Attribute`` load of ``readers`` reads, as ``module.name``."""
    read = _loaded_names(readers)
    return [f"{module}.{node.name}" for module, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read]


def _unread_members(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """The public methods and properties of the classes of ``modules`` that no
    ``Attribute`` node of ``readers`` reads, as ``module.Class.name``; fields
    are not checked."""
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return [f"{module}.{cls.name}.{node.name}" for module, tree in modules.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and node.name not in read]


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether a class is a ``@dataclass`` (called or not) or a ``NamedTuple``."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return (any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
            or any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases))


def _unread_fields(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """The public fields of the dataclasses and NamedTuples of ``modules`` that no
    ``Attribute`` load of ``readers`` reads, as ``module.Class.name``; storing a
    field is not reading it."""
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{module}.{cls.name}.{node.target.id}" for module, tree in modules.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef) and _is_record(cls)
            for node in cls.body if isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and not node.target.id.startswith("_") and node.target.id not in read]


def _unread_constants(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """The public module-level names that ``modules`` assign and that no ``Name``
    or ``Attribute`` load of ``readers`` reads, as ``module.name``."""
    read = _loaded_names(readers)
    assigned = [(module, target.id) for module, tree in modules.items() for node in tree.body
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target] if isinstance(node, ast.AnnAssign) else [])
                if isinstance(target, ast.Name)]
    return [f"{module}.{name}" for module, name in assigned
            if not name.startswith("_") and name not in read]


def _package_and_readers() -> tuple[dict[str, ast.Module], list[ast.Module]]:
    """The parsed ``src/`` modules by name, and every module that may read them
    outside the tests: those modules and perfbench's."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in BENCH_SOURCES]
    return modules, [*modules.values(), *bench]


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
    assert _unread_definitions(*_package_and_readers()) == []


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


def test_every_public_method_has_a_reader_outside_the_tests():
    assert _unread_members(*_package_and_readers()) == []


def test_a_method_only_tests_read_is_reported():
    module = ast.parse("class A:\n"
                       "    size: int\n"
                       "    def __init__(self):\n"
                       "        self.size = 1\n"
                       "    @property\n"
                       "    def used(self):\n"
                       "        return self.size\n"
                       "    @property\n"
                       "    def unread(self):\n"
                       "        return 2\n"
                       "    def called(self):\n"
                       "        return self.used\n"
                       "    def _private(self):\n"
                       "        pass\n"
                       "def unread_too(a):\n"
                       "    return a\n")
    # a bare name that equals a method's does not read the method
    reader = ast.parse("import m\n"
                       "m.A().called()\n"
                       "unread_too = unread = 3\n")
    assert _unread_members({"m": module}, [module, reader]) == ["m.A.unread"]


def test_every_record_field_has_a_reader_outside_the_tests():
    assert _unread_fields(*_package_and_readers()) == []


def test_a_field_only_tests_read_is_reported():
    module = ast.parse("from dataclasses import dataclass\n"
                       "from typing import NamedTuple\n"
                       "@dataclass(frozen=True)\n"
                       "class A:\n"
                       "    used: int\n"
                       "    stored: bool = False\n"
                       "    _private: int = 0\n"
                       "@dataclass\n"
                       "class B:\n"
                       "    size: int\n"
                       "class Pair(NamedTuple):\n"
                       "    left: int\n"
                       "    right: int\n"
                       "class Plain:\n"
                       "    note: str\n"
                       "def f(a, b, pair):\n"
                       "    a.stored = True\n"
                       "    return a.used + b.size + pair.left\n")
    # a bare name or a keyword that equals a field's name does not read the field
    reader = ast.parse("import m\n"
                       "right = m.Pair(left=1, right=2)\n"
                       "print(right)\n")
    assert _unread_fields({"m": module}, [module, reader]) == ["m.A.stored", "m.Pair.right"]


def test_every_public_constant_has_a_reader_outside_the_tests():
    assert _unread_constants(*_package_and_readers()) == []


def test_a_constant_only_tests_read_is_reported():
    module = ast.parse("USED = 1\n"
                       "SHARED: int = 2\n"
                       "UNREAD = 3\n"
                       "TYPED_UNREAD: int = 4\n"
                       "_PRIVATE = 5\n"
                       "STORED = 6\n"
                       "def f():\n"
                       "    return USED\n")
    # the store in a second assignment is no read; an attribute load is
    reader = ast.parse("import m\n"
                       "m.STORED = 7\n"
                       "print(m.SHARED)\n")
    assert _unread_constants({"m": module}, [module, reader]) == [
        "m.UNREAD", "m.TYPED_UNREAD", "m.STORED"]
