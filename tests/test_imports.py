"""No module of the package imports another module's private names, or
reads a private attribute of anything but ``self`` or ``cls``; no module
exports a name it does not define."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "discbraid").glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """`from .mod import _name` and `from discbraid.mod import _name` in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "discbraid":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}")
    return found


def private_attribute_reads(path: Path) -> list[str]:
    """`x._name` reads in one file, where x is not `self` or `cls`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        if not node.attr.startswith("_") or node.attr.startswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_private_attribute_reads_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class A:\n    def f(self, other):\n        return self._x, other._x, other.__class__\n")
    assert private_attribute_reads(probe) == ["line 3: other._x"]


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_imports_across_modules(path):
    assert private_imports(path) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_attribute_reads_across_objects(path):
    assert private_attribute_reads(path) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_exports_exist(path):
    """Every name in a module's ``__all__`` is defined in that module."""
    module = importlib.import_module("discbraid" if path.stem == "__init__" else f"discbraid.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []
