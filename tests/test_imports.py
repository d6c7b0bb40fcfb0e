"""No module of the package or its scripts imports another module's private names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "discbraid").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


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


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_imports_across_modules(path):
    assert private_imports(path) == []
