"""No module of the package imports another module's private names, or
reads a private attribute of anything but ``self`` or ``cls``; no module
exports a name it does not define; only the analytic L^p length loads scipy."""

import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from discbraid.flows import lp_length_radial, make_flow
from discbraid.profiles import polynomial_bump

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


SCIPY_FREE_RUN = """
import sys
from fractions import Fraction

import discbraid.cli
from discbraid.estimator import estimate_phi_tilde_n
from discbraid.flows import lp_length_radial, make_flow
from discbraid.lengths import lp_length_sampled
from discbraid.profiles import polynomial_bump
from discbraid.quasimorphisms import linking_quasimorphism, signature_quasimorphism

flow = make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20), 1)])
estimate_phi_tilde_n(flow, signature_quasimorphism(), 3, samples=40, k_schedule=(1, 2), seed=1)
estimate_phi_tilde_n(flow, linking_quasimorphism(1, 2), 2, samples=40, k_schedule=(1, 2), seed=1)
lp_length_sampled(flow, 2, space_samples=256, seed=0)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
print(repr(lp_length_radial(flow, 2)))
"""


def test_only_the_analytic_length_loads_scipy():
    """The CLI, the estimators and the sampled length run without scipy;
    lp_length_radial loads it on its first call.  A fresh interpreter is
    needed because other test modules import scipy into this one."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN], capture_output=True, text=True, env=env, check=True, timeout=120
    )
    loaded, length = run.stdout.splitlines()
    assert loaded == "[]"
    flow = make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20), 1)])
    assert float(length) == lp_length_radial(flow, 2)
