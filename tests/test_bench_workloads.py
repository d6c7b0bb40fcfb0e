"""The benchmark's workloads still build against the package.

``discbench/workloads.py`` imports some names at load time and looks others
up as ``discbraid.<module>.<name>`` when a round runs.  A name the package
drops fails here, in the tests, and not only in a benchmark run.  No round
is run.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "discbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def test_every_workload_builds(workloads):
    assert list(workloads.WORKLOADS) == ["signature3", "linking", "lengths"]
    for name, build in workloads.WORKLOADS.items():
        assert build().name == name


def test_names_looked_up_at_run_time_exist(workloads):
    tree = ast.parse((BENCH / "workloads.py").read_text())
    dotted = {
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "discbraid"
    }
    assert "discbraid.flows.lp_length_exact_even" in dotted
    for name in sorted(dotted):
        module, attr = name.rsplit(".", 1)
        assert hasattr(importlib.import_module(module), attr), name
