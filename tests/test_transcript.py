"""The output contract as a test: a golden integer transcript.

A cell is (flow, invariant, n, t, seed, count): the flow at time t, the
estimator's first chunk of ``count`` n-point configurations for ``seed``,
and the invariant of each configuration's loop braid, as ``estimate_phi_n``
sees it.  ``transcript.json`` holds integers only: per cell the indices of
the rejected configurations, the invariant of each accepted one in order,
their count, sum and sum of squares.  A change of route (extraction,
signature kernel, flow map) that moves one integer fails the cell and names
the first configuration that differs.

The integers come from float geometry (the screen and the crossing times),
so another numpy or libm may move a near-degenerate configuration; the file
records the versions it was made with, and a failure prints them.

Regenerate the file with ``PYTHONPATH=src python tests/test_transcript.py``.
A regenerated file is changed test data: say which cells moved and why.
"""

from __future__ import annotations

import json
import math
import platform
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from discbraid.braids import BraidWord
from discbraid.estimator import TASK_PHI, chunk_rng, default_base, estimate_phi_n, sample_configs
from discbraid.flows import make_flow
from discbraid.loops import coincidence_free, gg_loops, loop_braids, loop_winding
from discbraid.profiles import make_hs_profile, polynomial_bump
from discbraid.quasimorphisms import linking_quasimorphism, signature_quasimorphism

TRANSCRIPT = Path(__file__).with_name("transcript.json")

FLOWS = {  # each at time 1; a cell scales it to its t
    "bump": make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20), 1)]),
    "hs": make_flow([(make_hs_profile(Fraction(1, 4)), 1)]),
    "two-term": make_flow(
        [
            (polynomial_bump(Fraction(1, 8), Fraction(1, 2), 12), Fraction(2, 3)),
            (polynomial_bump(Fraction(3, 8), Fraction(7, 8), 7), Fraction(-1, 2)),
        ]
    ),
}
INVARIANTS = {"signature": signature_quasimorphism(), "lk[1,2]": linking_quasimorphism(1, 2)}
SEED = 1


def declared_cells() -> list[dict]:
    """Every flow, the signature at n = 3, 4, 5 and lk[1,2] at n = 2, 3,
    t = 1, 16, -8, 64 configurations; and one long-word cell."""
    cells = [
        {"flow": flow, "invariant": invariant, "n": n, "t": t, "seed": SEED, "count": 64}
        for flow in FLOWS
        for invariant, ns in (("signature", (3, 4, 5)), ("lk[1,2]", (2, 3)))
        for n in ns
        for t in (1, 16, -8)
    ]
    cells.append({"flow": "bump", "invariant": "signature", "n": 5, "t": 64, "seed": SEED, "count": 16})
    return cells


def cell_id(cell: dict) -> str:
    return "{flow}-{invariant}-n{n}-t{t}-seed{seed}-count{count}".format(**cell)


def configuration_values(cell: dict) -> list:
    """The invariant of each configuration of the cell, None where the
    estimator rejects it: the same configurations, screen and extraction
    as ``estimate_phi_n`` on one chunk."""
    flow = FLOWS[cell["flow"]].scaled(cell["t"])
    phi, n = INVARIANTS[cell["invariant"]], cell["n"]
    configs = sample_configs(chunk_rng(cell["seed"], TASK_PHI, 0), cell["count"], n)
    base = default_base(n)
    if phi.strands is not None:
        turns = loop_winding(flow, base, configs, phi.strands[0] - 1, phi.strands[1] - 1)
        return [None if math.isnan(w) else int(np.rint(w)) for w in turns]
    values: list = [None] * len(configs)
    keep = coincidence_free(flow, base, configs)
    kept = iter(np.nonzero(keep)[0].tolist())
    for times, positions in gg_loops(base, configs[keep], flow):
        for word in loop_braids(times, positions):
            index = next(kept)
            if isinstance(word, BraidWord):
                values[index] = int(phi(word))
    return values


def record(cell: dict, values: list) -> dict:
    accepted = [v for v in values if v is not None]
    return {
        **cell,
        "accepted": len(accepted),
        "rejected": len(values) - len(accepted),
        "sum": sum(accepted),
        "sum_sq": sum(v * v for v in accepted),
        "rejected_at": [i for i, v in enumerate(values) if v is None],
        "values": accepted,
    }


def unpack(row: dict) -> list:
    """The per-configuration values of a recorded cell, None where rejected."""
    accepted = iter(row["values"])
    rejected = set(row["rejected_at"])
    return [None if i in rejected else next(accepted) for i in range(row["count"])]


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def load() -> dict:
    return json.loads(TRANSCRIPT.read_text())


def write() -> None:
    rows = [json.dumps(record(cell, configuration_values(cell))) for cell in declared_cells()]
    head = ", ".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value in versions().items())
    TRANSCRIPT.write_text("{" + head + ',\n "cells": [\n  ' + ",\n  ".join(rows) + "\n ]\n}\n")


def test_cells_are_the_declared_ones():
    assert [cell_id(row) for row in load()["cells"]] == [cell_id(cell) for cell in declared_cells()]


def test_transcript_holds_integers_only():
    for row in load()["cells"]:
        numbers = [row[k] for k in ("n", "t", "seed", "count", "accepted", "rejected", "sum", "sum_sq")]
        numbers += row["rejected_at"] + row["values"]
        assert all(type(v) is int for v in numbers), cell_id(row)


@pytest.mark.parametrize("cell", declared_cells(), ids=cell_id)
def test_cell(cell):
    doc = load()
    row = next(r for r in doc["cells"] if cell_id(r) == cell_id(cell))
    got, want = configuration_values(cell), unpack(row)
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    recorded = {"python": doc["python"], "numpy": doc["numpy"]}
    assert first is None, (
        f"cell {cell_id(cell)}: configuration {first} gives {got[first]}, the transcript "
        f"{want[first]} (None: rejected); recorded with {recorded}, running {versions()}"
    )
    assert record(cell, got) == row


@pytest.mark.parametrize("cell", [c for c in declared_cells() if c["t"] == 1 and c["flow"] == "bump"], ids=cell_id)
def test_estimator_reads_the_cell(cell):
    """``estimate_phi_n`` on the cell's chunk accepts, rejects and averages
    exactly the recorded configurations (small integer sums are exact floats)."""
    row = next(r for r in load()["cells"] if cell_id(r) == cell_id(cell))
    n = cell["n"]
    est = estimate_phi_n(
        FLOWS[cell["flow"]].scaled(cell["t"]), INVARIANTS[cell["invariant"]], n, cell["count"], cell["seed"]
    )
    assert (est.samples, est.rejected) == (row["accepted"], row["rejected"])
    assert est.value == math.pi**n * (row["sum"] / row["accepted"])


if __name__ == "__main__":
    write()
    print(f"wrote {len(declared_cells())} cells to {TRANSCRIPT} ({versions()})", file=sys.stderr)
