"""The benchmark's deterministic counts and output digests repeat for a fixed seed.

Runs each workload's traced run twice with the same seed, for one round, and
compares every per-layer count (unit ``count``) and every task digest.  Takes
about two minutes:

    python3 -m pytest -q discbench/test_counts.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def traced_run(workload: str, seed: int):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.001", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = [line for line in lines if line.startswith("digest ")]
    counts = {
        name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"
    }
    return result, counts, digests


@pytest.mark.parametrize("workload", ["signature3", "linking", "lengths"])
def test_counts_repeat_for_a_fixed_seed(workload):
    first, counts_a, digests_a = traced_run(workload, 5)
    second, counts_b, digests_b = traced_run(workload, 5)
    assert first["correct"] and second["correct"]
    assert counts_a == counts_b
    assert digests_a == digests_b and digests_a
    # the counts named by the benchmark's contract are present and nonzero
    # where the workload runs that layer
    expected = {
        "signature3": ["seifert.size.mean", "seifert.size.max", "loops.word_letters.mean",
                       "profiles.RadialProfile.derivative.calls"],
        "linking": ["loops.word_letters.max", "braids.linking_number.calls",
                    "profiles.RadialProfile.derivative.calls"],
        "lengths": ["lengths.isotopy_evals", "lengths.point_evals",
                    "profiles.RadialProfile.derivative.calls"],
    }[workload]
    assert all(counts_a[name] > 0 for name in expected)
    assert "estimator.rejected" in counts_a
