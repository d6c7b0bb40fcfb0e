"""Run-to-run spread of the end-to-end metrics, as the acceptance rule measures it.

Runs ``run.py`` once per seed on each named workload, seed by seed, and
prints for each end-to-end metric the median and the interquartile
distance as a share of the median (``statistics.quantiles(values, n=4)``),
next to the bound in BENCHMARK.json.  From the repository root:

    python3 discbench/spread.py --workloads signature3,linking,lengths --seeds 1-10

A full check of three workloads at ten seeds takes about twenty-five minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="signature3,linking,lengths")
    ap.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(declared["run_seconds"])
    workload_names = args.workloads.split(",")
    values = {w: {} for w in workload_names}
    # seed-major order: each workload's runs spread over the whole check, so
    # the spread includes the host's drift over minutes, not one quiet spell
    for seed in seed_list(args.seeds):
        for workload in workload_names:
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            took = time.perf_counter() - started
            print(workload, seed, "correct" if result["correct"] else "INCORRECT",
                  f"run {took:.1f}s", shown, flush=True)
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
    for workload in workload_names:
        for m in declared["end_to_end"]:
            x = values[workload][m["name"]]
            med = statistics.median(x)
            q1, _, q3 = statistics.quantiles(x, n=4)
            print(f"  {workload} {m['name']}: median {med:.6g} spread {(q3 - q1) / med:.3f}"
                  f" bound {m['bound']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
