#!/usr/bin/env python3
"""Run the full verification battery at acceptance scale and write a report.

Usage: python scripts/run_verification.py [--samples N] [--seed S] [--out report.json]

This is the heavyweight counterpart of `discbraid verify --all`: both run
`discbraid.experiments.battery`, here at the "acceptance" scale, where the
Monte Carlo checks use the sample counts of the acceptance criteria, so
expect a few minutes of wall time.
"""

import argparse
import json
import sys
import time

from discbraid.experiments import battery


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--lipschitz-samples", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", default="verification_report.json")
    args = parser.parse_args(argv)

    reports = []
    t0 = time.time()
    for _name, label, run in battery(
        "acceptance",
        seed=args.seed,
        samples=args.samples,
        lipschitz_samples=args.lipschitz_samples,
        trials=100,
        threads=args.threads,
    ):
        rep = run()
        reports.append(rep)
        print(f"{'PASS' if rep.passed else 'FAIL'} {label} (margin {rep.margin:.6g})")

    with open(args.out, "w") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({time.time() - t0:.0f}s)")
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
