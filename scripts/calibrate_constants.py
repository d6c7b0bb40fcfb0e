#!/usr/bin/env python3
"""Compare flow quasi-morphism estimates with their closed forms.

Two families are compared:

* the homogenized 2-strand linking estimate against the Calabi value, by
  ``experiments.check_calabi_proportionality``: the constant is the mean
  ratio (theory: a single constant; with this package's crossing
  conventions it comes out at -1, matching the closed form
  2*pi*t*INT y h' = -Calabi for compactly supported profiles) and the
  spread the worst relative deviation from it;
* the homogenized 3-strand signature estimate of four hs flows at t = 4
  against its exact value pi^2 * ``flows.signature_response``, with the
  z-score of each estimate.

Usage: python scripts/calibrate_constants.py [--samples N] [--seed S] [--threads T]
"""

import argparse
import math
import sys
from fractions import Fraction

from discbraid.estimator import estimate_phi_tilde_n
from discbraid.experiments import calabi_profiles, check_calabi_proportionality
from discbraid.flows import make_flow, signature_response
from discbraid.profiles import make_hs_profile
from discbraid.quasimorphisms import signature_quasimorphism


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    details = check_calabi_proportionality(
        calabi_profiles(), samples=args.samples, seed=args.seed, k_schedule=(4, 8), threads=args.threads
    ).details
    print("2-strand estimate / Calabi:")
    print(f"  constant = {details['constant']:+.5f}   spread = {details['spread']:.2%}")
    for ratio, est in zip(details["ratios"], details["estimates"]):
        print(f"  ratio {ratio:+.5f}  (value {est['value']:+.5f} +- {est['std_error']:.5f})")

    print("3-strand signature estimate against pi^2 * signature_response:")
    for s in (Fraction(1, 4) + Fraction(k, 36) for k in range(4)):
        flow = make_flow([(make_hs_profile(s), 4)])
        est = estimate_phi_tilde_n(
            flow,
            signature_quasimorphism(),
            3,
            samples=max(args.samples // 4, 2000),
            seed=args.seed,
            k_schedule=(1, 2),
            threads=args.threads,
        )
        exact = math.pi**2 * float(signature_response(flow, 3))
        z = (est.value - exact) / est.std_error
        print(f"  s = {s}  value {est.value:+.4f} +- {est.std_error:.4f}  exact {exact:+.4f}  z = {z:+.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
