#!/usr/bin/env python3
"""Estimate the proportionality constants relating flow quasi-morphisms to
their closed-form predictors.

Two families are calibrated:

* the homogenized 2-strand linking estimate against the Calabi value
  (theory: a single constant; with this package's crossing conventions it
  comes out at -1, matching the closed form 2*pi*t*INT y h' = -Calabi for
  compactly supported profiles);
* the homogenized 3-strand signature estimate against 4 INT y h over
  Calabi-zero bump profiles at t = 4.  That moment is proportional to the
  exact response (``flows.signature_response``) only because the profiles
  have zero mean; the exact constant, -12 pi^2, is printed next to the
  fitted one.

Usage: python scripts/calibrate_constants.py [--samples N] [--seed S]
"""

import argparse
import math
import sys
from fractions import Fraction

from discbraid.estimator import calibrate_constant
from discbraid.experiments import calabi_profiles
from discbraid.flows import calabi, make_flow, signature_response
from discbraid.profiles import make_hs_profile
from discbraid.quasimorphisms import linking_quasimorphism, signature_quasimorphism


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    calabi_flows = [make_flow([(h, 1)]) for h in calabi_profiles()]
    result = calibrate_constant(
        calabi_flows,
        linking_quasimorphism(1, 2),
        2,
        [calabi(f) for f in calabi_flows],
        samples=args.samples,
        seed=args.seed,
        k_schedule=(4, 8),
        threads=args.threads,
    )
    print("2-strand estimate / Calabi:")
    print(f"  constant = {result.constant:+.5f}   spread = {result.spread:.2%}")
    for ratio, est in zip(result.ratios, result.estimates):
        print(f"  ratio {ratio:+.5f}  (value {est.value:+.5f} +- {est.std_error:.5f})")

    moment_profiles = [make_hs_profile(Fraction(1, 4) + Fraction(k, 36)) for k in range(4)]
    moment_flows = [make_flow([(h, 4)]) for h in moment_profiles]
    predicted = [4 * float(h.moment(1)) for h in moment_profiles]
    result = calibrate_constant(
        moment_flows,
        signature_quasimorphism(),
        3,
        predicted,
        samples=max(args.samples // 4, 2000),
        seed=args.seed,
        k_schedule=(1, 2),
        threads=args.threads,
    )
    exact = [math.pi**2 * float(signature_response(f, 3)) / p for f, p in zip(moment_flows, predicted)]
    exact_constant = sum(exact) / len(exact)
    print("3-strand signature estimate / moment:")
    print(f"  constant = {result.constant:+.3f}   spread = {result.spread:.2%}   exact = {exact_constant:+.3f}")
    for ratio, est in zip(result.ratios, result.estimates):
        print(f"  ratio {ratio:+.3f}  (value {est.value:+.4f} +- {est.std_error:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
