#!/usr/bin/env python3
"""Scan a time-scaled flow family and tabulate (L^p length, estimate) pairs.

Prints one row per time value with the analytic length upper bound, the
homogenized 3-strand signature estimate, and their ratio, then the linear
fit.  The ratio column flattening out is the Lipschitz phenomenon at desk
scale.

Usage: python scripts/lipschitz_scan.py [--tmax 8] [--samples N] [--p 2]
"""

import argparse
import sys
from fractions import Fraction

from discbraid.errors import InputError
from discbraid.estimator import estimate_phi_tilde_n
from discbraid.experiments import linear_fit
from discbraid.flows import check_lp_exponent, lp_length_radial, make_flow
from discbraid.profiles import polynomial_bump
from discbraid.quasimorphisms import signature_quasimorphism


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tmax", type=int, default=8)
    parser.add_argument("--samples", type=int, default=4000)
    parser.add_argument("--p", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=int, default=20, help="profile amplitude")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()
    if args.tmax < 2:
        parser.error("--tmax must be at least 2: the linear fit needs two time values")
    if args.scale == 0:
        parser.error("--scale must be nonzero: a zero profile has zero length")
    try:
        check_lp_exponent(args.p)
    except InputError as exc:
        parser.error(f"--p: {exc}")

    profile = polynomial_bump(Fraction(1, 4), Fraction(3, 4), args.scale)
    sig = signature_quasimorphism()
    rows = []
    print(f"{'t':>3} {'L_p':>10} {'estimate':>12} {'stderr':>9} {'ratio':>8}")
    for t in range(1, args.tmax + 1):
        flow = make_flow([(profile, t)])
        length = lp_length_radial(flow, args.p)
        est = estimate_phi_tilde_n(
            flow, sig, 3, samples=args.samples, k_schedule=(1, 2),
            seed=args.seed, threads=args.threads,
        )
        rows.append((length, est.value))
        print(
            f"{t:>3} {length:>10.4f} {est.value:>12.4f} {est.std_error:>9.4f} "
            f"{abs(est.value) / length:>8.4f}"
        )
    slope, intercept, r2 = linear_fit(*zip(*rows))
    print(f"linear fit: estimate = {slope:.4f} * length {intercept:+.4f}   R^2 = {r2:.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
