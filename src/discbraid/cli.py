"""Command-line entry point.

Every run prints the resolved configuration first, then the result.  The
configuration line is printed only once the arguments have been validated
(for every command but verify, once the result is computed), so an input
error leaves stdout empty.  All randomness flows from --seed through the
fixed per-task derivation scheme, so identical invocations produce
identical bytes, and --threads never changes numeric output (sample chunks
are merged in index order).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from functools import partial

import numpy as np

from .braids import format_braid_text, parse_braid_text, parse_word
from .errors import DegeneracyError, DegenerateConfigurationError, InputError
from .estimator import default_base, estimate_phi_n, estimate_phi_tilde_n
from .experiments import battery
from .flows import flow_from_json, flow_path, lp_length_radial, make_flow
from .lengths import lp_length_of_bundle, lp_length_sampled
from .loops import (
    TrajectoryBundle,
    coincidence_free,
    extract_braid,
    gg_loops,
    read_trajectory_csv,
    write_trajectory_csv,
)
from .profiles import make_hs_profile, profile_from_json, profile_to_json
from .quasimorphisms import (
    homogenize,
    linking_quasimorphism,
    signature_quasimorphism,
)
from .seifert import braid_signature


def _emit(args, payload: dict):
    if args.format == "csv":
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            print(f"{key},{value}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _print_config(args, command: str, extra: dict):
    config = {"command": command, "seed": args.seed, "threads": args.threads}
    config.update(extra)
    print("# config " + json.dumps(config, sort_keys=True))


def _parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"point must be 'x,y', got {text!r}")
    try:
        point = (float(parts[0]), float(parts[1]))
    except ValueError:
        raise InputError(f"point must be two numbers 'x,y', got {text!r}") from None
    if not all(math.isfinite(v) for v in point):
        raise InputError(f"point must be finite, got {text!r}")
    return point


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{flag} must be a rational number such as 7/24, got {text!r}") from None


def _parse_points(text: str):
    return np.array([_parse_point(chunk) for chunk in text.split(";")])


def _parse_k_schedule(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InputError(f"--k-schedule must be a comma list of integers, got {text!r}") from None


def _load_flow(args):
    if args.flow:
        with open(args.flow) as fh:
            return flow_from_json(fh.read())
    if args.profile:
        with open(args.profile) as fh:
            profile = profile_from_json(fh.read())
        time = _parse_fraction(args.time, "--time")
        return make_flow([(profile, time)], validate=not args.unchecked)
    raise InputError("need --flow FILE or --profile FILE")


def _load_word(args):
    if args.word is not None:
        if args.strands is None:
            raise InputError("--word needs --strands")
        return parse_word(args.word, args.strands)
    if args.braid_file is not None:
        with open(args.braid_file) as fh:
            return parse_braid_text(fh.read())
    raise InputError("need --word and --strands, or --braid-file")


def _phi_by_name(name: str, i: int, j: int):
    if name == "lk":
        return linking_quasimorphism(i, j)
    if name == "signature":
        return signature_quasimorphism()
    raise InputError(f"unknown quasi-morphism {name!r}")


def cmd_flow_apply(args) -> int:
    flow = _load_flow(args)
    point = _parse_point(args.point)
    if args.polar:
        r, theta = point
        if r < 0 or r > 1 + 1e-12:
            raise InputError(f"radius {r} outside the closed unit disc")
        image = [r, theta + float(flow.angular_rate_float(r * r))]
    else:
        if point[0] * point[0] + point[1] * point[1] > 1 + 1e-9:
            raise InputError(f"point {point} outside the closed unit disc")
        image = flow_path(flow, [point], [1.0])[0, 0].tolist()
    _print_config(args, "flow-apply", {"point": list(point), "polar": args.polar})
    _emit(args, {"point": list(point), "image": image})
    return 0


def cmd_braid_extract(args) -> int:
    direction = _parse_point(args.direction)
    if args.trajectory:
        with open(args.trajectory) as fh:
            bundle = read_trajectory_csv(fh.read())
        source = {"trajectory": args.trajectory}
    else:
        flow = _load_flow(args)
        if args.start is None:
            raise InputError("need --trajectory FILE or --start 'x,y;x,y;...'")
        start = _parse_points(args.start)
        base = _parse_points(args.base) if args.base else default_base(len(start))
        times, positions = next(gg_loops(base, start[None], flow, args.samples_per_segment))
        if not coincidence_free(flow, base, start[None])[0]:
            raise InputError("two strands pass through each other along the loop, so it has no braid")
        bundle = TrajectoryBundle(times, positions[0])
        source = {"start": args.start, "base": args.base}
    if args.emit_trajectory:
        with open(args.emit_trajectory, "w") as fh:
            fh.write(write_trajectory_csv(bundle))
    word = extract_braid(bundle, direction)
    _print_config(args, "braid-extract", source)
    sys.stdout.write(format_braid_text(word))
    return 0


def cmd_invariant(args) -> int:
    word = _load_word(args)
    if args.kind == "lk":
        phi = linking_quasimorphism(args.i, args.j)
        payload = {"kind": "lk", "i": args.i, "j": args.j, "value": int(phi(word))}
    elif args.kind == "signature":
        payload = {"kind": "signature", "value": braid_signature(word)}
    elif args.kind == "homogenized":
        phi = _phi_by_name(args.phi, args.i, args.j)
        hom = homogenize(phi, word, args.k_max)
        payload = {
            "kind": f"homogenized-{args.phi}",
            "value": float(hom.value),
            "value_exact": [hom.value.numerator, hom.value.denominator],
            "error_bound": None if hom.error_bound is None else float(hom.error_bound),
            "k_used": hom.k_used,
        }
    else:
        raise InputError(f"unknown invariant {args.kind!r}")
    _print_config(
        args,
        "invariant",
        {"kind": args.kind, "strands": word.strands, "letters": len(word.letters)},
    )
    _emit(args, payload)
    return 0


def cmd_estimate(args) -> int:
    flow = _load_flow(args)
    phi = _phi_by_name(args.phi, args.i, args.j)
    k_schedule = _parse_k_schedule(args.k_schedule) if args.k_schedule else None
    estimate = partial(estimate_phi_tilde_n, k_schedule=k_schedule) if k_schedule else estimate_phi_n
    est = estimate(flow, phi, args.n, samples=args.samples, seed=args.seed, threads=args.threads)
    _print_config(
        args,
        "estimate",
        {
            "phi": phi.name,
            "n": args.n,
            "samples": args.samples,
            "k_schedule": list(k_schedule) if k_schedule else None,
        },
    )
    _emit(args, est.to_dict())
    return 0


def cmd_lp_length(args) -> int:
    if args.trajectory:
        with open(args.trajectory) as fh:
            bundle = read_trajectory_csv(fh.read())
        config = {"trajectory": args.trajectory, "p": args.p}
        payload = {"p": args.p, "value": lp_length_of_bundle(bundle, args.p), "upper_bound": True}
    else:
        flow = _load_flow(args)
        config = {"p": args.p, "mode": args.mode}
        if args.mode == "analytic":
            payload = {"p": args.p, "value": lp_length_radial(flow, args.p), "upper_bound": True}
        else:
            est = lp_length_sampled(
                flow,
                args.p,
                time_steps=args.time_steps,
                space_samples=args.space_samples,
                seed=args.seed,
            )
            payload = dict(est.to_dict(), upper_bound=True)
    _print_config(args, "lp-length", config)
    _emit(args, payload)
    return 0


def cmd_make_hs(args) -> int:
    profile = make_hs_profile(_parse_fraction(args.s, "--s"))
    _print_config(args, "make-hs", {"s": args.s})
    text = profile_to_json(profile)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        _emit(args, {"written": args.out})
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    runs = battery(seed=args.seed, samples=args.samples, trials=args.trials, threads=args.threads)
    names = list(runs) if args.all or args.checks is None else args.checks.split(",")
    for name in names:
        if name not in runs:
            raise InputError(f"unknown check {name!r}")
    _print_config(args, "verify", {"checks": names, "samples": args.samples})
    reports = []
    for name in names:
        rep = runs[name]()
        reports.append(rep)
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.check} margin={rep.margin:.6g}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    return 0 if all(r.passed for r in reports) else 1


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool):
    """Global flags work both before and after the subcommand.

    The top-level parser carries the real defaults; the per-subcommand
    copies use SUPPRESS so they only override when given explicitly.
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--seed", type=int, default=default(0), help="master random seed"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=default(os.environ.get("DISCBRAID_THREADS", "1")),
        help="at most this many worker processes for signature estimates",
    )
    parser.add_argument("--format", choices=("json", "csv"), default=default("json"))
    parser.add_argument(
        "--profile", default=default(None), help="radial profile JSON file"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discbraid",
        description="Braids from area-preserving disc flows: invariants, "
        "quasi-morphism estimates, and L^p lengths.",
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_command(name, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        _add_global_flags(sp, suppress=True)
        return sp

    flow_args = argparse.ArgumentParser(add_help=False)  # the flow of --flow or --profile
    flow_args.add_argument("--flow", help="flow JSON file")
    flow_args.add_argument("--time", default="1", help="time coefficient when using --profile")
    flow_args.add_argument("--unchecked", action="store_true", help="skip the support check")

    sp = add_command("flow-apply", parents=[flow_args], help="apply the time-one flow map to a point")
    sp.add_argument("--point", required=True, help="x,y (or r,theta with --polar)")
    sp.add_argument("--polar", action="store_true")
    sp.set_defaults(func=cmd_flow_apply)

    sp = add_command("braid-extract", parents=[flow_args], help="braid word of a trajectory bundle")
    sp.add_argument("--trajectory", help="trajectory CSV to ingest")
    sp.add_argument("--start", help="start configuration 'x,y;x,y;...'")
    sp.add_argument("--base", help="base configuration; defaults to a polygon")
    sp.add_argument("--samples-per-segment", type=int, help="subintervals of the flow orbit")
    sp.add_argument("--direction", default="1,0")
    sp.add_argument("--emit-trajectory", help="also write the bundle CSV here")
    sp.set_defaults(func=cmd_braid_extract)

    sp = add_command("invariant", help="braid invariants (lk | signature | homogenized)")
    sp.add_argument("kind", choices=("lk", "signature", "homogenized"))
    sp.add_argument("--word", help="letters, e.g. '1 1 -2'")
    sp.add_argument("--strands", type=int)
    sp.add_argument("--braid-file")
    sp.add_argument("--i", type=int, default=1)
    sp.add_argument("--j", type=int, default=2)
    sp.add_argument("--phi", choices=("lk", "signature"), default="signature")
    sp.add_argument("--k-max", type=int, default=256)
    sp.set_defaults(func=cmd_invariant)

    sp = add_command("estimate", parents=[flow_args], help="Monte Carlo quasi-morphism estimates")
    sp.add_argument("--phi", choices=("lk", "signature"), required=True)
    sp.add_argument("--i", type=int, default=1)
    sp.add_argument("--j", type=int, default=2)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--k-schedule", help="comma list; homogenized estimate when set")
    sp.set_defaults(func=cmd_estimate)

    sp = add_command("lp-length", parents=[flow_args], help="L^p isotopy length (upper bound report)")
    sp.add_argument("--trajectory")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--mode", choices=("analytic", "sampled"), default="analytic")
    sp.add_argument("--time-steps", type=int, default=33)
    sp.add_argument("--space-samples", type=int, default=65536)
    sp.set_defaults(func=cmd_lp_length)

    sp = add_command("make-hs", help="emit a zero-mean bump profile")
    sp.add_argument("--s", required=True, help="parameter in [1/4, 1/3], e.g. 7/24")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_make_hs)

    sp = add_command("verify", help="run the theorem checks")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--checks", help="comma list of check names; default: all")
    sp.add_argument("--samples", type=int, default=4000)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--report", help="write the JSON report here")
    sp.set_defaults(func=cmd_verify)
    return parser


POINT_FLAGS = ("--point", "--start", "--base", "--direction")


def _join_point_values(argv):
    """``--start -0.4,0.2`` as ``--start=-0.4,0.2``: argparse reads a separate
    value that starts with '-' (and is not a plain number) as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in POINT_FLAGS and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_point_values(sys.argv[1:] if argv is None else argv))
    if args.seed < 0:  # seeds key numpy's SeedSequence, which takes no negative entropy
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")
    try:
        return args.func(args)
    except (InputError, DegeneracyError, DegenerateConfigurationError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
