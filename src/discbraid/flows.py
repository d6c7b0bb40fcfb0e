"""Area-preserving radial flows of the unit disc.

A flow is a commuting combination of radial Hamiltonian terms (h_i, t_i):
the Hamiltonian H_i(x) = h_i(|x|^2) generates, in polar coordinates, the
exact flow (r, theta) -> (r, theta + 2 t h_i'(r^2)).  Everything downstream
leans on that closed form: trajectories are sampled analytically, the
Calabi value is 2 pi sum_i t_i * int h_i, and L^p lengths reduce to the
one-dimensional integral of y^{p/2} |sum_i 2 t_i h_i'(y)|^p.  Times are
exact Fractions (a float time is the dyadic rational it stores), so every
flow has its exact Calabi value, signature responses and speed moments.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError
from .poly import Poly, add, integral, mul, real_roots, shift
from .profiles import RadialProfile, profile_from_json, profile_to_json

__all__ = [
    "FlowSpec",
    "make_flow",
    "MAX_ROTATION",
    "check_rotation",
    "calabi",
    "calabi_coefficient",
    "signature_moment",
    "signature_weight",
    "signature_response",
    "check_lp_exponent",
    "lp_length_radial",
    "lp_speed_moment_exact",
    "lp_length_exact_even",
    "flow_to_json",
    "flow_from_json",
]

# Largest rotation_bound (rad) a flow may have.  Loop windings count whole
# turns of float angles, so a float ulp of the rate must stay far below one
# radian; at this bound it is about 1e-7 rad.
MAX_ROTATION = 1e9

# The analytic L^p length integrates with an adaptive 16-point Gauss-Legendre
# rule.  An interval closes when its halves agree with it to p * GAUSS_RTOL of
# the whole integral: the p-th root divides that relative error by p, and a
# float p-th power carries a relative rounding error of about p ulps.  More
# than MAX_BISECTIONS bisections for one length is a failure.
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)
GAUSS_RTOL = 1e-14
MAX_BISECTIONS = 10_000


@dataclass(frozen=True)
class FlowSpec:
    """Commuting radial flow: list of (profile, time coefficient) terms."""

    terms: tuple[tuple[RadialProfile, Fraction], ...]

    def scaled(self, k) -> "FlowSpec":
        return make_flow([(h, t * Fraction(k)) for h, t in self.terms], validate=False)

    def angular_rate_float(self, y):
        """2 sum_i t_i h_i'(y) on float arrays; the angle advance per unit time."""
        y = np.asarray(y, dtype=float)
        rate = np.zeros_like(y)
        for h, t in self.terms:
            rate += 2.0 * float(t) * h.derivative().eval_float(y)
        return rate

    @property
    def rotation_bound(self) -> float:
        """Upper bound on the angular speed anywhere in the disc."""
        return sum(2.0 * abs(float(t)) * h.max_abs_derivative for h, t in self.terms)


def make_flow(terms, validate: bool = True) -> FlowSpec:
    """Build a flow from (profile, time) pairs.

    With ``validate`` set, each profile must vanish near the centre and the
    boundary so the flow is an honest compactly supported diffeomorphism;
    analytic conveniences like the rigid rotation need ``validate=False``.
    Each time becomes the exact Fraction it denotes and must fit a float.
    """
    packed = []
    for h, t in terms:
        if not isinstance(h, RadialProfile):
            raise InputError("flow terms need RadialProfile entries")
        if validate and not h.is_disc_compatible():
            raise InputError(
                f"profile supported on {h.support} does not vanish near r=0 and r=1"
            )
        try:
            t = Fraction(t)  # raises for NaN, inf, "1/0" and non-numbers
        except (TypeError, ValueError, ArithmeticError):
            t = math.inf
        if not abs(t) <= sys.float_info.max:
            raise InputError("flow time coefficients must be finite and within float range")
        packed.append((h, t))
    return FlowSpec(tuple(packed))


def check_rotation(spec: FlowSpec) -> float:
    """The flow's rotation_bound; InputError above MAX_ROTATION."""
    bound = spec.rotation_bound
    if not bound <= MAX_ROTATION:
        raise InputError(
            f"rotation bound {bound:.3g} rad exceeds {MAX_ROTATION:.0e}: "
            "float angles no longer resolve a turn"
        )
    return bound


def flow_path(spec: FlowSpec, points, s_values):
    """Trajectories of Cartesian ``points`` under the flow at scaled times.

    points: (N, 2); s_values: (T,) in [0, 1] parameterizing the isotopy
    s -> flow at time coefficients s * t_i.  Returns (N, T, 2).
    """
    pts = np.asarray(points, dtype=float)
    s = np.asarray(s_values, dtype=float)
    r2 = np.sum(pts**2, axis=1)
    base_rate = spec.angular_rate_float(np.clip(r2, 0.0, 1.0))  # (N,)
    theta0 = np.arctan2(pts[:, 1], pts[:, 0])
    r = np.sqrt(r2)
    angles = theta0[:, None] + base_rate[:, None] * s[None, :]
    return np.stack(
        (r[:, None] * np.cos(angles), r[:, None] * np.sin(angles)), axis=-1
    )


def calabi_coefficient(spec: FlowSpec) -> Fraction:
    """Exact coefficient c with Calabi value = pi * c."""
    return sum((2 * t * h.moment(0) for h, t in spec.terms), Fraction(0))


def calabi(spec: FlowSpec) -> float:
    """Calabi value 2 sum_i t_i int_D H_i = 2 pi sum_i t_i int_0^1 h_i."""
    return math.pi * float(calabi_coefficient(spec))


def signature_moment(profile: RadialProfile, n: int) -> Fraction:
    """Exact int_0^1 y^{n-2} h(y) dy; a moment, not the n-point response (``signature_response``)."""
    if n < 3:
        raise InputError("signature moments are defined for n >= 3")
    return profile.moment(n - 2)


def signature_weight(n: int) -> Poly:
    """P_n = sum_k s_k n C(n-1, k-1) y^(k-1) (1-y)^(n-k), s_k = -2 floor(k/2).

    The k-th term is s_k times the density of the k-th smallest of n
    uniform values of y = r^2; s_k is the homogenized signature of one
    whole turn of the k-th innermost point around the inner ones.
    """
    if n < 2:
        raise InputError("signature responses are defined for n >= 2")
    weight: Poly = (Fraction(0),)
    for k in range(2, n + 1):  # s_1 = 0
        scale = -2 * (k // 2) * n * math.comb(n - 1, k - 1)
        term = tuple(Fraction(scale * math.comb(n - k, j) * (-1) ** j) for j in range(n - k + 1))
        weight = add(weight, shift(term, k - 1))  # scale * y^(k-1) (1-y)^(n-k)
    return weight


def signature_response(spec: FlowSpec, n: int) -> Fraction:
    """Exact coefficient of pi^(n-1) in the homogenized n-point signature.

    A point at y = r^2 turns at the rate 2 t h'(y), so the value is
    sum_terms t int_0^1 h' P_n with P_n = ``signature_weight(n)``.  There is
    no boundary term, so a rigid rotation works too.
    """
    weight = signature_weight(n)
    total = Fraction(0)
    for h, t in spec.terms:
        d = h.derivative()
        for k, piece in enumerate(d.pieces):
            total += t * integral(mul(piece, weight), d.breakpoints[k], d.breakpoints[k + 1])
    return total


def check_lp_exponent(p: float) -> None:
    """Raise InputError unless p is finite and >= 1, the exponents of L^p lengths."""
    if not (math.isfinite(p) and p >= 1):
        raise InputError(f"p must be a finite number >= 1, got {p!r}")


def _unit_rate_pieces(spec: FlowSpec):
    """(t_max, [(lo, hi, rate)]): t_max = max |t_i|, and on each interval of
    the union of the terms' breakpoints the exact polynomial
    rate = sum_i (t_i / t_max) h_i', so the angular rate is 2 t_max rate.
    No pieces when t_max is 0."""
    t_max = max((abs(t) for _, t in spec.terms), default=Fraction(0))
    if t_max == 0:
        return t_max, []
    breakpoints = sorted({b for h, _ in spec.terms for b in h.breakpoints})
    pieces = []
    for lo, hi in zip(breakpoints, breakpoints[1:]):
        rate = (Fraction(0),)
        for h, t in spec.terms:
            d = h.derivative()
            piece = d.pieces[bisect.bisect_right(d.breakpoints, lo) - 1]
            rate = add(rate, tuple(t / t_max * c for c in piece))
        pieces.append((lo, hi, rate))
    return t_max, pieces


def _speed_integral(spans, peak: float, p: float) -> float:
    """Sum over spans (coeffs, edges) of the integrals of
    min(1, sqrt(y) |rate(y)| / peak)^p between consecutive edges, where rate
    has the float coefficients ``coeffs`` (descending).  Adaptive 16-point
    Gauss-Legendre: each round bisects every open interval at once and closes
    those whose halves agree with the whole to p * GAUSS_RTOL of the running
    total.  InputError once MAX_BISECTIONS intervals have been bisected."""
    width = max(len(coeffs) for coeffs, _ in spans)
    rows = np.array([np.pad(coeffs, (width - len(coeffs), 0)) for coeffs, edges in spans for _ in edges[1:]])
    lo = np.array([y for _, edges in spans for y in edges[:-1]])
    hi = np.array([y for _, edges in spans for y in edges[1:]])

    def rule(rows, lo, hi):
        half = 0.5 * (hi - lo)
        y = (lo + half)[:, None] + half[:, None] * GAUSS_NODES
        rate = np.zeros_like(y)
        for k in range(width):  # Horner, as np.polyval
            rate = rate * y + rows[:, k, None]
        return half * (np.minimum(1.0, np.sqrt(y) * np.abs(rate) / peak) ** p @ GAUSS_WEIGHTS)

    whole, closed, bisected = rule(rows, lo, hi), 0.0, 0
    while lo.size:
        mid = 0.5 * (lo + hi)
        left, right = rule(rows, lo, mid), rule(rows, mid, hi)
        halves = left + right
        done = np.abs(halves - whole) <= GAUSS_RTOL * p * (closed + halves.sum())
        closed += float(halves[done].sum())
        split = ~done
        bisected += int(split.sum())
        if bisected > MAX_BISECTIONS:
            raise InputError("analytic L^p length did not converge")
        rows = np.concatenate((rows[split], rows[split]))
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
        whole = np.concatenate((left[split], right[split]))
    return closed


def lp_length_radial(spec: FlowSpec, p: float) -> float:
    """L^p length of the isotopy [0,1] ∋ s -> flow at times s*t_i.

    The speed field is autonomous, so the length is
    2 * pi^{1/p} * (int_0^1 y^{p/2} |sum_i t_i h_i'(y)|^p dy)^{1/p}.  With
    rate = sum_i (t_i / t_max) h_i', t_max = max |t_i|, and peak the largest
    sqrt(y) |rate|, found at the piece edges and the critical points of
    y rate^2, it is 2 t_max peak (pi int_0^1 (sqrt(y) |rate| / peak)^p dy)^{1/p},
    so no power underflows or overflows (the ratio is capped at 1, as the
    float peak may round low).  The integral (``_speed_integral``) is split
    at the breakpoints, the sign changes of the rate and the critical points,
    and for p >= 1000 also at span / 10^j from each edge and critical point,
    as the peak narrows like 1/p.  InputError when the length overflows a
    float or the integral does not converge.
    """
    check_lp_exponent(p)
    t_max, pieces = _unit_rate_pieces(spec)
    levels = int(math.log10(p)) - 2
    peak, spans = 0.0, []
    for a, b, rate in pieces:
        if not any(rate):
            continue
        lo, hi = float(a), float(b)
        coeffs = np.array([float(c) for c in reversed(rate)])
        # (y rate^2)' = rate (rate + 2 y rate'), and rate + 2 y rate' = sum_k (2k + 1) c_k y^k
        critical = real_roots([float((2 * k + 1) * c) for k, c in enumerate(rate)][::-1], lo, hi)
        marks = [lo, hi] + critical
        peak = max([peak] + [math.sqrt(y) * abs(float(np.polyval(coeffs, y))) for y in marks])
        graded = (m + s * (hi - lo) / 10.0**j for m in marks for s in (-1, 1) for j in range(1, levels + 1))
        spans.append((coeffs, sorted({*marks, *real_roots(coeffs, lo, hi), *(y for y in graded if lo < y < hi)})))
    if peak == 0.0:
        return 0.0
    length = float(t_max) * 2.0 * peak * (math.pi * _speed_integral(spans, peak, p)) ** (1.0 / p)
    if not math.isfinite(length):
        raise InputError("L^p length overflows float arithmetic")
    return length


def lp_speed_moment_exact(spec: FlowSpec, p: int) -> Fraction:
    """Exact int_0^1 y^{p/2} (sum_i 2 t_i h_i'(y))^p dy for even integer p.

    For even p the absolute value in the speed integrand is a polynomial,
    so the moment is an exact rational; the L^p length of the combined
    isotopy is pi^{1/p} * moment^{1/p}.  Each piece's rate is scaled to
    integer coefficients, so its p-th power is taken in integers.
    """
    if p < 2 or p % 2 != 0:
        raise InputError("exact speed moments need even integer p >= 2")
    t_max, pieces = _unit_rate_pieces(spec)
    total = Fraction(0)
    for lo, hi, rate in pieces:
        d = math.lcm(*(c.denominator for c in rate))  # d rate has integer coefficients
        square = mul(*(tuple(c.numerator * (d // c.denominator) for c in rate),) * 2)
        power, e = (1,), p // 2
        while e:  # (d rate)^p = ((d rate)^2)^(p/2) by repeated squaring
            if e & 1:
                power = mul(power, square)
            e >>= 1
            if e:
                square = mul(square, square)
        total += integral(shift(tuple(map(Fraction, power)), p // 2), lo, hi) / d**p
    return (2 * t_max) ** p * total


def lp_length_exact_even(spec: FlowSpec, p: int) -> float:
    """Float L^p length pi^{1/p} moment^{1/p} from the exact even-p speed
    moment.  A moment outside the normal float range is written exactly as
    m 2^{e p + r}, m in [1/2, 2), 0 <= r < p, and rooted piece by piece, so
    only a length beyond float range fails (InputError)."""
    moment = lp_speed_moment_exact(spec, p)
    if not moment or sys.float_info.min <= moment <= sys.float_info.max:
        return math.pi ** (1.0 / p) * float(moment) ** (1.0 / p)
    e, r = divmod(moment.numerator.bit_length() - moment.denominator.bit_length(), p)
    root = float(moment / Fraction(2) ** (e * p + r)) ** (1.0 / p) * 2.0 ** (r / p)
    try:
        return math.ldexp(math.pi ** (1.0 / p) * root, e)
    except OverflowError:
        raise InputError("L^p length overflows float arithmetic") from None


# -- flow file format ------------------------------------------------------


def flow_to_json(spec: FlowSpec) -> str:
    terms = [
        {"profile": json.loads(profile_to_json(h)), "time": [t.numerator, t.denominator]}
        for h, t in spec.terms
    ]
    return json.dumps({"terms": terms}, indent=2)


def flow_from_json(text: str) -> FlowSpec:
    """Read a flow document; ``{"unchecked": true}`` skips the support check."""
    try:
        doc = json.loads(text)
        terms = []
        for entry in doc["terms"]:
            h = profile_from_json(json.dumps(entry["profile"]))
            t = entry["time"]
            t = Fraction(t[0], t[1]) if isinstance(t, list) else float(t)
            terms.append((h, t))
        unchecked = bool(doc.get("unchecked", False))
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"malformed flow document: {exc}") from exc
    return make_flow(terms, validate=not unchecked)
