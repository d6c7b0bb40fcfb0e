"""Area-preserving radial flows of the unit disc.

A flow is a commuting combination of radial Hamiltonian terms (h_i, t_i):
the Hamiltonian H_i(x) = h_i(|x|^2) generates, in polar coordinates, the
exact flow (r, theta) -> (r, theta + 2 t h_i'(r^2)).  Everything downstream
leans on that closed form: trajectories are sampled analytically, the
Calabi value is 2 pi sum_i t_i * int h_i, and L^p lengths reduce to the
one-dimensional integral of y^{p/2} |sum_i 2 t_i h_i'(y)|^p.

A numeric symplectic integrator is included purely as an independent check
of the closed-form flow.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate

from .errors import InputError
from .poly import Poly, add, integral, mul, real_roots, shift
from .profiles import RadialProfile, profile_from_json, profile_to_json

__all__ = [
    "FlowSpec",
    "make_flow",
    "MAX_ROTATION",
    "check_rotation",
    "radial_flow_apply",
    "calabi",
    "calabi_coefficient",
    "signature_moment",
    "signature_weight",
    "signature_response",
    "check_lp_exponent",
    "lp_length_radial",
    "lp_speed_moment_exact",
    "lp_length_exact_even",
    "integrate_flow_numeric",
    "flow_to_json",
    "flow_from_json",
]

# Largest rotation_bound (rad) a flow may have.  Loop windings count whole
# turns of float angles, so a float ulp of the rate must stay far below one
# radian; at this bound it is about 1e-7 rad.
MAX_ROTATION = 1e9


@dataclass(frozen=True)
class FlowSpec:
    """Commuting radial flow: list of (profile, time coefficient) terms."""

    terms: tuple[tuple[RadialProfile, Fraction], ...]

    def scaled(self, k) -> "FlowSpec":
        k = Fraction(k) if isinstance(k, (int, Fraction)) else k
        try:
            terms = [(h, t * k) for h, t in self.terms]
        except OverflowError:  # a float time times a huge k
            raise InputError("scaled time coefficient is too large for a float") from None
        return make_flow(terms, validate=False)

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

    def times_are_rational(self) -> bool:
        return all(isinstance(t, (int, Fraction)) for _, t in self.terms)


def make_flow(terms, validate: bool = True) -> FlowSpec:
    """Build a flow from (profile, time) pairs.

    With ``validate`` set, each profile must vanish near the centre and the
    boundary so the flow is an honest compactly supported diffeomorphism;
    analytic conveniences like the rigid rotation need ``validate=False``.
    Every time must be a finite float, or a rational that converts to one.
    """
    packed = []
    for h, t in terms:
        if not isinstance(h, RadialProfile):
            raise InputError("flow terms need RadialProfile entries")
        if validate and not h.is_disc_compatible():
            raise InputError(
                f"profile supported on {h.support} does not vanish near r=0 and r=1"
            )
        t = Fraction(t) if isinstance(t, (int, str, Fraction)) else t
        if not abs(t) <= sys.float_info.max:  # exact for a Fraction; False for inf and NaN
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


def radial_flow_apply(spec: FlowSpec, point, polar: bool = False):
    """Apply the time-one map of the flow to a point of the closed disc.

    ``point`` is Cartesian (x, y) by default, or (r, theta) with ``polar``.
    The radius is preserved exactly; the angle advances by the summed rates.
    """
    if polar:
        r, theta = float(point[0]), float(point[1])
        if r < 0 or r > 1 + 1e-12:
            raise InputError(f"radius {r} outside the closed unit disc")
        return (r, theta + float(spec.angular_rate_float(r * r)))
    x, y = float(point[0]), float(point[1])
    r2 = x * x + y * y
    if r2 > 1 + 1e-9:
        raise InputError(f"point {point} outside the closed unit disc")
    dtheta = float(spec.angular_rate_float(min(r2, 1.0)))
    c, s = math.cos(dtheta), math.sin(dtheta)
    return (c * x - s * y, s * x + c * y)


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
    """Exact coefficient c with Calabi value = pi * c; needs rational times."""
    if not spec.times_are_rational():
        raise InputError("exact Calabi value needs rational time coefficients")
    return sum((2 * Fraction(t) * h.moment(0) for h, t in spec.terms), Fraction(0))


def calabi(spec: FlowSpec) -> float:
    """Calabi value 2 sum_i t_i int_D H_i = 2 pi sum_i t_i int_0^1 h_i."""
    if spec.times_are_rational():
        return math.pi * float(calabi_coefficient(spec))
    return math.pi * sum(2.0 * float(t) * float(h.moment(0)) for h, t in spec.terms)


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
    no boundary term, so a rigid rotation works too.  Needs rational times.
    """
    if not spec.times_are_rational():
        raise InputError("exact signature response needs rational time coefficients")
    weight = signature_weight(n)
    total = Fraction(0)
    for h, t in spec.terms:
        d = h.derivative()
        for k, piece in enumerate(d.pieces):
            total += Fraction(t) * integral(mul(piece, weight), d.breakpoints[k], d.breakpoints[k + 1])
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
    t_max = max((abs(Fraction(t)) for _, t in spec.terms), default=Fraction(0))
    if t_max == 0:
        return t_max, []
    breakpoints = sorted({b for h, _ in spec.terms for b in h.breakpoints})
    pieces = []
    for lo, hi in zip(breakpoints, breakpoints[1:]):
        rate = (Fraction(0),)
        for h, t in spec.terms:
            d = h.derivative()
            piece = d.pieces[bisect.bisect_right(d.breakpoints, lo) - 1]
            rate = add(rate, tuple(Fraction(t) / t_max * c for c in piece))
        pieces.append((lo, hi, rate))
    return t_max, pieces


def lp_length_radial(spec: FlowSpec, p: float) -> float:
    """L^p length of the isotopy [0,1] ∋ s -> flow at times s*t_i.

    The speed field is autonomous, so the length is
    2 * pi^{1/p} * (int_0^1 y^{p/2} |sum_i t_i h_i'(y)|^p dy)^{1/p},
    evaluated as t_max times the same expression for the rate divided by
    t_max = max |t_i|, by adaptive quadrature split at the breakpoints of
    every term and at the sign changes of the combined rate.
    """
    check_lp_exponent(p)
    t_max, pieces = _unit_rate_pieces(spec)
    total = 0.0
    for a, b, rate in pieces:
        if not any(rate):
            continue
        coeffs = np.array([float(c) for c in reversed(rate)])
        edges = [float(a)] + real_roots(coeffs, float(a), float(b)) + [float(b)]
        for lo, hi in zip(edges, edges[1:]):
            quad_out = integrate.quad(
                lambda y: y ** (p / 2.0) * abs(np.polyval(coeffs, y)) ** p,
                lo,
                hi,
                epsabs=1e-14,
                epsrel=1e-12,
                limit=200,
                full_output=1,
            )
            total += quad_out[0]
    return float(t_max) * 2.0 * math.pi ** (1.0 / p) * total ** (1.0 / p)


def lp_speed_moment_exact(spec: FlowSpec, p: int) -> Fraction:
    """Exact int_0^1 y^{p/2} (sum_i 2 t_i h_i'(y))^p dy for even integer p.

    For even p the absolute value in the speed integrand is a polynomial,
    so the moment is an exact rational; the L^p length of the combined
    isotopy is pi^{1/p} * moment^{1/p}.
    """
    if p < 2 or p % 2 != 0:
        raise InputError("exact speed moments need even integer p >= 2")
    if not spec.times_are_rational():
        raise InputError("exact speed moments need rational time coefficients")
    t_max, pieces = _unit_rate_pieces(spec)
    total = Fraction(0)
    for lo, hi, rate in pieces:
        power_poly = (Fraction(1),)
        for _ in range(p):
            power_poly = mul(power_poly, rate)
        total += integral(shift(power_poly, p // 2), lo, hi)
    return (2 * t_max) ** p * total


def lp_length_exact_even(spec: FlowSpec, p: int) -> float:
    """Float L^p length from the exact even-p speed moment."""
    return math.pi ** (1.0 / p) * float(lp_speed_moment_exact(spec, p)) ** (1.0 / p)


def integrate_flow_numeric(profile: RadialProfile, t: float, point, step: float):
    """Implicit-midpoint integration of the Hamiltonian field of h(|x|^2).

    The field is v(x, y) = 2 h'(x^2 + y^2) * (-y, x).  Used only as an
    independent oracle for the closed-form flow; the scheme preserves the
    radius (a quadratic invariant) to solver tolerance and the area up to
    O(step^2).
    """
    if step <= 0:
        raise InputError("step must be positive")
    d = profile.derivative()
    breaks, coeffs = d.float_pieces

    def velocity(x, y):
        r2 = x * x + y * y
        idx = min(max(int(np.searchsorted(breaks, r2, side="right")) - 1, 0), len(coeffs) - 1)
        acc = 0.0
        for c in coeffs[idx][::-1]:
            acc = acc * r2 + c
        w = 2.0 * acc
        return -w * y, w * x

    x, y = float(point[0]), float(point[1])
    remaining = float(t)
    direction = 1.0 if remaining >= 0 else -1.0
    remaining = abs(remaining)
    while remaining > 1e-15:
        dt = direction * min(step, remaining)
        mx, my = x, y
        for _ in range(50):
            vx, vy = velocity(mx, my)
            nx, ny = x + 0.5 * dt * vx, y + 0.5 * dt * vy
            if abs(nx - mx) + abs(ny - my) < 1e-15:
                mx, my = nx, ny
                break
            mx, my = nx, ny
        vx, vy = velocity(mx, my)
        x, y = x + dt * vx, y + dt * vy
        remaining -= abs(dt)
    return (x, y)


# -- flow file format ------------------------------------------------------


def flow_to_json(spec: FlowSpec) -> str:
    terms = []
    for h, t in spec.terms:
        entry = {"profile": json.loads(profile_to_json(h))}
        if isinstance(t, Fraction):
            entry["time"] = [t.numerator, t.denominator]
        else:
            entry["time"] = float(t)
        terms.append(entry)
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
