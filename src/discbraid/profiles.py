"""Radial Hamiltonian profiles as exact piecewise polynomials on [0, 1].

A profile h defines the disc Hamiltonian H(x) = h(|x|^2).  Coefficients and
breakpoints are Fractions so that the quantities the theorems hinge on
(Calabi integral, signature moments, the sign conditions of the bump
family) are computed exactly; a compiled float view is used for anything
that only feeds numerics (trajectory sampling, quadrature).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InputError
from .poly import Poly, add, derivative, evaluate, integral, mul, real_roots, shift

__all__ = [
    "RadialProfile",
    "zero_profile",
    "polynomial_bump",
    "rotation_profile",
    "make_hs_profile",
    "profile_to_json",
    "profile_from_json",
]


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise polynomial h: [0,1] -> R with exact rational coefficients.

    ``breakpoints`` runs from 0 to 1; ``pieces[k]`` is the polynomial on
    [breakpoints[k], breakpoints[k+1]].  ``smoothness_class`` asserts that
    the pieces agree to that many derivatives at the interior breakpoints,
    which is checked at construction.
    """

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Poly, ...]
    smoothness_class: int = 1

    def __post_init__(self):
        bps = tuple(Fraction(b) for b in self.breakpoints)
        pieces = tuple(tuple(Fraction(c) for c in piece) for piece in self.pieces)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pieces)
        if len(bps) < 2 or len(pieces) != len(bps) - 1:
            raise InputError("breakpoints and pieces do not line up")
        if bps[0] != 0 or bps[-1] != 1:
            raise InputError("profile must cover exactly [0, 1]")
        if any(b1 <= b0 for b0, b1 in zip(bps, bps[1:])):
            raise InputError("breakpoints must be strictly increasing")
        d_pieces = pieces
        # past the highest degree every derivative vanishes, so a huge class ends early
        for order in range(min(self.smoothness_class, max(map(len, pieces))) + 1):
            for k in range(len(d_pieces) - 1):
                knot = bps[k + 1]
                left = evaluate(d_pieces[k], knot)
                right = evaluate(d_pieces[k + 1], knot)
                if left != right:
                    raise InputError(
                        f"derivative of order {order} jumps at y={knot}: {left} vs {right}"
                    )
            d_pieces = tuple(derivative(p) for p in d_pieces)

    # -- exact queries ----------------------------------------------------

    def value(self, y) -> Fraction:
        y = Fraction(y)
        if not 0 <= y <= 1:
            raise InputError(f"radial coordinate {y} outside [0, 1]")
        for k in range(len(self.pieces)):
            if y <= self.breakpoints[k + 1]:
                return Fraction(evaluate(self.pieces[k], y))
        return Fraction(evaluate(self.pieces[-1], y))

    def derivative(self) -> "RadialProfile":
        return self._derivative

    @cached_property
    def _derivative(self) -> "RadialProfile":
        return RadialProfile(
            self.breakpoints,
            tuple(derivative(p) for p in self.pieces),
            max(self.smoothness_class - 1, 0),
        )

    def moment(self, m: int) -> Fraction:
        """Exact integral of y^m h(y) over [0, 1]."""
        if m < 0:
            raise InputError("moment order must be nonnegative")
        total = Fraction(0)
        for k, piece in enumerate(self.pieces):
            total += integral(shift(piece, m), self.breakpoints[k], self.breakpoints[k + 1])
        return total

    @property
    def support(self) -> tuple[Fraction, Fraction] | None:
        """Closure of {h != 0}; None for the zero profile."""
        lo = hi = None
        for k, piece in enumerate(self.pieces):
            if any(c != 0 for c in piece):
                if lo is None:
                    lo = self.breakpoints[k]
                hi = self.breakpoints[k + 1]
        if lo is None:
            return None
        return (lo, hi)

    def is_disc_compatible(self) -> bool:
        """True when the flow is the identity near the centre and boundary."""
        sup = self.support
        return sup is None or (sup[0] > 0 and sup[1] < 1)

    # -- compiled float views ---------------------------------------------

    @cached_property
    def float_pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """(breaks, coeffs): the breakpoints as floats, and row k holding the
        float coefficients of piece k, lowest degree first, zero-padded to a
        common degree.  Built once per profile for float evaluation."""
        breaks = np.array([float(b) for b in self.breakpoints])
        deg = max(len(p) for p in self.pieces)
        coeffs = np.zeros((len(self.pieces), deg))
        for k, piece in enumerate(self.pieces):
            coeffs[k, : len(piece)] = [float(c) for c in piece]
        return breaks, coeffs

    def eval_float(self, y):
        """Vectorized float evaluation of h on arrays of y in [0, 1]."""
        breaks, coeffs = self.float_pieces
        y = np.asarray(y, dtype=float)
        idx = np.clip(np.searchsorted(breaks, y, side="right") - 1, 0, len(self.pieces) - 1)
        acc = np.zeros_like(y)
        for power_ in range(coeffs.shape[1] - 1, -1, -1):
            acc = acc * y + coeffs[idx, power_]
        return acc

    @cached_property
    def max_abs_derivative(self) -> float:
        """Float bound on |h'| over [0, 1], from piece critical points."""
        best = 0.0
        breaks, coeffs = self.derivative().float_pieces
        for a, b, row in zip(breaks.tolist(), breaks[1:].tolist(), coeffs):
            # critical points strictly inside; the ends are candidates anyway
            for y in [a, b] + real_roots(np.polyder(row[::-1]), a, b):
                best = max(best, abs(float(evaluate(row, y))))
        return best


def zero_profile() -> RadialProfile:
    return RadialProfile((Fraction(0), Fraction(1)), ((Fraction(0),),), 1)


def polynomial_bump(a, b, scale=1) -> RadialProfile:
    """Quartic bump scale*(y-a)^2 (b-y)^2 supported on [a, b], C^1 at the ends."""
    a, b, scale = Fraction(a), Fraction(b), Fraction(scale)
    if not 0 <= a < b <= 1:
        raise InputError(f"bad bump support [{a}, {b}]")
    prod = mul((a * a, -2 * a, Fraction(1)), (b * b, -2 * b, Fraction(1)))
    piece = tuple(scale * c for c in prod)
    breakpoints = [Fraction(0), a, b, Fraction(1)]
    pieces = [(Fraction(0),), piece, (Fraction(0),)]
    if a == 0:
        breakpoints.pop(0)
        pieces.pop(0)
    if b == 1:
        breakpoints.pop()
        pieces.pop()
    return RadialProfile(tuple(breakpoints), tuple(pieces), 1)


def rotation_profile(alpha=1) -> RadialProfile:
    """h(y) = alpha*y/2, whose time-t flow is the rigid rotation by alpha*t.

    Not supported away from the boundary: only valid in unchecked flows.
    """
    alpha = Fraction(alpha)
    return RadialProfile((Fraction(0), Fraction(1)), ((Fraction(0), alpha / 2),), 1)


def make_hs_profile(s) -> RadialProfile:
    """Zero-mean bump family h_s, s in [1/4, 1/3].

    Supported exactly on [1/2-s, 1/2+s]; positive left of 1/2 and negative
    right of it; all members share the linear core 1/2 - y on [3/8, 5/8] and
    are odd about y = 1/2, which makes the mean vanish exactly and forces
    the first moment of y*h_s negative.  Flanks are cubics with a double
    root at the support edge, so the family is C^1.
    """
    s = Fraction(s)
    if not Fraction(1, 4) <= s <= Fraction(1, 3):
        raise InputError(f"s={s} outside [1/4, 1/3]")
    a = Fraction(1, 2) - s
    w = Fraction(3, 8) - a  # flank width, in [1/8, 5/24]
    # Left flank f(y) = (y-a)^2 (p*y + q) with f(3/8) = 1/8, f'(3/8) = -1.
    p = -(4 * w + 1) / (4 * w**3)
    q = Fraction(1, 8) / w**2 - p * Fraction(3, 8)
    left = mul((a * a, -2 * a, Fraction(1)), (q, p))
    # Right flank is the odd reflection -f(1 - y) about y = 1/2.
    right = _reflect_poly(left)
    core = (Fraction(1, 2), Fraction(-1))  # 1/2 - y
    breakpoints = (
        Fraction(0),
        a,
        Fraction(3, 8),
        Fraction(5, 8),
        1 - a,
        Fraction(1),
    )
    pieces = ((Fraction(0),), left, core, right, (Fraction(0),))
    return RadialProfile(breakpoints, pieces, 1)


def _reflect_poly(coeffs: Poly) -> Poly:
    """-f(1 - y), by Horner's rule in 1 - y."""
    out = (-coeffs[-1],)
    for c in reversed(coeffs[:-1]):
        out = add(mul(out, (Fraction(1), Fraction(-1))), (-c,))
    return out


# -- file format ----------------------------------------------------------


def _frac_pair(x: Fraction):
    return [x.numerator, x.denominator]


def profile_to_json(profile: RadialProfile) -> str:
    doc = {
        "breakpoints": [_frac_pair(b) for b in profile.breakpoints],
        "pieces": [[_frac_pair(c) for c in piece] for piece in profile.pieces],
        "smoothness_class": profile.smoothness_class,
    }
    return json.dumps(doc, indent=2)


def profile_from_json(text: str) -> RadialProfile:
    try:
        doc = json.loads(text)
        breakpoints = tuple(Fraction(n, d) for n, d in doc["breakpoints"])
        pieces = tuple(
            tuple(Fraction(n, d) for n, d in piece) for piece in doc["pieces"]
        )
        smoothness = int(doc.get("smoothness_class", 1))
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"malformed profile document: {exc}") from exc
    return RadialProfile(breakpoints, pieces, smoothness)
