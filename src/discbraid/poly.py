"""Polynomial arithmetic on coefficient sequences, ascending degree.

Every profile, moment and speed-moment computation goes through these
helpers, so Fraction coefficients in give Fraction results out and the
quantities the theorems hinge on stay exact.  ``real_roots`` is the one
float helper: it places quadrature splits and critical-point candidates.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

Poly = tuple[Fraction, ...]  # coefficients, ascending degree


def evaluate(coeffs, y):
    """Horner evaluation at ``y`` (exact for Fractions, float for floats)."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def add(a, b) -> Poly:
    width = max(len(a), len(b))
    return tuple(
        (a[k] if k < len(a) else Fraction(0)) + (b[k] if k < len(b) else Fraction(0))
        for k in range(width)
    )


def mul(a, b) -> Poly:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        for j, cj in enumerate(b):
            out[i + j] += ci * cj
    return tuple(out)


def shift(coeffs, m: int) -> Poly:
    """Multiply by y^m."""
    return (Fraction(0),) * m + tuple(coeffs)


def derivative(coeffs) -> Poly:
    return tuple(c * k for k, c in enumerate(coeffs) if k > 0) or (Fraction(0),)


def antiderivative(coeffs) -> Poly:
    return (Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(coeffs))


def integral(coeffs, lo, hi):
    """Exact integral over [lo, hi]."""
    anti = antiderivative(coeffs)
    return evaluate(anti, hi) - evaluate(anti, lo)


def bernstein(coeffs, lo, hi) -> Poly:
    """Bernstein coefficients b_0..b_d of a degree-d polynomial on [lo, hi]:
    p(lo + (hi - lo) u) = sum_j b_j C(d, j) u^j (1 - u)^(d - j), so
    b_0 = p(lo) and b_d = p(hi).  Every basis term is positive for u in
    (0, 1), so b_j >= 0, not all 0, proves p > 0 on (lo, hi)."""
    shifted = ()  # p(lo + (hi - lo) u), ascending in u, by Horner's rule
    for c in reversed(coeffs):
        shifted = add(mul(shifted, (lo, hi - lo)), (c,))
    d = len(shifted) - 1
    return tuple(
        sum(Fraction(math.comb(j, k), math.comb(d, k)) * a for k, a in enumerate(shifted[: j + 1]))
        for j in range(d + 1)
    )


def real_roots(desc, lo: float, hi: float) -> list[float]:
    """Sorted real roots in the open interval (lo, hi) of a float polynomial
    given by its coefficients in *descending* degree (numpy's order)."""
    if len(desc) < 2:
        return []
    return sorted(float(r.real) for r in np.roots(desc) if abs(r.imag) < 1e-12 and lo < r.real < hi)
