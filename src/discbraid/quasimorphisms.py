"""Quasi-morphisms on braid groups and their homogenization.

A quasi-morphism is wrapped as an evaluator from words to exact rationals,
optionally with a declared defect bound D (the sup of the homomorphism error
|phi(ab) - phi(a) - phi(b)|).  Homogenization estimates lim phi(a^k)/k along
the doubling sequence k = 1, 2, 4, ...; because phi(a^k) is exactly affine
in k for the families we care about (torus powers under the closure
signature, any homomorphism), the limit is recovered from the slope
(phi(a^{2k}) - phi(a^k)) / k, which Richardson-cancels the constant term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from .braids import BraidWord, free_reduce, linking_number, power
from .errors import InputError
from .seifert import braid_signature

__all__ = [
    "QuasimorphismSpec",
    "HomogenizedValue",
    "homogenize",
    "sample_defect",
    "linking_quasimorphism",
    "signature_quasimorphism",
]


@dataclass(frozen=True)
class QuasimorphismSpec:
    """A real-valued quasi-morphism on braid words.

    ``strands`` is the 1-based pair (i, j) of a linking-number spec, which
    the estimator evaluates in closed form, and None for every other spec.
    Specs pickle, evaluator included, so estimator workers receive them as
    they are.
    """

    name: str
    evaluator: Callable[[BraidWord], Fraction]
    declared_defect_bound: Optional[Fraction] = None
    strands: Optional[tuple[int, int]] = None

    def __call__(self, a: BraidWord) -> Fraction:
        return Fraction(self.evaluator(a))


@dataclass(frozen=True)
class HomogenizedValue:
    value: Fraction
    error_bound: Optional[Fraction]  # None: unknown (under two slopes, no declared defect)
    k_used: int
    evaluations: tuple[tuple[int, Fraction], ...] = field(default=())


def homogenize(
    phi: QuasimorphismSpec,
    a: BraidWord,
    k_max: int,
    tol: Fraction = Fraction(0),
    length_cap: int = 4096,
) -> HomogenizedValue:
    """Estimate the homogenization lim phi(a^k)/k.

    Walks k through 1, 2, 4, ... up to ``k_max`` (or until the freely reduced
    word length would exceed ``length_cap``).  If the first two ratios agree
    exactly, phi already behaves as a homomorphism on this element and the
    value is returned at k_used = 1.  Otherwise consecutive slopes
    (phi(a^{2k}) - phi(a^k)) / k are compared and the walk stops once they
    are within ``tol`` of each other.

    The error bound is the telescoping bound 2*D/k when a defect bound D was
    declared, the last observed slope difference otherwise, and None
    (unknown) when neither exists.
    """
    if k_max < 2:
        raise InputError("k_max must be at least 2")
    tol = Fraction(tol)

    ks = [1]
    while ks[-1] * 2 <= k_max:
        ks.append(ks[-1] * 2)

    values: list[tuple[int, Fraction]] = []
    for k in ks:
        word_k = free_reduce(power(a, k))
        if values and len(word_k) > length_cap:
            break
        values.append((k, Fraction(phi(word_k))))
    if len(values) >= 2:
        (k1, f1), (k2, f2) = values[0], values[1]
        if f2 / k2 == f1 / k1:
            return HomogenizedValue(f1 / k1, Fraction(0), 1, tuple(values[:2]))

    # (base k, slope over [k, 2k]); phi(a) alone when a^2 is over the length cap
    slopes: list[tuple[int, Fraction]] = [] if len(values) >= 2 else [values[0]]
    for (ka, fa), (kb, fb) in zip(values, values[1:]):
        slopes.append((ka, (fb - fa) / (kb - ka)))
        if len(slopes) >= 2 and abs(slopes[-1][1] - slopes[-2][1]) <= tol:
            break

    k_used, value = slopes[-1]
    if phi.declared_defect_bound is not None:
        error = 2 * Fraction(phi.declared_defect_bound) / k_used
    else:
        error = abs(slopes[-1][1] - slopes[-2][1]) if len(slopes) >= 2 else None
    return HomogenizedValue(value, error, k_used, tuple(values))


def sample_defect(
    phi: QuasimorphismSpec,
    word_sampler: Callable,
    trials: int,
    seed: int,
) -> Fraction:
    """Largest homomorphism error observed on sampled word pairs.

    This is a lower bound for the true defect.  ``word_sampler`` is called
    with a ``random.Random`` instance and must return a BraidWord; trials are
    keyed individually off ``seed`` so the result does not depend on
    evaluation order.
    """
    import random

    if trials < 1:
        raise InputError("need at least one trial")
    worst = Fraction(0)
    for t in range(trials):
        rng = random.Random((seed << 20) ^ t)
        a = word_sampler(rng)
        b = word_sampler(rng)
        gap = abs(phi(a.__class__(a.strands, a.letters + b.letters)) - phi(a) - phi(b))
        worst = max(worst, gap)
    return worst


def _linking_value(a: BraidWord, i: int, j: int) -> Fraction:
    return Fraction(linking_number(a, i, j))


def _signature_value(a: BraidWord) -> Fraction:
    return Fraction(braid_signature(a))


def linking_quasimorphism(i: int = 1, j: int = 2) -> QuasimorphismSpec:
    """The (i, j) linking number, a homomorphism on pure braids."""
    return QuasimorphismSpec(
        name=f"lk[{i},{j}]",
        evaluator=partial(_linking_value, i=i, j=j),
        declared_defect_bound=Fraction(0),
        strands=(i, j),
    )


def signature_quasimorphism() -> QuasimorphismSpec:
    """Signature of the braid closure, a quasi-morphism on braid groups."""
    return QuasimorphismSpec(name="signature", evaluator=_signature_value)
