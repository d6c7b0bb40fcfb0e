"""Seifert matrices and signatures of braid closure links.

The closure of a braid word bounds the canonical Seifert surface built from
one disc per strand and one half-twisted band per letter.  A basis of first
homology is given by one loop for every pair of *consecutive* bands joining
the same pair of discs; the Seifert linking form of that basis is filled in
from local rules (derived by hand for the generator pairs, and pinned by the
invariance battery in the tests: closure signature must survive conjugation,
word reversal, mirror negation, and Markov stabilization, and reproduce the
standard (2,m) torus-link values).

Signatures are computed by exact integer fraction-free elimination;
floating-point inertia is not trusted anywhere near a zero eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .braids import BraidWord
from .errors import InputError

__all__ = ["SeifertMatrix", "seifert_matrix", "matrix_signature", "braid_signature"]


@dataclass(frozen=True)
class SeifertMatrix:
    """Integer Seifert form V; the closure's signature is sign(V + V^T)."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def symmetrized(self) -> tuple[tuple[int, ...], ...]:
        n = self.size
        return tuple(
            tuple(self.entries[r][c] + self.entries[c][r] for c in range(n))
            for r in range(n)
        )


def seifert_matrix(a: BraidWord) -> SeifertMatrix:
    """Seifert form of the closure of ``a`` on the canonical surface.

    The basis loop for consecutive occurrences j, j+1 of generator i runs
    through band j, along disc i+1, back through band j+1, and home along
    disc i.  Entry rules (e = crossing sign of the relevant band):

    * a loop over bands with signs (e1, e2) has self-linking -(e1+e2)/2;
    * loops sharing band b on one column contribute (e(b)+1)/2 above the
      diagonal and (e(b)-1)/2 below;
    * loops on adjacent columns interact only when their band intervals
      interleave, contributing a single +1 or -1 split across the two
      slots according to which interval starts first.
    """
    occurrences: dict[int, list[tuple[int, int]]] = {}
    for pos, letter in enumerate(a.letters):
        occurrences.setdefault(abs(letter), []).append((pos, 1 if letter > 0 else -1))

    # loops[k] = (column, start position, end position, start sign, end sign)
    loops: list[tuple[int, int, int, int, int]] = []
    for column in sorted(occurrences):
        bands = occurrences[column]
        for (p0, e0), (p1, e1) in zip(bands, bands[1:]):
            loops.append((column, p0, p1, e0, e1))

    m = len(loops)
    v = [[0] * m for _ in range(m)]
    for r, (col_r, a0, a1, ea0, ea1) in enumerate(loops):
        v[r][r] = -(ea0 + ea1) // 2
        for c in range(r + 1, m):
            col_c, b0, b1, eb0, eb1 = loops[c]
            if col_c == col_r:
                if b0 == a1:
                    # consecutive loops sharing the band at a1 (sign ea1 == eb0)
                    v[r][c] = (ea1 + 1) // 2
                    v[c][r] = (ea1 - 1) // 2
            elif abs(col_c - col_r) == 1:
                if a0 < b0 < a1 < b1:
                    v[c][r] = -1 if col_c == col_r + 1 else 1
                elif b0 < a0 < b1 < a1:
                    v[r][c] = 1 if col_c == col_r + 1 else -1
    return SeifertMatrix(tuple(tuple(row) for row in v))


def matrix_signature(rows) -> int:
    """Signature (p - q of the inertia) of a symmetric matrix, exactly.

    Accepts any square nested sequence of ints/Fractions; entries are
    checked for symmetry.  Rational input is first scaled by the positive
    lcm of its denominators, which keeps the inertia, so the elimination
    runs on integers only.  It is symmetric fraction-free (Bareiss)
    elimination by congruence: after each step the active block is d times
    the true Schur complement, d the previous pivot, so every division is
    exact and the true pivot p/d has the sign of p*d.  Rows with nothing to
    eliminate keep a pending scale instead of being rewritten, so long
    sparse (banded) Seifert matrices cost O(n^2), not O(n^3).  An all-zero
    diagonal is fixed by folding one row/column into another to expose a
    pivot.
    """
    work = [list(row) for row in rows]
    n = len(work)
    for row in work:
        if len(row) != n:
            raise InputError("matrix is not square")
    if not all(type(x) is int for row in work for x in row):
        work = [[Fraction(x) for x in row] for row in work]
        lcd = lcm(*(x.denominator for row in work for x in row))
        work = [[x.numerator * (lcd // x.denominator) for x in row] for row in work]
    for r in range(n):
        for c in range(r + 1, n):
            if work[r][c] != work[c][r]:
                raise InputError("matrix is not symmetric")

    signature = 0
    d = 1
    # A row whose pivot-column entry is zero only gains the factor p/d in a
    # step; it is left alone and its true entries are stored * d / scale[r].
    scale = [1] * n

    def settle(r):
        if scale[r] != d:
            work[r] = [x * d // scale[r] for x in work[r]]
            scale[r] = d

    k = 0
    while k < n:
        pivot_row = next((i for i in range(k, n) if work[i][i] != 0), None)
        if pivot_row is None:
            hyper = next(
                (
                    (i, j)
                    for i in range(k, n)
                    for j in range(i + 1, n)
                    if work[i][j] != 0
                ),
                None,
            )
            if hyper is None:
                break  # remaining block is zero
            i, j = hyper
            settle(i)
            settle(j)
            # Congruence: add row/col j into row/col i, making work[i][i] != 0.
            for c in range(k, n):
                work[i][c] += work[j][c]
            for r in range(k, n):
                work[r][i] += work[r][j]
            pivot_row = i
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            scale[k], scale[pivot_row] = scale[pivot_row], scale[k]
            for r in range(k, n):
                work[r][k], work[r][pivot_row] = work[r][pivot_row], work[r][k]
        settle(k)
        row_k = work[k]
        p = row_k[k]
        signature += 1 if (p > 0) == (d > 0) else -1
        # Rows and columns up to k are finished and never read again.
        tail_k = row_k[k + 1 :]
        for r in range(k + 1, n):
            if work[r][k] == 0:
                continue
            settle(r)
            row_r = work[r]
            f = row_r[k]
            row_r[k + 1 :] = [(p * x - f * y) // d for x, y in zip(row_r[k + 1 :], tail_k)]
            scale[r] = p
        d = p
        k += 1
    return signature


def braid_signature(a: BraidWord) -> int:
    """Signature of the closure link of ``a``."""
    return matrix_signature(seifert_matrix(a).symmetrized())
