"""Words in the Artin generators of the braid group on n strands.

A word is a sequence of signed generator indices: the letter ``+i`` is the
elementary crossing of the strands in slots ``i`` and ``i+1`` (1-based,
``1 <= i <= n-1``) and ``-i`` is its inverse.  Words are kept verbatim; the
only normalizations ever applied are free reduction (cancelling adjacent
``+i, -i`` pairs), which gives a cheap upper bound on the geodesic word
length, and cyclic reduction, which also cancels a first letter against
the last (a conjugation, so the closure is unchanged).  Group-element
equality is deliberately out of scope — invariants (permutation, linking
numbers, closure signature) are what the rest of the package consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError

__all__ = [
    "BraidWord",
    "make_word",
    "concat",
    "power",
    "free_reduce",
    "cyclic_reduce",
    "representative_length",
    "word_permutation",
    "is_pure",
    "linking_number",
    "linking_matrix",
    "parse_word",
    "parse_braid_text",
    "format_braid_text",
]


MAX_STRANDS = 2**15  # most strands a parsed word may have, as for an estimate


@dataclass(frozen=True)
class BraidWord:
    """An Artin-generator word on ``strands`` strands."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 2:
            raise InputError(f"need at least 2 strands, got {self.strands}")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.strands - 1:
                raise InputError(
                    f"letter {letter} out of range for {self.strands} strands"
                )

    def __len__(self):
        return len(self.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-l for l in reversed(self.letters)))

    def mirror(self) -> "BraidWord":
        """Flip every crossing; the closure becomes the mirror link."""
        return BraidWord(self.strands, tuple(-l for l in self.letters))


def make_word(letters, n: int) -> BraidWord:
    """Build a word verbatim (no reduction) from signed generator indices."""
    return BraidWord(n, tuple(int(l) for l in letters))


def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.strands != b.strands:
        raise InputError(f"strand counts differ: {a.strands} vs {b.strands}")
    return BraidWord(a.strands, a.letters + b.letters)


def power(a: BraidWord, k: int) -> BraidWord:
    if k >= 0:
        return BraidWord(a.strands, a.letters * k)
    return BraidWord(a.strands, a.inverse().letters * (-k))


def _freely_reduced(letters: tuple[int, ...]) -> list[int]:
    stack: list[int] = []
    for letter in letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return stack


def free_reduce(a: BraidWord) -> BraidWord:
    return BraidWord(a.strands, tuple(_freely_reduced(a.letters)))


def cyclic_reduce(a: BraidWord) -> BraidWord:
    """Free reduction, then the end pairs (l, -l) stripped: a conjugate of
    ``a`` with the same closure, freely and cyclically reduced."""
    letters = _freely_reduced(a.letters)
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo, hi = lo + 1, hi - 1
    return BraidWord(a.strands, tuple(letters[lo:hi]))


def representative_length(a: BraidWord) -> int:
    """Letter count after free reduction; an upper bound on geodesic length."""
    return len(free_reduce(a))


def word_permutation(a: BraidWord) -> tuple[int, ...]:
    """Permutation sending a strand's start slot to its end slot, as the
    tuple of the 1-based images of slots 1..n."""
    # slots[p] = strand currently occupying slot p (0-based slots).
    slots = list(range(1, a.strands + 1))
    for letter in a.letters:
        i = abs(letter) - 1
        slots[i], slots[i + 1] = slots[i + 1], slots[i]
    images = [0] * a.strands
    for slot_index, strand in enumerate(slots):
        images[strand - 1] = slot_index + 1
    return tuple(images)


def is_pure(a: BraidWord) -> bool:
    return word_permutation(a) == tuple(range(1, a.strands + 1))


def linking_matrix(a: BraidWord) -> dict[tuple[int, int], int]:
    """Signed crossing count for each strand pair {i, j}, keyed by (i<j).

    Strands are labelled by their start slot.  Each letter crosses the two
    strands currently occupying the involved slots and contributes its sign.
    """
    slots = list(range(1, a.strands + 1))
    counts: dict[tuple[int, int], int] = {}
    for letter in a.letters:
        i = abs(letter) - 1
        u, v = slots[i], slots[i + 1]
        key = (u, v) if u < v else (v, u)
        counts[key] = counts.get(key, 0) + (1 if letter > 0 else -1)
        slots[i], slots[i + 1] = slots[i + 1], slots[i]
    return counts


def linking_number(a: BraidWord, i: int, j: int) -> int:
    """Half the signed crossing count of strands starting at slots i and j.

    Defined for pure braids, where it is an additive homomorphism (the
    (i, j) coordinate of the abelianization).
    """
    if i == j:
        raise InputError("linking number needs two distinct strands")
    if not (1 <= i <= a.strands and 1 <= j <= a.strands):
        raise InputError(f"strand out of range for {a.strands} strands")
    if not is_pure(a):
        raise InputError("linking number is only defined for pure braids")
    key = (i, j) if i < j else (j, i)
    crossings = linking_matrix(a).get(key, 0)
    # A pure braid crosses any fixed pair an even number of times.
    assert crossings % 2 == 0
    return crossings // 2


def parse_braid_text(text: str) -> BraidWord:
    """Read the braid text format: strand count line, then signed letters.

    Example::

        3
        1 1 -2
    """
    lines = [line for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")]
    if not lines:
        raise InputError("empty braid text")
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise InputError(f"bad strand-count header: {lines[0]!r}") from exc
    return parse_word(" ".join(lines[1:]), n)


def parse_word(text: str, n: int) -> BraidWord:
    """Word on n strands from whitespace-separated signed letters, e.g. '1 1 -2'.

    InputError above MAX_STRANDS strands, before any per-strand work.
    """
    if n > MAX_STRANDS:
        raise InputError(f"need at most {MAX_STRANDS} strands, got {n}")
    tokens = text.split()
    try:
        letters = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise InputError(f"bad letter in braid text: {tokens!r}") from exc
    return make_word(letters, n)


def format_braid_text(a: BraidWord) -> str:
    body = " ".join(str(l) for l in a.letters)
    return f"{a.strands}\n{body}\n"
