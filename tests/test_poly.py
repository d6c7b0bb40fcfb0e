import math
from fractions import Fraction

import pytest

from discbraid.poly import bernstein, compose, evaluate

POLYS = {
    "constant": (Fraction(5, 3),),
    "linear": (Fraction(1, 2), Fraction(-1)),
    "cubic": (Fraction(3, 32), Fraction(-11, 16), Fraction(3, 2), Fraction(-1)),
    "quintic": (Fraction(-2), Fraction(0), Fraction(7, 5), Fraction(1, 9), Fraction(0), Fraction(-4, 3)),
}
INTERVALS = [(Fraction(0), Fraction(1)), (Fraction(1, 4), Fraction(3, 8)), (Fraction(-2, 3), Fraction(5, 7))]


@pytest.mark.parametrize("name", list(POLYS))
@pytest.mark.parametrize("lo, hi", INTERVALS)
def test_ends_are_the_values_at_the_ends(name, lo, hi):
    p = POLYS[name]
    b = bernstein(p, lo, hi)
    assert len(b) == len(p)
    assert b[0] == evaluate(p, lo) and b[-1] == evaluate(p, hi)


@pytest.mark.parametrize("name", list(POLYS))
@pytest.mark.parametrize("lo, hi", INTERVALS)
def test_bernstein_sum_gives_the_polynomial_back(name, lo, hi):
    p = POLYS[name]
    b = bernstein(p, lo, hi)
    d = len(b) - 1
    for u in (Fraction(0), Fraction(1, 3), Fraction(5, 11), Fraction(1)):
        total = sum(c * math.comb(d, j) * u**j * (1 - u) ** (d - j) for j, c in enumerate(b))
        assert total == evaluate(p, lo + (hi - lo) * u)



@pytest.mark.parametrize("name", list(POLYS))
@pytest.mark.parametrize("c0, c1", [(Fraction(1), Fraction(-1)), (Fraction(1, 4), Fraction(3, 8)), (Fraction(-2), Fraction(0))])
def test_compose_is_the_substitution(name, c0, c1):
    p = POLYS[name]
    q = compose(p, c0, c1)
    assert len(q) == len(p)
    for y in (Fraction(0), Fraction(1, 3), Fraction(-5, 11), Fraction(2)):
        assert evaluate(q, y) == evaluate(p, c0 + c1 * y)
