import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discbraid.seifert as seifert_mod
from discbraid.braids import BraidWord, concat, cyclic_reduce, free_reduce, make_word, power
from discbraid.errors import InputError
from discbraid.seifert import SIGNATURE_CACHE, braid_signature, class_signature, matrix_signature, seifert_matrix


def random_word(rng, n, length):
    return make_word(
        [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)], n
    )


def reduced_word(rng, n, length):
    """A freely and cyclically reduced random word of exactly ``length`` letters."""
    while True:
        letters = []
        while len(letters) < length:
            letter = rng.choice([1, -1]) * rng.randint(1, n - 1)
            if not letters or letter != -letters[-1]:
                letters.append(letter)
        if length < 2 or letters[0] != -letters[-1]:
            return make_word(letters, n)


def kernel_signature(w):
    """The closure signature of the raw word, bypassing the class cache."""
    return matrix_signature(seifert_matrix(w).symmetrized())


def fraction_gauss_signature(rows) -> int:
    """Reference: symmetric Gauss elimination over Fractions, with the fold."""
    work = [[Fraction(x) for x in row] for row in rows]
    n = len(work)
    pos = neg = 0
    k = 0
    while k < n:
        pivot_row = next((i for i in range(k, n) if work[i][i] != 0), None)
        if pivot_row is None:
            hyper = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if work[i][j] != 0),
                None,
            )
            if hyper is None:
                break
            i, j = hyper
            for c in range(k, n):
                work[i][c] += work[j][c]
            for r in range(k, n):
                work[r][i] += work[r][j]
            pivot_row = i
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            for r in range(n):
                work[r][k], work[r][pivot_row] = work[r][pivot_row], work[r][k]
        pivot = work[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            factor = work[r][k] / pivot
            if factor != 0:
                for c in range(k, n):
                    work[r][c] -= factor * work[k][c]
        for r in range(k + 1, n):
            work[k][r] = work[r][k] = Fraction(0)
        k += 1
    return pos - neg


@st.composite
def symmetric_matrices(draw, entries):
    """Up to 10x10, sparse, diagonal mostly zero, so that the fold, zero
    blocks and rows left with a pending scale all occur."""
    n = draw(st.integers(min_value=0, max_value=10))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            m[i][i] = draw(entries)
        for j in range(i + 1, n):
            if draw(st.booleans()):
                m[i][j] = m[j][i] = draw(entries)
    return m


class TestSeifertMatrix:
    def test_hopf_link(self):
        assert seifert_matrix(make_word([1, 1], 2)).entries == ((-1,),)

    def test_trefoil(self):
        assert seifert_matrix(make_word([1, 1, 1], 2)).entries == ((-1, 1), (0, -1))
        sym = seifert_matrix(make_word([1, 1, 1], 2)).symmetrized()
        assert sym == ((-2, 1), (1, -2))

    def test_empty_word(self):
        assert seifert_matrix(make_word([], 3)).size == 0

    def test_size_formula(self):
        # size = letters - strands + component count of the band graph
        rng = random.Random(5)
        for _ in range(50):
            n = rng.choice([2, 3, 4, 5])
            w = random_word(rng, n, rng.randint(0, 12))
            used = {abs(l) for l in w.letters}
            components = n - len(used)
            assert seifert_matrix(w).size == len(w.letters) - n + components


class TestMatrixSignature:
    def test_one_by_one(self):
        assert matrix_signature([[-2]]) == -1

    def test_trefoil_form(self):
        assert matrix_signature([[-2, 1], [1, -2]]) == -2

    def test_zero_matrix(self):
        assert matrix_signature([[0, 0], [0, 0]]) == 0

    def test_hyperbolic_plane(self):
        assert matrix_signature([[0, 5], [5, 0]]) == 0

    def test_fold_of_rows_with_different_pending_scales(self):
        # row 3 is eliminated at the first pivot, row 2 is not; the fold
        # must bring both to the same scale before adding them
        m = [[-2, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, 3], [0, 2, 3, 0]]
        assert matrix_signature(m) == fraction_gauss_signature(m) == -1

    def test_requires_symmetry(self):
        with pytest.raises(InputError):
            matrix_signature([[0, 1], [0, 0]])

    def test_requires_square(self):
        with pytest.raises(InputError):
            matrix_signature([[1, 0]])

    @given(
        st.lists(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=80)
    def test_antisymmetry_and_bound(self, raw):
        sym = [[raw[i][j] + raw[j][i] for j in range(4)] for i in range(4)]
        neg = [[-x for x in row] for row in sym]
        assert matrix_signature(sym) + matrix_signature(neg) == 0
        assert abs(matrix_signature(sym)) <= 4

    @given(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=60)
    def test_against_float_eigenvalues(self, raw):
        sym = [[raw[i][j] + raw[j][i] for j in range(3)] for i in range(3)]
        eigs = np.linalg.eigvalsh(np.array(sym, dtype=float))
        if np.min(np.abs(eigs)) < 1e-8:
            return  # float oracle unreliable at a kernel; exact path is the point
        oracle = int(np.sum(eigs > 0) - np.sum(eigs < 0))
        assert matrix_signature(sym) == oracle

    @given(symmetric_matrices(st.integers(min_value=-3, max_value=3)))
    @settings(max_examples=300, deadline=None)
    def test_integer_matches_fraction_reference(self, m):
        assert matrix_signature(m) == fraction_gauss_signature(m)

    @pytest.mark.parametrize(
        "entry", [Fraction(1, 2), Fraction(2), 2.0, True, np.int64(2)], ids=["half", "whole-fraction", "float", "bool", "int64"]
    )
    def test_non_integer_entries_rejected(self, entry):
        # the kernel takes the integer Seifert form only
        with pytest.raises(InputError, match="matrix entries must be integers"):
            matrix_signature([[1, entry], [entry, 0]])


class TestBraidSignature:
    def test_hopf(self):
        assert braid_signature(make_word([1, 1], 2)) == -1

    def test_trefoil(self):
        assert braid_signature(make_word([1, 1, 1], 2)) == -2

    def test_empty(self):
        assert braid_signature(make_word([], 4)) == 0

    @pytest.mark.parametrize("k", range(1, 21))
    def test_torus_family(self, k):
        assert braid_signature(make_word([1] * (2 * k), 2)) == 1 - 2 * k

    def test_figure_eight(self):
        assert braid_signature(make_word([1, -2, 1, -2], 3)) == 0

    def test_torus_3_4(self):
        assert braid_signature(power(make_word([1, 2], 3), 4)) == -6

    def test_torus_3_5(self):
        assert braid_signature(power(make_word([1, 2], 3), 5)) == -8

    def test_split_union_additive(self):
        for k1 in range(1, 4):
            for k2 in range(1, 4):
                w = make_word([1] * k1 + [3] * k2, 4)
                assert braid_signature(w) == -(k1 - 1) - (k2 - 1)

    def test_connected_sum_additive(self):
        for k1 in range(1, 4):
            for k2 in range(1, 4):
                w = make_word([1] * k1 + [2] * k2, 3)
                assert braid_signature(w) == -(k1 - 1) - (k2 - 1)

    # The invariance battery runs on the kernel of the raw words: the cached
    # braid_signature gives both sides of these identities one class key.
    def test_free_reduction_invariance(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.choice([2, 3, 4])
            w = random_word(rng, n, rng.randint(0, 10))
            assert kernel_signature(free_reduce(w)) == kernel_signature(w)

    def test_conjugation_invariance(self):
        rng = random.Random(13)
        for _ in range(120):
            n = rng.choice([3, 4])
            a = random_word(rng, n, rng.randint(0, 10))
            w = random_word(rng, n, rng.randint(1, 6))
            conj = concat(concat(w, a), w.inverse())
            assert kernel_signature(conj) == kernel_signature(a)

    def test_markov_stabilization(self):
        rng = random.Random(17)
        for _ in range(80):
            n = rng.choice([2, 3])
            a = random_word(rng, n, rng.randint(0, 8))
            wide = BraidWord(n + 1, a.letters)
            for s in (1, -1):
                stab = concat(wide, make_word([s * n], n + 1))
                assert kernel_signature(stab) == kernel_signature(a)

    def test_mirror_antisymmetry(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.choice([2, 3, 4])
            w = random_word(rng, n, rng.randint(0, 10))
            assert kernel_signature(w.mirror()) == -kernel_signature(w)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_long_words_match_fraction_reference(self, data):
        # draw the length first: plain st.lists rarely passes 20 letters
        length = data.draw(st.integers(min_value=0, max_value=80))
        letters = data.draw(
            st.lists(st.sampled_from([1, 2, -1, -2]), min_size=length, max_size=length)
        )
        w = make_word(letters, 3)
        expected = fraction_gauss_signature(seifert_matrix(w).symmetrized())
        assert braid_signature(w) == expected


class TestSignatureCache:
    def test_class_key_matches_the_kernel(self):
        # every rotation and the cyclic reduction of a word are conjugates,
        # so each must give the kernel's value of the raw word
        rng = random.Random(23)
        words = [random_word(rng, rng.randint(2, 5), rng.randint(0, 80)) for _ in range(60)]
        reduced_lengths = set()
        for w in words:
            expected = kernel_signature(w)
            reduced = cyclic_reduce(w)
            reduced_lengths.add(len(reduced))
            assert braid_signature(w) == braid_signature(reduced) == expected
            for i in range(len(w)):
                rotation = BraidWord(w.strands, w.letters[i:] + w.letters[:i])
                assert braid_signature(rotation) == expected
        assert min(reduced_lengths) == 0 and max(reduced_lengths) > 40

    def test_conjugates_share_one_entry(self):
        rng = random.Random(31)
        a = reduced_word(rng, 4, 12)
        conjugates = [concat(concat(w, a), w.inverse()) for w in (random_word(rng, 4, 5) for _ in range(20))]
        conjugates += [BraidWord(4, a.letters[i:] + a.letters[:i]) for i in range(len(a))]
        class_signature.cache_clear()
        assert {braid_signature(w) for w in conjugates} == {kernel_signature(a)}
        assert class_signature.cache_info().misses == 1

    def test_cache_stays_bounded(self, monkeypatch):
        assert class_signature.cache_info().maxsize == SIGNATURE_CACHE
        small = lru_cache(maxsize=8)(class_signature.__wrapped__)
        monkeypatch.setattr(seifert_mod, "class_signature", small)
        rng = random.Random(29)
        for _ in range(60):
            w = random_word(rng, 4, rng.randint(0, 20))
            assert braid_signature(w) == kernel_signature(w)
            assert small.cache_info().currsize <= 8
        assert small.cache_info().currsize == 8
