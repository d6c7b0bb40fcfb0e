import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discbraid.braids import (
    concat,
    format_braid_text,
    cyclic_reduce,
    free_reduce,
    is_pure,
    linking_matrix,
    linking_number,
    make_word,
    parse_braid_text,
    power,
    representative_length,
    word_permutation,
)
from discbraid.errors import InputError


def letters_strategy(n, max_len=12):
    gens = [i for i in range(1, n)] + [-i for i in range(1, n)]
    return st.lists(st.sampled_from(gens), max_size=max_len)


words = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: letters_strategy(n).map(lambda ls: make_word(ls, n))
)


class TestConstruction:
    def test_empty_word(self):
        w = make_word([], 3)
        assert w.letters == () and w.strands == 3

    def test_sigma1_squared(self):
        w = make_word([1, 1], 2)
        assert w.letters == (1, 1)

    def test_no_reduction_on_build(self):
        w = make_word([1, -1], 2)
        assert len(w) == 2
        assert representative_length(w) == 0

    @pytest.mark.parametrize("bad", [[2], [0], [-3]])
    def test_out_of_range_letters(self, bad):
        with pytest.raises(InputError):
            make_word(bad, 2)

    def test_too_few_strands(self):
        with pytest.raises(InputError):
            make_word([], 1)


class TestGroupOps:
    def test_concat_identity(self):
        w = make_word([1, -2], 3)
        assert concat(make_word([], 3), w).letters == w.letters

    def test_concat_strand_mismatch(self):
        with pytest.raises(InputError):
            concat(make_word([1], 2), make_word([1], 3))

    def test_concat_cancels_under_reduction(self):
        w = concat(make_word([1], 2), make_word([-1], 2))
        assert representative_length(w) == 0

    def test_power_examples(self):
        assert power(make_word([1], 2), 3).letters == (1, 1, 1)
        assert power(make_word([1, 2], 3), 0).letters == ()
        assert power(make_word([1, 2], 3), -1).letters == (-2, -1)

    def test_free_reduce_examples(self):
        assert free_reduce(make_word([1, -1, 2], 3)).letters == (2,)
        assert free_reduce(make_word([1, 2], 3)).letters == (1, 2)
        assert free_reduce(make_word([1, 2, -2, -1], 3)).letters == ()

    @given(words)
    def test_free_reduce_idempotent(self, w):
        once = free_reduce(w)
        assert free_reduce(once) == once

    def test_cyclic_reduce_examples(self):
        assert cyclic_reduce(make_word([2, 1, 1, -2], 3)).letters == (1, 1)
        assert cyclic_reduce(make_word([-1, 2, 1, -2, 1], 3)).letters == (1,)
        assert cyclic_reduce(make_word([1, 2, -2, -1], 3)).letters == ()
        assert cyclic_reduce(make_word([1, 2, 1], 3)).letters == (1, 2, 1)

    @given(words)
    def test_cyclic_reduce_is_reduced_and_conjugate(self, w):
        reduced = cyclic_reduce(w)
        assert free_reduce(reduced) == reduced and cyclic_reduce(reduced) == reduced
        letters = reduced.letters
        assert len(letters) < 2 or letters[0] != -letters[-1]
        # w freely equals u reduced u^-1 for the stripped prefix u
        prefix = free_reduce(w).letters[: (len(free_reduce(w)) - len(reduced)) // 2]
        u = make_word(prefix, w.strands)
        assert free_reduce(make_word(u.letters + letters + u.inverse().letters, w.strands)) == free_reduce(w)

    @given(words, st.integers(min_value=-4, max_value=4))
    def test_power_length_bound(self, w, k):
        assert representative_length(power(w, k)) <= abs(k) * representative_length(w)


class TestPermutations:
    def test_transposition(self):
        w = make_word([1], 2)
        assert word_permutation(w) == (2, 1)
        assert not is_pure(w)

    def test_pure_square(self):
        assert is_pure(make_word([1, 1], 2))

    @given(words)
    def test_free_reduce_preserves_permutation(self, w):
        assert word_permutation(free_reduce(w)) == word_permutation(w)

    @given(st.integers(min_value=2, max_value=5).flatmap(
        lambda n: st.tuples(letters_strategy(n), letters_strategy(n)).map(
            lambda pair: (make_word(pair[0], n), make_word(pair[1], n))
        )
    ))
    def test_permutation_homomorphism(self, pair):
        a, b = pair
        composed = word_permutation(concat(a, b))
        # travelling through a then b: slot after a feeds into b
        perm_a, perm_b = word_permutation(a), word_permutation(b)
        assert composed == tuple(perm_b[image - 1] for image in perm_a)


class TestLinking:
    def test_empty_word_zero(self):
        w = make_word([], 3)
        for i in range(1, 4):
            for j in range(i + 1, 4):
                assert linking_number(w, i, j) == 0

    def test_generator_square(self):
        assert linking_number(make_word([1, 1], 2), 1, 2) == 1

    @pytest.mark.parametrize("k", range(1, 11))
    def test_powers_additive(self, k):
        w = power(make_word([1, 1], 2), k)
        assert linking_number(w, 1, 2) == k

    def test_requires_pure(self):
        with pytest.raises(InputError):
            linking_number(make_word([1], 2), 1, 2)

    def test_symmetric_in_pair(self):
        w = make_word([1, 1, 2, 2, 1, 1], 3)
        if is_pure(w):
            assert linking_number(w, 1, 2) == linking_number(w, 2, 1)

    @given(words)
    def test_free_reduce_preserves_crossing_counts_mod_cancel(self, w):
        # free reduction removes +-1 pairs of the same strand pair, so the
        # signed pair counts are unchanged
        before = {k: v for k, v in linking_matrix(w).items() if v != 0}
        after = {k: v for k, v in linking_matrix(free_reduce(w)).items() if v != 0}
        assert before == after

    @given(st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(letters_strategy(n, 8), letters_strategy(n, 8)).map(
            lambda pair: (make_word(pair[0], n), make_word(pair[1], n))
        )
    ))
    @settings(max_examples=60)
    def test_crossing_counts_additive_with_tracking(self, pair):
        # signed pair counts of a concatenation: b's pairs are tracked
        # through a's permutation (plain additivity when a is pure)
        a, b = pair
        perm = word_permutation(a)
        counts_a = linking_matrix(a)
        counts_b = linking_matrix(b)
        combined = linking_matrix(concat(a, b))
        for i in range(1, a.strands + 1):
            for j in range(i + 1, a.strands + 1):
                tracked = tuple(sorted((perm[i - 1], perm[j - 1])))
                expected = counts_a.get((i, j), 0) + counts_b.get(tracked, 0)
                assert combined.get((i, j), 0) == expected

    @given(st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(letters_strategy(n, 8), letters_strategy(n, 8)).map(
            lambda pair: (make_word(pair[0], n), make_word(pair[1], n))
        )
    ))
    @settings(max_examples=60)
    def test_linking_additive_on_pure_pairs(self, pair):
        a, b = pair
        if not (is_pure(a) and is_pure(b)):
            return
        both = concat(a, b)
        for i in range(1, a.strands + 1):
            for j in range(i + 1, a.strands + 1):
                assert linking_number(both, i, j) == linking_number(
                    a, i, j
                ) + linking_number(b, i, j)


class TestTextFormat:
    def test_roundtrip(self):
        w = make_word([1, 1, -2], 3)
        assert parse_braid_text(format_braid_text(w)) == w

    def test_parse_example(self):
        assert parse_braid_text("3\n1 1 -2\n") == make_word([1, 1, -2], 3)

    def test_bad_header(self):
        with pytest.raises(InputError):
            parse_braid_text("x\n1\n")

    def test_bad_letter(self):
        with pytest.raises(InputError):
            parse_braid_text("3\n1 q\n")
