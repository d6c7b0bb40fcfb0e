import pickle
from fractions import Fraction

import pytest

from discbraid.braids import is_pure, make_word, power
from discbraid.errors import InputError
from discbraid.quasimorphisms import (
    homogenize,
    linking_quasimorphism,
    sample_defect,
    signature_quasimorphism,
)


def random_pure_word(rng, n, length):
    while True:
        w = make_word(
            [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)], n
        )
        if is_pure(w):
            return w


class TestHomogenize:
    def test_signature_of_generator_square(self):
        hom = homogenize(signature_quasimorphism(), make_word([1, 1], 2), 256)
        assert hom.value == Fraction(-2)
        assert hom.error_bound == 0

    def test_linking_is_exact_at_k1(self):
        lk = linking_quasimorphism()
        hom = homogenize(lk, power(make_word([1, 1], 2), 3), 64)
        assert hom.value == Fraction(3)
        assert hom.k_used == 1

    def test_empty_word(self):
        hom = homogenize(signature_quasimorphism(), make_word([], 2), 8)
        assert hom.value == 0

    def test_k_max_validation(self):
        with pytest.raises(InputError):
            homogenize(signature_quasimorphism(), make_word([1, 1], 2), 1)

    def test_homogeneous_scaling_on_powers(self):
        sig = signature_quasimorphism()
        base = make_word([1, 1], 2)
        h1 = homogenize(sig, base, 64)
        for m in range(1, 6):
            hm = homogenize(sig, power(base, m), 64)
            assert abs(hm.value - m * h1.value) <= hm.error_bound + m * h1.error_bound

    def test_single_slope_bound_is_unknown(self):
        sig = signature_quasimorphism()
        hom = homogenize(sig, make_word([1, 1, 2], 3), 2)
        assert hom.value == Fraction(-3)
        assert hom.error_bound is None
        # a^2 over the length cap: phi(a) alone, no slope at all
        hom = homogenize(sig, make_word([1, 2] * 20, 3), 256, length_cap=50)
        assert hom.k_used == 1 and hom.error_bound is None
        # a declared defect still bounds the error
        hom = homogenize(linking_quasimorphism(), make_word([1] * 40, 2), 256, length_cap=50)
        assert hom.error_bound == 0

    def test_length_cap_stops_growth(self):
        sig = signature_quasimorphism()
        hom = homogenize(sig, make_word([1, 1], 2), 1 << 20, length_cap=64)
        assert hom.k_used <= 32
        assert hom.value == Fraction(-2)  # slope already exact long before the cap


class TestSampleDefect:
    def test_linking_homomorphism_defect_zero(self):
        lk = linking_quasimorphism()
        rng_words = lambda rng: random_pure_word(rng, 2, 2 * rng.randint(0, 4))
        assert sample_defect(lk, rng_words, 40, seed=3) == 0

    def test_signature_small_words(self):
        sig = signature_quasimorphism()

        def sampler(rng):
            return make_word(
                [rng.choice([1, -1]) for _ in range(rng.randint(0, 12))], 2
            )

        worst = sample_defect(sig, sampler, 120, seed=5)
        assert worst in (0, 1)

    def test_deterministic(self):
        sig = signature_quasimorphism()

        def sampler(rng):
            return make_word([rng.choice([1, -1]) for _ in range(6)], 2)

        a = sample_defect(sig, sampler, 1, seed=9)
        b = sample_defect(sig, sampler, 1, seed=9)
        assert a == b

    def test_trials_validation(self):
        with pytest.raises(InputError):
            sample_defect(signature_quasimorphism(), lambda rng: make_word([], 2), 0, 0)


class TestSpecs:
    def test_pickle_roundtrip(self):
        w = make_word([2, 1, 1, 2, 2, 2], 3)
        for spec in (linking_quasimorphism(1, 3), signature_quasimorphism()):
            rebuilt = pickle.loads(pickle.dumps(spec))
            assert (rebuilt.name, rebuilt.strands) == (spec.name, spec.strands)
            assert rebuilt(w) == spec(w)
        assert linking_quasimorphism(1, 3).strands == (1, 3)
        assert signature_quasimorphism().strands is None

    def test_linking_values(self):
        lk = linking_quasimorphism()
        assert lk(power(make_word([1, 1], 2), 7)) == 7

    def test_signature_values(self):
        sig = signature_quasimorphism()
        assert sig(make_word([1, 1, 1], 2)) == -2
