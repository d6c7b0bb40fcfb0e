from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from discbraid.errors import InputError
from discbraid.profiles import (
    RadialProfile,
    make_hs_profile,
    polynomial_bump,
    profile_from_json,
    profile_to_json,
    rotation_profile,
)

from references import zero_profile

HALF = Fraction(1, 2)


def hs_grid(count=50):
    lo, hi = Fraction(1, 4), Fraction(1, 3)
    return [lo + (hi - lo) * Fraction(k, count - 1) for k in range(count)]


class TestRadialProfile:
    def test_breakpoints_must_cover_unit_interval(self):
        with pytest.raises(InputError):
            RadialProfile((Fraction(0), HALF), ((Fraction(1),),))

    def test_continuity_enforced(self):
        with pytest.raises(InputError):
            RadialProfile(
                (Fraction(0), HALF, Fraction(1)),
                ((Fraction(0),), (Fraction(1),)),
                smoothness_class=0,
            )

    def test_value_and_derivative(self):
        bump = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 16)
        y = Fraction(3, 8)
        expected = 16 * (y - Fraction(1, 4)) ** 2 * (Fraction(3, 4) - y) ** 2
        assert bump.value(y) == expected
        d = bump.derivative()
        h = Fraction(1, 1_000_000)
        numeric = (bump.value(y + h) - bump.value(y - h)) / (2 * h)
        assert abs(numeric - d.value(y)) < Fraction(1, 10_000)

    def test_moment_against_quadrature(self):
        bump = polynomial_bump(Fraction(1, 8), Fraction(5, 8), 7)
        for m in range(4):
            exact = float(bump.moment(m))
            approx, _ = integrate.quad(
                lambda y: y**m * bump.eval_float(np.array([y]))[0], 0, 1, limit=200
            )
            assert abs(exact - approx) < 1e-9

    def test_support(self):
        assert zero_profile().support is None
        bump = polynomial_bump(Fraction(1, 4), HALF, 1)
        assert bump.support == (Fraction(1, 4), HALF)
        assert bump.is_disc_compatible()
        assert not rotation_profile(1).is_disc_compatible()

    def test_eval_float_matches_exact(self):
        bump = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 5)
        ys = [Fraction(k, 16) for k in range(17)]
        floats = bump.eval_float(np.array([float(y) for y in ys]))
        for y, f in zip(ys, floats):
            assert abs(float(bump.value(y)) - f) < 1e-12

    def test_json_roundtrip(self):
        h = make_hs_profile(Fraction(2, 7))
        assert profile_from_json(profile_to_json(h)) == h

    def test_malformed_json(self):
        with pytest.raises(InputError):
            profile_from_json("{}")


class TestHsFamily:
    def test_parameter_validation(self):
        for bad in (Fraction(1, 5), Fraction(1, 2)):
            with pytest.raises(InputError):
                make_hs_profile(bad)

    @pytest.mark.parametrize("s", [Fraction(1, 4), Fraction(7, 24), Fraction(1, 3)])
    def test_support_exact(self, s):
        h = make_hs_profile(s)
        assert h.support == (HALF - s, HALF + s)
        assert h.is_disc_compatible()

    def test_zero_mean_exact(self):
        for s in hs_grid(10):
            assert make_hs_profile(s).moment(0) == 0

    def test_first_moment_negative_exact(self):
        for s in hs_grid(10):
            assert make_hs_profile(s).moment(1) < 0

    def test_lobe_signs(self):
        for s in (Fraction(1, 4), Fraction(1, 3)):
            h = make_hs_profile(s)
            lo = float(HALF - s)
            left = np.linspace(lo + 1e-6, 0.5 - 1e-6, 300)
            right = np.linspace(0.5 + 1e-6, float(HALF + s) - 1e-6, 300)
            assert np.all(h.eval_float(left) > 0)
            assert np.all(h.eval_float(right) < 0)
            # exact sign arbitrarily close to the support edge
            eps = Fraction(1, 10**12)
            assert h.value(HALF - s + eps) > 0
            assert h.value(HALF + s - eps) < 0
            assert h.value(HALF - s) == 0 and h.value(HALF + s) == 0

    def test_common_core(self):
        members = [make_hs_profile(s) for s in hs_grid(8)]
        probes = [Fraction(3, 8) + Fraction(k, 40) for k in range(11)]  # up to 5/8
        for y in probes:
            values = {m.value(y) for m in members}
            assert len(values) == 1

    def test_monotone_in_s(self):
        # with the shared core the comparisons hold with equality on the core
        s_small, s_big = Fraction(1, 4), Fraction(1, 3)
        h_small, h_big = make_hs_profile(s_small), make_hs_profile(s_big)
        for y in [Fraction(3, 8) + Fraction(k, 100) for k in range(1, 12)]:
            assert h_big.value(y) >= h_small.value(y)
        for y in [HALF + Fraction(k, 100) for k in range(1, 12)]:
            assert h_big.value(y) <= h_small.value(y)

    def test_odd_about_center(self):
        h = make_hs_profile(Fraction(7, 24))
        for k in range(1, 24):
            u = Fraction(k, 72)
            assert h.value(HALF + u) == -h.value(HALF - u)

    def test_integral_maps_continuous_in_s(self):
        grid = hs_grid(25)
        moments = [float(make_hs_profile(s).moment(1)) for s in grid]
        steps = np.abs(np.diff(moments))
        assert steps.max() < 0.01  # no jumps along the parameter grid
