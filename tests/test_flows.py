import bisect
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import discbraid.flows as flows_module
from discbraid.braids import concat, make_word, power
from discbraid.errors import InputError
from discbraid.flows import (
    MAX_ROTATION,
    FlowSpec,
    calabi,
    calabi_coefficient,
    check_rotation,
    flow_from_json,
    flow_path,
    flow_to_json,
    lp_length_exact_even,
    lp_length_radial,
    lp_speed_moment_exact,
    make_flow,
    signature_moment,
    signature_response,
    signature_weight,
)
from discbraid.poly import add, derivative, evaluate, integral, mul, shift
from discbraid.profiles import (
    RadialProfile,
    make_hs_profile,
    polynomial_bump,
    rotation_profile,
)
from discbraid.seifert import braid_signature

from references import integrate_flow_numeric, lp_length_quad, zero_profile

Y_TIMES_ONE_MINUS_Y = RadialProfile(
    (Fraction(0), Fraction(1)), ((Fraction(0), Fraction(1), Fraction(-1)),), 1
)


def rotation_flow(alpha):
    return make_flow([(rotation_profile(alpha), 1)], validate=False)


def time_one(flow, point):
    """The time-one image of one point, as ``discbraid flow-apply`` prints it."""
    return tuple(flow_path(flow, [point], [1.0])[0, 0].tolist())


class TestFlowApply:
    def test_zero_profile_is_identity(self):
        flow = make_flow([(zero_profile(), 5)])
        assert time_one(flow, (0.3, -0.2)) == (0.3, -0.2)

    def test_rigid_rotation(self):
        x, y = time_one(rotation_flow(Fraction(7, 10)), (0.4, 0.0))
        assert abs(x - 0.4 * math.cos(0.7)) < 1e-15 and abs(y - 0.4 * math.sin(0.7)) < 1e-15

    def test_boundary_fixed_for_interior_support(self):
        flow = make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 9), 2)])
        assert time_one(flow, (1.0, 0.0)) == (1.0, 0.0)

    def test_radius_preserved_exactly(self):
        flow = make_flow([(polynomial_bump(Fraction(1, 8), Fraction(7, 8), 30), 3)])
        pts = np.array([[0.3, 0.4], [0.0, 0.9], [-0.5, 0.1]])
        traj = flow_path(flow, pts, np.linspace(0, 1, 7))
        radii = np.linalg.norm(traj, axis=2)
        assert np.allclose(radii, radii[:, :1], rtol=0, atol=1e-15)

    def test_term_order_irrelevant(self):
        h1 = polynomial_bump(Fraction(1, 8), Fraction(1, 2), 12)
        h2 = polynomial_bump(Fraction(3, 8), Fraction(7, 8), 7)
        a = make_flow([(h1, 2), (h2, 3)])
        b = make_flow([(h2, 3), (h1, 2)])
        for pt in [(0.3, 0.1), (0.6, -0.2), (0.05, 0.0)]:
            assert time_one(a, pt) == pytest.approx(time_one(b, pt), abs=1e-15)

    def test_time_additivity(self):
        h = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20)
        one = make_flow([(h, Fraction(3, 2))])
        half = make_flow([(h, Fraction(3, 4))])
        pt = (0.55, 0.2)
        assert time_one(one, pt) == pytest.approx(time_one(half, time_one(half, pt)), abs=1e-14)

    def test_validation_of_boundary_support(self):
        with pytest.raises(InputError):
            make_flow([(rotation_profile(1), 1)])

    @pytest.mark.parametrize(
        "t", [math.inf, -math.inf, math.nan, Fraction(10**400), "1e400", 10**400, "abc", "1/0", None],
        ids=["inf", "-inf", "nan", "fraction", "str", "int", "non-number-str", "zero-denominator", "none"],
    )
    def test_time_must_be_a_finite_float(self, t):
        h = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20)
        with pytest.raises(InputError):
            make_flow([(h, t)])

    def test_scaled_keeps_time_types(self):
        h = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20)
        for t in (Fraction(3, 2), 1.5):  # a float time is held as the Fraction it stores
            ((_, scaled),) = make_flow([(h, t)]).scaled(4).terms
            assert type(scaled) is Fraction and scaled == 6
            with pytest.raises(InputError, match="within float range"):
                make_flow([(h, t)]).scaled(10**400)


class TestRotationBound:
    def test_cap(self):
        h = rotation_profile(1)  # h' = 1/2, so the bound is |t|
        assert check_rotation(make_flow([(h, -MAX_ROTATION)], validate=False)) == MAX_ROTATION
        for t in (MAX_ROTATION * 1.01, 1e300, Fraction(10**300)):
            with pytest.raises(InputError, match="rotation bound"):
                check_rotation(make_flow([(h, t)], validate=False))


class TestCalabi:
    def test_zero_profile(self):
        assert calabi(make_flow([(zero_profile(), 4)])) == 0

    def test_y_one_minus_y(self):
        flow = make_flow([(Y_TIMES_ONE_MINUS_Y, 1)], validate=False)
        assert calabi_coefficient(flow) == Fraction(1, 3)
        assert abs(calabi(flow) - math.pi / 3) < 1e-15

    def test_hs_flows_in_calabi_kernel(self):
        for s in (Fraction(1, 4), Fraction(3, 10), Fraction(1, 3)):
            flow = make_flow([(make_hs_profile(s), 7)])
            assert calabi_coefficient(flow) == 0
            assert calabi(flow) == 0.0

    def test_linear_in_time_and_additive(self):
        h1 = polynomial_bump(Fraction(1, 8), Fraction(1, 2), 12)
        h2 = polynomial_bump(Fraction(3, 8), Fraction(7, 8), 7)
        one = make_flow([(h1, 2)])
        both = make_flow([(h1, 2), (h2, 5)])
        assert calabi_coefficient(one.scaled(3)) == 3 * calabi_coefficient(one)
        assert calabi_coefficient(both) == calabi_coefficient(one) + calabi_coefficient(
            make_flow([(h2, 5)])
        )


class TestSignatureMoment:
    def test_zero_profile(self):
        assert signature_moment(zero_profile(), 3) == 0

    def test_polynomial_example(self):
        assert signature_moment(Y_TIMES_ONE_MINUS_Y, 3) == Fraction(1, 12)

    def test_hs_is_negative(self):
        for s in (Fraction(1, 4), Fraction(1, 3)):
            assert signature_moment(make_hs_profile(s), 3) < 0

    def test_n_validation(self):
        with pytest.raises(InputError):
            signature_moment(zero_profile(), 2)


class TestSignatureResponse:
    CRITERION_7 = [
        polynomial_bump(Fraction(1, 8), Fraction(1, 2), 60),
        polynomial_bump(Fraction(1, 4), Fraction(3, 4), 96),
        polynomial_bump(Fraction(3, 8), Fraction(7, 8), 48),
    ]

    def test_weight_derivatives(self):
        assert derivative(signature_weight(3)) == (-12, 12)
        assert derivative(signature_weight(4)) == (-24, 48, -48)
        assert derivative(signature_weight(5)) == (-40, 120, -240, 160)

    def test_two_points_is_twice_calabi(self):
        for h, t in zip(self.CRITERION_7, (1, Fraction(-3, 2), 7)):
            flow = make_flow([(h, t)])
            assert signature_response(flow, 2) == 2 * calabi_coefficient(flow)

    def test_even_rows_vanish_on_the_hs_family(self):
        for s in (Fraction(1, 4), Fraction(7, 24), Fraction(1, 3)):
            flow = make_flow([(make_hs_profile(s), 1)])
            assert [signature_response(flow, n) for n in (2, 4, 6)] == [0, 0, 0]
            assert signature_response(flow, 3) != 0

    def test_linear_in_terms(self):
        h1, h2 = self.CRITERION_7[:2]
        both = make_flow([(h1, 2), (h2, Fraction(-5, 3))])
        for n in (3, 4, 5):
            assert signature_response(both, n) == 2 * signature_response(
                make_flow([(h1, 1)]), n
            ) - Fraction(5, 3) * signature_response(make_flow([(h2, 1)]), n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_turn_weights_are_braid_signatures(self, n):
        # s_k = P_k(1) / k is the homogenized signature of one turn of the
        # k-th innermost point around the inner ones, the braid delta_k
        rng = np.random.default_rng(n)
        weights = [evaluate(signature_weight(k), 1) / k if k > 1 else 0 for k in range(1, n + 1)]
        turns = 5
        for _ in range(25):
            m = rng.integers(-3, 4, size=n)
            word = make_word([], n)
            for k in range(2, n + 1):
                delta = make_word(list(range(k - 1, 0, -1)) + list(range(1, k)), n)
                word = concat(word, power(delta, turns * int(m[k - 1])))
            expected = turns * sum(w * int(x) for w, x in zip(weights, m))
            assert abs(braid_signature(word) - expected) <= 2

    def test_rigid_rotation(self):
        # one radian is 1/(2 pi) full twists, and Delta_3^2 homogenizes to -4
        assert signature_response(rotation_flow(1), 3) == -2

    @pytest.mark.parametrize("x", [0.5, 2.3])
    def test_float_time_is_the_rational_it_stores(self, x):
        h = self.CRITERION_7[0]
        as_float, as_fraction = make_flow([(h, x)]), make_flow([(h, Fraction(x))])
        assert signature_response(as_float, 3) == signature_response(as_fraction, 3)
        assert calabi_coefficient(as_float) == calabi_coefficient(as_fraction)
        assert lp_speed_moment_exact(as_float, 2) == lp_speed_moment_exact(as_fraction, 2)

    def test_n_validation(self):
        with pytest.raises(InputError):
            signature_response(make_flow([(self.CRITERION_7[0], 1)]), 1)


def quadrature_flows():
    """The scale-20 and scale-2 bumps, hs(1/4) and a two-term flow."""
    h1 = polynomial_bump(Fraction(1, 8), Fraction(1, 2), 12)
    h2 = polynomial_bump(Fraction(3, 8), Fraction(7, 8), 7)
    return {
        "bump20": make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20), 1)]),
        "bump2": make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 2), 1)]),
        "hs": make_flow([(make_hs_profile(Fraction(1, 4)), 1)]),
        "two-term": make_flow([(h1, Fraction(2, 3)), (h2, Fraction(-1, 2))]),
    }


class TestLpLength:
    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, 4, 7.25, 10, 100, 1e3, 1e5, 1e10])
    def test_matches_quad_reference(self, p):
        for name, flow in quadrature_flows().items():
            assert lp_length_radial(flow, p) == pytest.approx(lp_length_quad(flow, p), rel=1e-13), name

    def test_unconverged_quadrature_refused(self, monkeypatch):
        flow = quadrature_flows()["bump20"]
        assert lp_length_radial(flow, 1.5) > 0  # |rate|^1.5 at the rate's roots needs bisections
        monkeypatch.setattr(flows_module, "MAX_BISECTIONS", 10)
        with pytest.raises(InputError, match="did not converge"):
            lp_length_radial(flow, 1.5)

    def test_exact_even_moment_is_the_plain_power(self):
        # the same Fraction as p successive products of the unscaled rate
        flows = quadrature_flows()
        for name in ("bump20", "hs", "two-term"):
            flow = flows[name]
            edges = sorted({b for h, _ in flow.terms for b in h.breakpoints})
            for p in [*range(2, 41, 2), 100]:
                plain = Fraction(0)
                for lo, hi in zip(edges, edges[1:]):
                    rate = (Fraction(0),)
                    for h, t in flow.terms:
                        d = h.derivative()
                        piece = d.pieces[bisect.bisect_right(d.breakpoints, lo) - 1]
                        rate = add(rate, tuple(2 * t * c for c in piece))
                    power = (Fraction(1),)
                    for _ in range(p):
                        power = mul(power, rate)
                    plain += integral(shift(power, p // 2), lo, hi)
                assert lp_speed_moment_exact(flow, p) == plain, (name, p)

    def test_zero_profile(self):
        assert lp_length_radial(make_flow([(zero_profile(), 3)]), 2) == 0

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, 7])
    def test_rotation_closed_form(self, p):
        alpha = 1.3
        flow = rotation_flow(Fraction(13, 10))
        want = alpha * (2 * math.pi / (p + 2)) ** (1 / p)
        assert lp_length_radial(flow, p) == pytest.approx(want, rel=1e-9)

    def test_p1_spec_value(self):
        flow = rotation_flow(1)
        assert lp_length_radial(flow, 1) == pytest.approx(2 * math.pi / 3, rel=1e-10)

    def test_multi_term_matches_exact_even(self):
        h1 = polynomial_bump(Fraction(1, 8), Fraction(1, 2), 12)
        h2 = polynomial_bump(Fraction(3, 8), Fraction(7, 8), 7)
        combined = make_flow([(h1, Fraction(2, 3)), (h2, Fraction(-1, 2))])
        for p in (2, 4):
            assert lp_length_radial(combined, p) == pytest.approx(lp_length_exact_even(combined, p), rel=1e-12)
        same = make_flow([(h2, 1), (h2, 2)])
        assert lp_length_radial(same, 2) == pytest.approx(3 * lp_length_radial(make_flow([(h2, 1)]), 2), rel=1e-12)

    def test_scaling_in_time(self):
        h = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 11)
        one = lp_length_radial(make_flow([(h, 1)]), 2)
        five = lp_length_radial(make_flow([(h, 5)]), 2)
        assert five == pytest.approx(5 * one, rel=1e-12)

    def test_exact_even_moment_matches_quadrature(self):
        h1 = polynomial_bump(Fraction(1, 8), Fraction(1, 2), 12)
        h2 = polynomial_bump(Fraction(3, 8), Fraction(7, 8), 7)
        combined = make_flow([(h1, Fraction(2, 3)), (h2, Fraction(-1, 2))])
        for p in (2, 4):
            exact = lp_length_exact_even(combined, p)
            brute = 0.0
            ys = np.linspace(0, 1, 200001)
            rate = combined.angular_rate_float(ys)
            brute = math.pi ** (1 / p) * (
                np.trapezoid(ys ** (p / 2) * np.abs(rate) ** p, ys)
            ) ** (1 / p)
            assert exact == pytest.approx(brute, rel=1e-6)

    def test_high_p_matches_exact_even(self):
        flow = make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20), 1)])
        assert lp_length_radial(flow, 100) == pytest.approx(lp_length_exact_even(flow, 100), rel=1e-12)

    @pytest.mark.parametrize("p", [300, 3000])
    def test_high_p_scaling_and_sup_bound(self, p):
        # y^(p/2) |rate|^p underflows here; the length must still scale with the profile
        h2 = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 2)
        small = lp_length_radial(make_flow([(h2, 1)]), p)
        large = lp_length_radial(make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20), 1)]), p)
        assert large == pytest.approx(10 * small, rel=1e-12)
        ys = np.linspace(0.25, 0.75, 200001)
        sup = 2 * float(np.max(np.sqrt(ys) * np.abs(h2.derivative().eval_float(ys))))
        assert 0.95 * sup < small <= math.pi ** (1 / p) * sup

    @pytest.mark.parametrize("p", [1e6, 1e300])
    def test_rotation_closed_form_at_huge_p(self, p):
        # the integrand's mass sits within about 1/p of y = 1
        flow = rotation_flow(Fraction(13, 10))
        want = 1.3 * math.exp(math.log(2 * math.pi / (p + 2)) / p)
        assert lp_length_radial(flow, p) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("t", [Fraction(1, 10000), 10**6])
    def test_exact_even_outside_float_range(self, t):
        # the p = 100 moment is about 1e-413 at t = 1/10000 and 1e587 at t = 10^6
        flow = make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20), t)])
        assert lp_length_exact_even(flow, 100) == pytest.approx(lp_length_radial(flow, 100), rel=1e-12)

    def test_exact_even_overflow_refused(self):
        flow = make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 96), 10**308)])
        for length in (lp_length_exact_even, lp_length_radial):
            with pytest.raises(InputError, match="overflows"):
                length(flow, 2)

    def test_exact_even_validation(self):
        h = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 3)
        with pytest.raises(InputError):
            lp_speed_moment_exact(make_flow([(h, 1)]), 3)

    def test_holder_comparison_on_random_flows(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = Fraction(int(rng.integers(1, 4)), 8)
            b = a + Fraction(int(rng.integers(2, 4)), 8)
            h = polynomial_bump(a, b, int(rng.integers(2, 50)))
            flow = make_flow([(h, int(rng.integers(1, 5)))])
            l1 = lp_length_radial(flow, 1)
            for p in (1.5, 2, 3):
                lp = lp_length_radial(flow, p)
                assert l1 <= math.pi ** (1 - 1 / p) * lp * (1 + 1e-9)


class TestNumericIntegrator:
    def test_zero_profile(self):
        assert integrate_flow_numeric(zero_profile(), 1.0, (0.3, 0.2), 1e-2) == (0.3, 0.2)

    def test_matches_rigid_rotation(self):
        h = rotation_profile(1)
        out = integrate_flow_numeric(h, math.pi / 4, (0.5, 0.0), 1e-4)
        want = (0.5 * math.cos(math.pi / 4), 0.5 * math.sin(math.pi / 4))
        assert out == pytest.approx(want, abs=1e-6)

    def test_matches_analytic_flow(self):
        h = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 8)
        flow = make_flow([(h, Fraction(4, 5))])
        pt = (0.7, 0.1)
        analytic = time_one(flow, pt)
        numeric = integrate_flow_numeric(h, 0.8, pt, 2e-4)
        assert numeric == pytest.approx(analytic, abs=1e-6)


class TestFlowFiles:
    def test_roundtrip(self):
        flow = make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 96), Fraction(2, 3))])
        assert flow_from_json(flow_to_json(flow)) == flow

    def test_float_time_written_as_the_rational_it_stores(self):
        h = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 96)
        text = flow_to_json(make_flow([(h, 2.3)]))
        x = Fraction(2.3)
        assert json.loads(text)["terms"][0]["time"] == [x.numerator, x.denominator]
        assert flow_from_json(text) == make_flow([(h, x)])

    def test_unchecked_flag(self):
        doc = json.loads(flow_to_json(FlowSpec(((rotation_profile(1), Fraction(1)),))))
        doc["unchecked"] = True
        assert flow_from_json(json.dumps(doc)).terms[0][0] == rotation_profile(1)
        doc["unchecked"] = False
        with pytest.raises(InputError):
            flow_from_json(json.dumps(doc))

    def test_malformed(self):
        with pytest.raises(InputError):
            flow_from_json("{}")

    @pytest.mark.parametrize(
        "time", ["1e400", "-1e400", "NaN", "Infinity", "[" + "9" * 401 + ", 1]"],
        ids=["1e400", "-1e400", "NaN", "Infinity", "401-digit-fraction"],
    )
    def test_non_finite_time(self, time):
        flow = make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 96), 1)])
        text = flow_to_json(flow).replace('"time": [\n        1,\n        1\n      ]', f'"time": {time}')
        assert f'"time": {time}' in text
        with pytest.raises(InputError):
            flow_from_json(text)
