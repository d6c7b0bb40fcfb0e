import math
from fractions import Fraction

import pytest

import discbraid.estimator as est_mod
from discbraid.errors import DegeneracyError, InputError
from discbraid.estimator import (
    QmEstimate,
    calibrate_constant,
    chunk_rng,
    default_base,
    estimate_phi_n,
    estimate_phi_tilde_n,
)
from discbraid.flows import calabi, make_flow
from discbraid.profiles import make_hs_profile, polynomial_bump, rotation_profile
from discbraid.quasimorphisms import linking_quasimorphism, signature_quasimorphism

LK = linking_quasimorphism(1, 2)


def bump_flow(scale=96, t=1):
    return make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), scale), t)])


class TestEstimatePhi:
    def test_identity_flow_zero(self):
        est = estimate_phi_n(make_flow([]), LK, 2, samples=100, seed=1)
        assert est.value == 0.0
        assert est.std_error == 0.0
        assert est.rejected == 0

    def test_full_rotation_is_pi_squared(self):
        flow = make_flow([(rotation_profile(1), 2 * math.pi)], validate=False)
        est = estimate_phi_n(flow, LK, 2, samples=400, seed=3)
        assert est.value == pytest.approx(math.pi**2, abs=1e-12)
        assert est.std_error == 0.0

    def test_deterministic_across_threads(self):
        flow = bump_flow()
        a = estimate_phi_n(flow, LK, 2, samples=1500, seed=9, threads=1)
        b = estimate_phi_n(flow, LK, 2, samples=1500, seed=9, threads=3)
        assert a == b

    def test_deterministic_same_seed(self):
        flow = bump_flow()
        a = estimate_phi_n(flow, LK, 2, samples=500, seed=4)
        b = estimate_phi_n(flow, LK, 2, samples=500, seed=4)
        assert a == b
        c = estimate_phi_n(flow, LK, 2, samples=500, seed=5)
        assert a != c

    def test_matches_two_strand_winding_formula(self):
        # closed form for the homogenized two-strand value: 2*pi*t*int(y h')
        h = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 96)
        flow = make_flow([(h, 1)])
        analytic = -2 * math.pi * float(h.moment(0))
        est = estimate_phi_tilde_n(flow, LK, 2, samples=4000, k_schedule=(4, 8), seed=5)
        assert abs(est.value - analytic) <= 3 * est.std_error + 0.02

    def test_validation(self):
        with pytest.raises(InputError):
            estimate_phi_n(make_flow([]), LK, 1, samples=10)
        with pytest.raises(InputError):
            estimate_phi_n(make_flow([]), LK, 2, samples=0)

    def test_rejection_counting_and_degeneracy(self, monkeypatch):
        monkeypatch.setattr(est_mod, "MIN_SEPARATION", 2.5)  # every pair too close
        with pytest.raises(DegeneracyError):
            estimate_phi_n(bump_flow(), LK, 2, samples=40, seed=0)

    def test_generic_path_matches_fast_path(self):
        # same chunks through the n=2 fast path and the generic word route
        flow = bump_flow()
        base = default_base(2)
        rng = chunk_rng(23, est_mod.TASK_PHI, 0)
        configs = est_mod.sample_configs(rng, 200, 2)
        fast = est_mod._lk2_chunk_values(flow, LK, base, configs, 48)
        slow = [est_mod._phi_single(flow, LK, base, c, 48) for c in configs]
        assert fast == slow


class TestEstimatePhiTilde:
    def test_identity_flow(self):
        est = estimate_phi_tilde_n(make_flow([]), LK, 2, samples=50, k_schedule=(1, 2), seed=0)
        assert est.value == 0.0

    def test_k_schedule_validation(self):
        with pytest.raises(InputError):
            estimate_phi_tilde_n(make_flow([]), LK, 2, samples=10, k_schedule=())
        with pytest.raises(InputError):
            estimate_phi_tilde_n(make_flow([]), LK, 2, samples=10, k_schedule=(2, 2))

    def test_stable_across_k_for_radial_flows(self):
        flow = bump_flow(scale=60)
        est_a = estimate_phi_tilde_n(flow, LK, 2, samples=3000, k_schedule=(2, 4), seed=7)
        est_b = estimate_phi_tilde_n(flow, LK, 2, samples=3000, k_schedule=(4, 8), seed=7)
        assert abs(est_a.value - est_b.value) <= 3 * (est_a.std_error + est_b.std_error)

    def test_homogeneity_in_time(self):
        flow_t = bump_flow(scale=60, t=1)
        flow_3t = bump_flow(scale=60, t=3)
        a = estimate_phi_tilde_n(flow_t, LK, 2, samples=3000, k_schedule=(2, 4), seed=11)
        b = estimate_phi_tilde_n(flow_3t, LK, 2, samples=3000, k_schedule=(2, 4), seed=11)
        assert abs(b.value - 3 * a.value) <= 3 * (b.std_error + 3 * a.std_error)

    def test_bounded_homomorphism_error_along_family(self):
        # |Phi(g o f) - Phi(g) - Phi(f)| stays bounded while the terms grow:
        # compose = exact time addition for commuting radial flows
        h = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 60)
        gaps = []
        for t in (1, 2, 4):
            est_t = estimate_phi_n(make_flow([(h, t)]), LK, 2, samples=4000, seed=13)
            est_2t = estimate_phi_n(make_flow([(h, 2 * t)]), LK, 2, samples=4000, seed=13)
            gaps.append(abs(est_2t.value - 2 * est_t.value))
        assert max(gaps) < 3.0 * math.pi**2  # bounded, does not scale with t
        values = [
            abs(estimate_phi_n(make_flow([(h, t)]), LK, 2, samples=2000, seed=13).value)
            for t in (1, 4)
        ]
        assert values[1] > 2 * values[0]  # the terms themselves do grow


class TestCalibrate:
    def test_duplicated_flow_zero_spread(self):
        flow = bump_flow()
        pred = calabi(flow)
        result = calibrate_constant([flow, flow], LK, 2, [pred, pred], samples=600, seed=3)
        assert result.spread == 0.0

    def test_zero_predicted_rejected(self):
        flow = bump_flow()
        with pytest.raises(InputError):
            calibrate_constant([flow, flow], LK, 2, [0.0, 1.0], samples=10)

    def test_needs_two_flows(self):
        with pytest.raises(InputError):
            calibrate_constant([bump_flow()], LK, 2, [1.0], samples=10)

    def test_calabi_ratio_near_minus_one(self):
        flows = [bump_flow(scale=96), bump_flow(scale=48)]
        preds = [calabi(f) for f in flows]
        result = calibrate_constant(
            flows, LK, 2, preds, samples=4000, seed=21, k_schedule=(4, 8)
        )
        assert result.constant == pytest.approx(-1.0, abs=0.1)

    def test_signature_moment_calibration(self):
        # moment-based calibration for three marked points over Calabi-zero
        # flows: one constant fits every flow (its sign is tied to the
        # crossing convention; the magnitude is the invariant content)
        sig = signature_quasimorphism()
        profiles = [make_hs_profile(Fraction(1, 4)), make_hs_profile(Fraction(1, 3))]
        flows = [make_flow([(h, 4)]) for h in profiles]
        preds = [4 * float(h.moment(1)) for h in profiles]
        result = calibrate_constant(
            flows, sig, 3, preds, samples=1500, seed=2, k_schedule=(1, 2)
        )
        assert abs(result.constant) > 0
        assert result.spread < 0.5
        assert all(r * result.constant > 0 for r in result.ratios)  # one sign

    def test_result_serializes(self):
        flow = bump_flow()
        pred = calabi(flow)
        result = calibrate_constant([flow, flow], LK, 2, [pred, pred], samples=200, seed=1)
        doc = result.to_dict()
        assert set(doc) == {"constant", "spread", "ratios", "estimates"}


class TestQmEstimate:
    def test_validation(self):
        with pytest.raises(InputError):
            QmEstimate(1.0, -0.1, 10, 0, 0)
        with pytest.raises(InputError):
            QmEstimate(1.0, 0.1, 0, 0, 0)

    def test_to_dict(self):
        est = QmEstimate(1.5, 0.1, 10, 1, 7, (1, 2))
        assert est.to_dict()["k_schedule"] == [1, 2]
