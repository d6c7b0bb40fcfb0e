import json
import math
from fractions import Fraction

import numpy as np
import pytest

from discbraid.braids import make_word, power
from discbraid.errors import InputError
from discbraid import cli
from discbraid import experiments as experiments_mod
from discbraid.experiments import (
    Report,
    battery,
    check_bilipschitz_disc,
    check_calabi_proportionality,
    check_crossing_bound,
    check_hs_family,
    check_lipschitz,
    check_word_length_bound,
    linear_fit,
)
from discbraid.flows import calabi, make_flow, signature_response
from discbraid.poly import mul
from discbraid.profiles import RadialProfile, make_hs_profile, polynomial_bump
from discbraid.quasimorphisms import linking_quasimorphism, signature_quasimorphism


def bump(a, b, scale):
    return polynomial_bump(Fraction(a, 8), Fraction(b, 8), scale)


THREE_PROFILES = [bump(1, 4, 60), bump(2, 6, 96), bump(3, 7, 48)]


class TestCrossingBound:
    def test_identity_flow_trivially_passes(self):
        rep = check_crossing_bound(make_flow([]), 3, trials=5, seed=0)
        assert rep.passed
        # trivial braid: margin is at least 2 * sum(4) = 8 * C(3,2) (the
        # out-and-back lines still contribute nonnegative winding length)
        assert rep.margin >= 24.0 - 1e-9

    def test_rotation_flows(self):
        flow = make_flow([(bump(2, 6, 40), 1)])
        rep = check_crossing_bound(flow, 3, trials=30, seed=1)
        assert rep.passed and rep.margin >= 0

    def test_relative_margin_shrinks_with_time_but_stays_positive(self):
        # both sides grow linearly in t, so the margin relative to the bound
        # shrinks while the absolute margin stays nonnegative
        relative = []
        for t in (1, 3, 6):
            flow = make_flow([(bump(2, 6, 40), t)])
            rep = check_crossing_bound(flow, 3, trials=20, seed=2)
            assert rep.passed and rep.margin >= 0
            relative.append(rep.margin / (24.0 * t))
        assert relative[-1] < relative[0]

    def test_deterministic_report(self):
        flow = make_flow([(bump(2, 6, 40), 1)])
        a = check_crossing_bound(flow, 3, trials=10, seed=3)
        b = check_crossing_bound(flow, 3, trials=10, seed=3)
        assert a == b

    def test_validation(self):
        with pytest.raises(InputError):
            check_crossing_bound(make_flow([]), 3, trials=0)


class TestWordLengthBound:
    def test_linking_on_two_strands(self):
        words = [power(make_word([1, 1], 2), k) for k in range(11)]
        rep = check_word_length_bound(
            linking_quasimorphism(), [Fraction(1)], words, seed=0
        )
        assert rep.passed

    def test_signature_on_torus_words(self):
        words = [make_word([1] * (2 * k), 2) for k in range(12)]
        rep = check_word_length_bound(
            signature_quasimorphism(), [Fraction(1)], words, defect=Fraction(1)
        )
        assert rep.passed

    def test_empty_corpus_fails_gracefully(self):
        rep = check_word_length_bound(
            linking_quasimorphism(), [Fraction(1)], [], defect=Fraction(0)
        )
        assert not rep.passed

    def test_empty_corpus_without_defect_is_input_error(self):
        with pytest.raises(InputError, match="corpus"):
            check_word_length_bound(signature_quasimorphism(), [Fraction(1)], [])

    def test_no_sampled_defect(self):
        # a defect sampled from the corpus only bounds the true defect below
        words = [make_word([1] * (2 * k), 2) for k in range(12)]
        with pytest.raises(InputError, match="defect"):
            check_word_length_bound(signature_quasimorphism(), [Fraction(1)], words)


class TestSignatureMatrix:
    # the bi-Lipschitz hypothesis: the exact response matrix is nonsingular
    def test_single_profile(self):
        # a 1 x 1 response 12 INT h (1 - y) = 3/5, so the lower side is tight
        rep = check_bilipschitz_disc([bump(2, 6, 96)], [[1], [Fraction(-7, 3)]])
        assert rep.passed
        assert rep.details["rows"] == [3]
        assert rep.details["response"] == [[0.6]]
        assert rep.details["c1"] == 0.6
        assert rep.margin == 0.0

    def test_three_distinct_supports(self):
        rep = check_bilipschitz_disc(THREE_PROFILES, [[1, -2, Fraction(1, 3)]])
        assert rep.passed
        assert rep.details["rows"] == [3, 5, 7]

    def test_duplicate_is_singular(self):
        rep = check_bilipschitz_disc([THREE_PROFILES[0], THREE_PROFILES[0]], [[1, 1]])
        assert not rep.passed
        assert rep.details["hypothesis_failure"] == "singular"


class TestHsFamily:
    def test_endpoints(self):
        rep = check_hs_family([Fraction(1, 4), Fraction(1, 3)])
        assert rep.passed
        assert rep.details["failures"] == []

    def test_grid(self):
        grid = [Fraction(1, 4) + Fraction(k, 360) for k in range(31)]
        rep = check_hs_family(grid)
        assert rep.passed
        assert rep.details["M1"] > 0
        assert math.isfinite(rep.details["M2"])

    def test_validation(self):
        with pytest.raises(InputError):
            check_hs_family([])


class TestLobeSign:
    @staticmethod
    def profile(middle):
        """h = 0 on [0, 1/4] and [3/4, 1], the continuous piece ``middle`` between."""
        return RadialProfile((0, Fraction(1, 4), Fraction(3, 4), 1), ((0,), middle, (0,)), 0)

    def test_rejects_a_sign_change_inside_a_piece(self):
        # (y - 1/4)(y - 1/2)(y - 3/4): positive on (1/4, 1/2), negative on (1/2, 3/4)
        h = self.profile(mul(mul((Fraction(-1, 4), 1), (Fraction(-1, 2), 1)), (Fraction(-3, 4), 1)))
        assert h.value(Fraction(3, 8)) > 0 > h.value(Fraction(5, 8))
        for positive in (True, False):
            assert not experiments_mod._exact_lobe_sign(h, Fraction(1, 4), Fraction(3, 4), positive)
        assert experiments_mod._exact_lobe_sign(h, Fraction(1, 4), Fraction(1, 2), True)
        assert experiments_mod._exact_lobe_sign(h, Fraction(1, 2), Fraction(3, 4), False)

    def test_accepts_a_flank_whose_linear_factor_vanishes_at_the_edge(self):
        # (y - 1/4)^2 L(y) with L = (y - 1/4)(3/4 - y) zero at the support edge
        edge = (Fraction(-1, 4), 1)
        h = self.profile(mul(mul(edge, edge), mul(edge, (Fraction(3, 4), -1))))
        assert h.value(Fraction(1, 4)) == h.value(Fraction(3, 4)) == 0
        assert experiments_mod._exact_lobe_sign(h, Fraction(1, 4), Fraction(3, 4), True)
        assert not experiments_mod._exact_lobe_sign(h, Fraction(1, 4), Fraction(3, 4), False)

    def test_zero_piece_has_no_sign(self):
        h = self.profile((0,))
        assert not experiments_mod._exact_lobe_sign(h, Fraction(1, 4), Fraction(3, 4), True)


class TestBilipschitz:
    def test_single_direction_vectors(self):
        hs = [make_hs_profile(Fraction(1, 4) + Fraction(k, 60)) for k in range(5)]
        vectors = [[0, 0, Fraction(3, 2), 0, 0], [1, 0, 0, 0, 0]]
        rep = check_bilipschitz_disc(hs, vectors)
        assert rep.passed

    def test_random_positive_vectors(self):
        hs = [make_hs_profile(Fraction(1, 4) + Fraction(k, 60)) for k in range(5)]
        rng = np.random.default_rng(5)
        vectors = [
            [Fraction(int(v), 16) for v in rng.integers(1, 64, size=5)]
            for _ in range(10)
        ]
        rep = check_bilipschitz_disc(hs, vectors)
        assert rep.passed and rep.margin >= 0
        assert rep.details["exact"]

    def test_sign_condition_failure_reported_not_raised(self):
        up = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 5)
        down = polynomial_bump(Fraction(1, 4), Fraction(3, 4), -5)
        rep = check_bilipschitz_disc([up, down], [[1, 1]])
        assert not rep.passed
        assert "hypothesis_failure" in rep.details

    def test_mixed_sign_vectors_checked(self):
        hs = [make_hs_profile(Fraction(1, 4) + Fraction(k, 60)) for k in range(5)]
        rng = np.random.default_rng(6)
        vectors = [
            [Fraction(int(v), 16) for v in rng.integers(1, 64, size=5) * rng.choice((-1, 1), size=5)]
            for _ in range(10)
        ]
        assert any(min(v) < 0 < max(v) for v in vectors)
        rep = check_bilipschitz_disc(hs, vectors)
        assert rep.passed and rep.margin >= 0
        assert rep.details["vectors"] == 10 and rep.details["rows"] == [3, 5, 7, 9, 11]

    def test_zero_vector_is_checked(self):
        rep = check_bilipschitz_disc(THREE_PROFILES, [[0, 0, 0]])
        assert rep.passed and rep.margin == 0.0


class TestMonteCarloChecks:
    def test_calabi_proportionality_small(self):
        rep = check_calabi_proportionality(
            THREE_PROFILES, samples=2500, seed=11, k_schedule=(4, 8)
        )
        assert rep.passed
        assert rep.details["constant"] == pytest.approx(-1.0, abs=0.15)

    def test_calabi_proportionality_checks_every_profile(self):
        profiles = THREE_PROFILES + [bump(4, 7, 40)]
        rep = check_calabi_proportionality(profiles, samples=64, seed=2, k_schedule=(1, 2))
        assert len(rep.details["ratios"]) == len(rep.details["predicted"]) == 4
        assert len(rep.details["estimates"]) == 4

    def test_calabi_proportionality_needs_two_profiles(self):
        with pytest.raises(InputError):
            check_calabi_proportionality(THREE_PROFILES[:1], samples=10)

    def test_calabi_proportionality_rejects_a_zero_calabi_profile(self):
        with pytest.raises(InputError):
            check_calabi_proportionality([THREE_PROFILES[0], make_hs_profile(Fraction(1, 4))], samples=10)

    def test_calabi_proportionality_duplicated_profile_zero_spread(self):
        rep = check_calabi_proportionality(THREE_PROFILES[1:2] * 2, samples=600, seed=3, k_schedule=(1, 2))
        assert rep.details["spread"] == 0.0
        assert rep.details["ratios"][0] == rep.details["ratios"][1] == rep.details["constant"]

    def test_reports_carry_the_exact_oracle(self):
        prof = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20)
        family = [make_flow([(prof, t)]) for t in (1, 2, 3.0)]  # a float time is exact too
        d = check_lipschitz(family, signature_quasimorphism(), 3, p=2, samples=64, seed=1).details
        assert d["exact"] == [math.pi**2 * float(signature_response(f, 3)) for f in family]
        assert all(math.isfinite(z) for z in d["z"])
        for x, z, est in zip(d["exact"], d["z"], d["estimates"]):
            assert z == (est["value"] - x) / est["std_error"]
        d = check_calabi_proportionality(THREE_PROFILES, samples=64, seed=2, k_schedule=(1, 2)).details
        for x, h in zip(d["exact"], THREE_PROFILES):
            assert x == pytest.approx(-calabi(make_flow([(h, 1)])), rel=1e-12)
        assert all(math.isfinite(z) for z in d["z"])

    def test_lipschitz_small(self):
        # a quick, low-sample pass over the machinery; the acceptance suite
        # runs the stated sizes where R^2 >= 0.99 is asserted
        prof = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20)
        family = [make_flow([(prof, t)]) for t in range(1, 7)]
        rep = check_lipschitz(
            family, signature_quasimorphism(), 3, p=2, samples=800, seed=17
        )
        d = rep.details
        assert d["r_squared"] >= 0.9
        assert min(d["ratios"]) > 0
        assert len(d["lengths"]) == 6
        assert min(m for m in rep.details["ratios"]) > 0

    @pytest.mark.parametrize("times", [(1, -1, 2), (0, 1, 2)], ids=["equal-first-lengths", "zero-length"])
    def test_lipschitz_degenerate_lengths_are_input_errors(self, times):
        prof = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20)
        family = [make_flow([(prof, t)]) for t in times]
        with pytest.raises(InputError, match="length"):
            check_lipschitz(family, signature_quasimorphism(), 3, p=2, samples=40)

    def test_lipschitz_needs_three_members(self):
        prof = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20)
        with pytest.raises(InputError):
            check_lipschitz(
                [make_flow([(prof, 1)])], signature_quasimorphism(), 3, p=2
            )


class TestLinearFit:
    def test_exact_line(self):
        slope, intercept, r2 = linear_fit([1.0, 2.0, 4.0], [1.0, 3.0, 7.0])
        assert slope == pytest.approx(2.0) and intercept == pytest.approx(-1.0)
        assert r2 == pytest.approx(1.0)

    def test_constant_values_explain_everything(self):
        slope, intercept, r2 = linear_fit([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert slope == pytest.approx(0.0, abs=1e-12) and intercept == pytest.approx(5.0)
        assert r2 == 1.0

    def test_matches_the_textbook_formula(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        ys = np.array([1.1, 1.9, 3.2, 3.8, 5.3])
        slope, intercept, r2 = linear_fit(xs, ys)
        xc, yc = xs - xs.mean(), ys - ys.mean()
        assert slope == pytest.approx(float(xc @ yc / (xc @ xc)))
        assert intercept == pytest.approx(ys.mean() - slope * xs.mean())
        resid = ys - (slope * xs + intercept)
        assert r2 == pytest.approx(1 - float(resid @ resid) / float(yc @ yc))


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestReport:
    def test_json_roundtrip(self):
        rep = Report("demo", True, 1.25, {"extra": [1, 2]}, seed=9)
        doc = json.loads(rep.to_json())
        assert doc["check"] == "demo" and doc["passed"] and doc["seed"] == 9

    FAILED_HYPOTHESES = {
        "singular": lambda: check_bilipschitz_disc([THREE_PROFILES[0]] * 2, [[1, 1]]),
        "empty-corpus": lambda: check_word_length_bound(linking_quasimorphism(), [Fraction(1)], []),
    }

    @pytest.mark.parametrize("name", list(FAILED_HYPOTHESES))
    def test_failed_hypothesis_margin_is_null(self, name):
        rep = self.FAILED_HYPOTHESES[name]()
        assert not rep.passed and math.isnan(rep.margin)
        assert strict_json(rep.to_json())["margin"] is None

    def test_zero_std_error_leaves_z_null(self):
        # so shallow that no sampled pair winds a whole turn: every estimate is 0 +- 0
        shallow = [bump(2, 6, 1), bump(1, 4, 1)]
        rep = check_calabi_proportionality(shallow, samples=64, seed=2, k_schedule=(1, 2))
        assert [e["std_error"] for e in rep.details["estimates"]] == [0.0, 0.0]
        doc = strict_json(rep.to_json())["details"]
        assert doc["z"] == [None, None] and all(x < 0 for x in doc["exact"])

    def test_verify_report_is_strict_json(self, monkeypatch, tmp_path, capsys):
        rep = self.FAILED_HYPOTHESES["singular"]()
        monkeypatch.setattr(cli, "battery", lambda **kwargs: {"singular": lambda: rep})
        path = tmp_path / "report.json"
        assert cli.main(["verify", "--all", "--report", str(path)]) == 1
        assert "FAIL bilipschitz_disc margin=nan" in capsys.readouterr().out
        assert strict_json(path.read_text())[0]["margin"] is None


class TestBattery:
    NAMES = ["crossing-bound", "word-length", "hs-family", "bilipschitz", "calabi", "lipschitz"]

    def test_bilipschitz_vectors_mix_signs(self):
        vectors = battery()["bilipschitz"].args[1]
        assert all(x != 0 for v in vectors for x in v)
        assert any(min(v) < 0 < max(v) for v in vectors)

    def test_verify_all_runs_exactly_the_desk_names(self, monkeypatch, capsys):
        ran = []

        def recording_battery(**kwargs):
            return {name: lambda name=name: ran.append(name) or Report(name, True, 0.0) for name in battery(**kwargs)}

        monkeypatch.setattr(cli, "battery", recording_battery)
        assert cli.main(["verify", "--all"]) == 0
        assert ran == self.NAMES
        assert capsys.readouterr().out.count("PASS") == len(ran)
