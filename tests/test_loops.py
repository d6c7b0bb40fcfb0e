import math
from fractions import Fraction

import numpy as np
import pytest

from discbraid.braids import (
    free_reduce,
    is_pure,
    linking_number,
    representative_length,
)
from discbraid.errors import DegenerateConfigurationError, InputError
from discbraid.flows import flow_path, make_flow
from discbraid.loops import (
    TrajectoryBundle,
    coincidence_free,
    extract_braid,
    extract_braid_auto,
    gg_loop,
    MAX_LOOP_POSITIONS,
    initial_order,
    loop_braid,
    loop_samples,
    perturb_direction,
    read_trajectory_csv,
    signed_winding,
    winding_length,
    write_trajectory_csv,
)
from discbraid.profiles import polynomial_bump, rotation_profile


def full_rotation_flow(turns=1):
    # h = y/2 rotates by t; time 2*pi*turns gives full turns
    return make_flow([(rotation_profile(1), 2 * math.pi * turns)], validate=False)


def bump_flow(scale=40, t=1.5):
    return make_flow([(polynomial_bump(Fraction(1, 8), Fraction(5, 8), scale), t)])


def random_config(rng, n):
    r = np.sqrt(rng.uniform(0, 1, n))
    th = rng.uniform(0, 2 * np.pi, n)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


def polygon(n, radius=0.5, offset=0.5):
    ang = 2 * np.pi * np.arange(n) / n + offset
    return radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


class TestBundle:
    def test_validation(self):
        with pytest.raises(InputError):
            TrajectoryBundle(np.array([0.0, 0.0]), np.zeros((2, 2, 2)))
        with pytest.raises(InputError):
            TrajectoryBundle(np.array([0.0, 1.0]), np.zeros((2, 3, 2)))

    def test_gg_loop_closes(self):
        z = polygon(3)
        x = random_config(np.random.default_rng(0), 3)
        bundle = gg_loop(z, x, bump_flow(), 16)
        assert bundle.is_loop()
        assert bundle.times[0] == 0.0 and bundle.times[-1] == 1.0

    def test_gg_loop_segment_structure(self):
        z = polygon(2)
        x = np.array([[0.1, 0.2], [-0.3, 0.1]])
        m = 8
        bundle = gg_loop(z, x, make_flow([]), m)
        # z, the m + 1 orbit samples (constant at x for the identity flow), z
        assert bundle.positions.shape == (2, m + 3, 2)
        assert np.array_equal(bundle.positions[:, 0], z) and np.array_equal(bundle.positions[:, -1], z)
        assert np.allclose(bundle.positions[:, 1 : m + 2], x[:, None])
        assert np.allclose(bundle.times, np.concatenate(([0.0], np.linspace(1, 2, m + 1) / 3, [1.0])))

    def test_coincident_inputs_rejected(self):
        z = polygon(2)
        with pytest.raises(InputError):
            gg_loop(np.array([[0.1, 0.1], [0.1, 0.1]]), z, make_flow([]), 8)

    def test_loop_size_bound(self):
        most = MAX_LOOP_POSITIONS // 2 - 3  # 2 strands of m + 3 positions each
        assert loop_samples(make_flow([]), 2, most) == most
        with pytest.raises(InputError, match="positions"):
            loop_samples(make_flow([]), 2, most + 1)
        assert loop_samples(bump_flow(), 3) == 32  # slow flows keep the floor
        with pytest.raises(InputError, match="positions"):
            loop_samples(bump_flow(t=10**6), 3)  # under MAX_ROTATION, still too many samples

    def test_oversized_loop_rejected_before_allocation(self, monkeypatch):
        def no_allocation(*args):
            raise AssertionError("allocated before the loop size check")

        monkeypatch.setattr(np, "linspace", no_allocation)
        with pytest.raises(InputError, match="positions"):
            gg_loop(polygon(2), polygon(2, 0.3), make_flow([]), 10**9)


def legs_sampled(base, start, flow, m):
    """The loop with each straight leg sampled at m + 1 points, as a reference."""
    s = np.linspace(0.0, 1.0, m + 1)
    orbit = flow_path(flow, start, s)
    out = base[:, None] + (start - base)[:, None] * s[None, :, None]
    back = orbit[:, -1:] + (base - orbit[:, -1])[:, None] * s[None, :, None]
    positions = np.concatenate((out, orbit[:, 1:], back[:, 1:]), axis=1)
    return TrajectoryBundle(np.concatenate((s, 1 + s[1:], 2 + s[1:])) / 3, positions)


class TestLegEnds:
    FLOWS = {
        "bump": bump_flow(),
        "two-term-negative": make_flow(
            [
                (polynomial_bump(Fraction(1, 8), Fraction(1, 2), 60), Fraction(-3, 2)),
                (polynomial_bump(Fraction(3, 8), Fraction(7, 8), 48), 2),
            ]
        ),
        "rotation": full_rotation_flow(1.3),
    }

    @pytest.mark.parametrize("name", list(FLOWS))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_words_match_sampled_legs(self, name, n):
        flow = self.FLOWS[name]
        rng = np.random.default_rng(100 * n + len(name))
        z = polygon(n)
        configs = np.array([random_config(rng, n) for _ in range(40)])
        configs = configs[coincidence_free(flow, z, configs)]
        assert len(configs) >= 35
        m = loop_samples(flow, n)
        for x in configs:
            bundle = gg_loop(z, x, flow)
            assert bundle.positions.shape == (n, m + 3, 2)
            assert loop_braid(bundle).letters == loop_braid(legs_sampled(z, x, flow, m)).letters


class TestExtraction:
    def test_constant_bundle_empty_word(self):
        z = polygon(3)
        bundle = gg_loop(z, z, make_flow([]), 8)
        assert extract_braid(bundle).letters == ()

    def test_out_and_back_trivial(self):
        z = polygon(2)
        x = np.array([[0.3, 0.2], [-0.1, -0.4]])
        bundle = gg_loop(z, x, make_flow([]), 12)
        assert representative_length(extract_braid_auto(bundle)) == 0

    def test_full_turn_two_points(self):
        z = np.array([[0.5, 0.0], [-0.5, 0.0]])
        bundle = gg_loop(z, z, full_rotation_flow(1), 64)
        word = free_reduce(loop_braid(bundle))
        assert word.letters in ((1, 1), (-1, -1))
        assert abs(linking_number(word, 1, 2)) == 1
        # counterclockwise rotation winds positively in this convention
        assert linking_number(word, 1, 2) == 1

    def test_half_turn_single_crossing(self):
        # half turn swaps the two symmetric points; close up with base = image
        flow = make_flow([(rotation_profile(1), math.pi)], validate=False)
        z = np.array([[0.5, 0.0], [-0.5, 0.0]])
        from discbraid.flows import flow_path

        orbit = flow_path(flow, z, np.linspace(0, 1, 65))
        bundle = TrajectoryBundle(np.linspace(0, 1, 65), orbit)
        word = extract_braid(bundle)
        assert word.letters == (1,)

    def test_purity_and_linking_oracle(self):
        rng = np.random.default_rng(7)
        flow = bump_flow()
        for trial in range(60):
            n = int(rng.integers(2, 5))
            z = polygon(n)
            x = random_config(rng, n)
            bundle = gg_loop(z, x, flow)
            word = loop_braid(bundle)
            assert is_pure(word)
            for i in range(n):
                for j in range(i + 1, n):
                    wind = signed_winding(bundle, i, j)
                    assert abs(wind - round(wind)) < 1e-6
                    assert linking_number(word, i + 1, j + 1) == round(wind)

    def test_stabilizes_under_refinement(self):
        from discbraid.seifert import braid_signature

        rng = np.random.default_rng(21)
        flow = bump_flow(scale=30, t=2)
        hits = 0
        for _ in range(10):
            n = int(rng.integers(2, 5))
            z = polygon(n)
            x = random_config(rng, n)
            coarse = loop_braid(gg_loop(z, x, flow, 96))
            fine = loop_braid(gg_loop(z, x, flow, 192))
            assert braid_signature(coarse) == braid_signature(fine)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    assert linking_number(coarse, i, j) == linking_number(fine, i, j)
            hits += int(len(coarse.letters) > 0)
        assert hits >= 5  # the braids genuinely braided

    def test_projection_tie_raises_and_perturbation_resolves(self):
        # vertical pair: x-projections tie at every sample for direction (1,0)
        z = np.array([[0.0, 0.4], [0.0, -0.4]])
        bundle = gg_loop(z, z, make_flow([]), 8)
        with pytest.raises(DegenerateConfigurationError) as info:
            extract_braid(bundle, (1.0, 0.0))
        assert info.value.time is not None  # the event time travels with it
        assert extract_braid_auto(bundle, (1.0, 0.0)).letters == ()

    def test_relabelled_word_matches_bundle_indices(self):
        # base ordered against the projection so relabelling must kick in
        z = np.array([[0.5, 0.1], [-0.5, -0.1], [0.0, 0.3]])
        x = np.array([[0.2, 0.5], [0.4, -0.3], [-0.6, 0.0]])
        flow = bump_flow()
        bundle = gg_loop(z, x, flow, 128)
        assert initial_order(bundle) != (0, 1, 2)
        word = loop_braid(bundle)
        for i in range(3):
            for j in range(i + 1, 3):
                assert linking_number(word, i + 1, j + 1) == round(
                    signed_winding(bundle, i, j)
                )


class TestWinding:
    def test_constant_bundle(self):
        z = polygon(2)
        bundle = gg_loop(z, z, make_flow([]), 8)
        assert winding_length(bundle, 0, 1) == 0

    def test_rigid_rotation_by_alpha(self):
        alpha = 2.0
        flow = make_flow([(rotation_profile(1), alpha)], validate=False)
        z = np.array([[0.5, 0.0], [-0.5, 0.0]])
        from discbraid.flows import flow_path

        orbit = flow_path(flow, z, np.linspace(0, 1, 257))
        bundle = TrajectoryBundle(np.linspace(0, 1, 257), orbit)
        assert winding_length(bundle, 0, 1) == pytest.approx(alpha / (2 * math.pi), rel=1e-4)
        assert signed_winding(bundle, 0, 1) == pytest.approx(alpha / (2 * math.pi), rel=1e-4)

    def test_crossing_bound_on_samples(self):
        rng = np.random.default_rng(3)
        flow = bump_flow(scale=50, t=2)
        for _ in range(20):
            n = 3
            z = polygon(n)
            x = random_config(rng, n)
            bundle = gg_loop(z, x, flow)
            word = loop_braid(bundle)
            bound = 2 * sum(
                winding_length(bundle, i, j) + 4
                for i in range(n)
                for j in range(i + 1, n)
            )
            assert bound >= representative_length(word)

    def test_coincidence_error(self):
        times = np.linspace(0, 1, 4)
        pos = np.zeros((2, 4, 2))
        pos[0, :, 0] = 0.5
        pos[1, :, 0] = 0.5  # identical strands
        bundle = TrajectoryBundle(times, pos)
        with pytest.raises(DegenerateConfigurationError):
            winding_length(bundle, 0, 1)


class TestPerturbDirection:
    def test_attempt_zero_is_input(self):
        assert perturb_direction((1.0, 0.0), 0) == (1.0, 0.0)

    def test_deterministic(self):
        a = perturb_direction((1.0, 0.0), 3)
        b = perturb_direction((1.0, 0.0), 3)
        assert a == b and a != (1.0, 0.0)

    def test_normalizes(self):
        d = perturb_direction((3.0, 4.0), 0)
        assert d == pytest.approx((0.6, 0.8))

    def test_zero_direction_rejected(self):
        with pytest.raises(InputError):
            perturb_direction((0.0, 0.0), 0)


class TestTrajectoryCsv:
    def test_roundtrip(self):
        z = polygon(3)
        x = random_config(np.random.default_rng(5), 3)
        bundle = gg_loop(z, x, bump_flow(), 16)
        text = write_trajectory_csv(bundle)
        back = read_trajectory_csv(text)
        assert np.array_equal(back.times, bundle.times)
        assert np.array_equal(back.positions, bundle.positions)

    def test_header_present(self):
        z = polygon(2)
        bundle = gg_loop(z, z, make_flow([]), 4)
        lines = write_trajectory_csv(bundle).splitlines()
        assert lines[0] == f"2,{bundle.times.size}"
        assert lines[1] == "time,strand,x,y"

    def test_malformed(self):
        with pytest.raises(InputError):
            read_trajectory_csv("2,2\nnot,a,row\n")
        with pytest.raises(InputError):
            read_trajectory_csv("")

    GOOD_CSV = "2,2\ntime,strand,x,y\n0.0,0,0.5,0\n0.0,1,-0.5,0\n1.0,0,0.5,0\n1.0,1,-0.5,0\n"

    @pytest.mark.parametrize(
        "old, new",
        [
            ("0.0,1,-0.5", "0.0,-1,-0.5"),  # negative strand index
            ("1.0,1,", "1.0,5,"),  # strand index past the header's count
            ("1.0,1,", "0.5,1,"),  # strands disagree on a sample time
            ("1.0,0,0.5", "1.0,0,nan"),  # non-finite coordinate
            ("1.0,1,", "1.0,0,"),  # one strand has more rows than the header
            ("2,2\n", "-1,-2\n"),  # non-positive counts
        ],
    )
    def test_inconsistent_rows_rejected(self, old, new):
        read_trajectory_csv(self.GOOD_CSV)
        with pytest.raises(InputError):
            read_trajectory_csv(self.GOOD_CSV.replace(old, new, 1))
