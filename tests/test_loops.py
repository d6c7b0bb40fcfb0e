import math
from fractions import Fraction

import numpy as np
import pytest

import discbraid.loops as loops_mod
from discbraid.braids import (
    BraidWord,
    free_reduce,
    is_pure,
    linking_number,
    representative_length,
)
from discbraid.errors import DegenerateConfigurationError, InputError
from discbraid.flows import flow_path, make_flow
from discbraid.loops import (
    COINCIDENCE_THRESHOLD,
    PERTURB_ATTEMPTS,
    TrajectoryBundle,
    closest_pair,
    coincidence_free,
    extract_braid,
    gg_loops,
    MAX_LOOP_POSITIONS,
    loop_braids,
    loop_samples,
    perturb_direction,
    read_trajectory_csv,
    winding_length,
    write_trajectory_csv,
)
from discbraid.profiles import polynomial_bump, rotation_profile

from references import gg_loop, signed_winding


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
        assert np.array_equal(bundle.positions[:, 1 : m + 2], np.broadcast_to(x[:, None], (2, m + 1, 2)))
        assert np.allclose(bundle.times, np.concatenate(([0.0], np.linspace(1, 2, m + 1) / 3, [1.0])))

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
            next(gg_loops(polygon(2), polygon(2, 0.3)[None], make_flow([]), 10**9))


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
            assert extract_braid(bundle).letters == extract_braid(legs_sampled(z, x, flow, m)).letters


class TestExtraction:
    def test_constant_bundle_empty_word(self):
        z = polygon(3)
        bundle = gg_loop(z, z, make_flow([]), 8)
        assert representative_length(extract_braid(bundle)) == 0

    def test_out_and_back_trivial(self):
        z = polygon(2)
        x = np.array([[0.3, 0.2], [-0.1, -0.4]])
        bundle = gg_loop(z, x, make_flow([]), 12)
        assert representative_length(extract_braid(bundle)) == 0

    def test_full_turn_two_points(self):
        z = np.array([[0.5, 0.0], [-0.5, 0.0]])
        bundle = gg_loop(z, z, full_rotation_flow(1), 64)
        word = free_reduce(extract_braid(bundle))
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
            word = extract_braid(bundle)
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
            coarse = extract_braid(gg_loop(z, x, flow, 96))
            fine = extract_braid(gg_loop(z, x, flow, 192))
            assert braid_signature(coarse) == braid_signature(fine)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    assert linking_number(coarse, i, j) == linking_number(fine, i, j)
            hits += int(len(coarse.letters) > 0)
        assert hits >= 5  # the braids genuinely braided

    def test_projection_tie_raises_and_perturbation_resolves(self, monkeypatch):
        # vertical pair: x-projections tie at every sample for direction (1,0)
        z = np.array([[0.0, 0.4], [0.0, -0.4]])
        bundle = gg_loop(z, z, make_flow([]), 8)
        assert representative_length(extract_braid(bundle, (1.0, 0.0))) == 0
        monkeypatch.setattr(loops_mod, "PERTURB_ATTEMPTS", 1)
        with pytest.raises(DegenerateConfigurationError) as info:
            extract_braid(bundle, (1.0, 0.0))
        assert info.value.time is not None  # the event time travels with it

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_positions_rejected(self, value):
        pos = np.array([[[0.5, 0.0], [value, 0.0], [-0.5, 0.1]], [[-0.5, 0.0], [0.3, 0.0], [0.5, -0.1]]])
        bundle = TrajectoryBundle(np.linspace(0.0, 1.0, 3), pos)
        with pytest.raises(InputError, match="finite"):
            extract_braid(bundle)

    def test_relabelled_word_matches_bundle_indices(self):
        # base ordered against the projection so relabelling must kick in
        z = np.array([[0.5, 0.1], [-0.5, -0.1], [0.0, 0.3]])
        x = np.array([[0.2, 0.5], [0.4, -0.3], [-0.6, 0.0]])
        flow = bump_flow()
        bundle = gg_loop(z, x, flow, 128)
        assert walk_initial_order(bundle) != (0, 1, 2)
        word = extract_braid(bundle)
        for i in range(3):
            for j in range(i + 1, 3):
                assert linking_number(word, i + 1, j + 1) == round(
                    signed_winding(bundle, i, j)
                )


# The per-column walk that read braids before the batched kernel, kept
# verbatim as the reference the kernel must reproduce letter for letter,
# and the pair walk that ``closest_pair`` replaced by one row at a time.

def walk_closest_pair(points) -> tuple[float, int, int]:
    best = (math.inf, -1, -1)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            rel = points[i] - points[j]
            d = np.hypot(rel[..., 0], rel[..., 1])
            d = float(d.min() if d.ndim else d)
            if d < best[0]:
                best = (d, i, j)
    return best


def walk_extract_braid(bundle: TrajectoryBundle, direction=(1.0, 0.0)) -> BraidWord:
    """Read the braid word of the bundle along a projection direction.

    Each change of the projected strand order between consecutive samples is
    resolved into adjacent transpositions ordered by their interpolated
    crossing times.  Projection ties and ambiguous simultaneous crossings
    raise :class:`DegenerateConfigurationError` with the event time.
    """
    dx, dy = perturb_direction(direction, 0)
    pos = bundle.positions
    n = pos.shape[0]
    if walk_closest_pair(pos)[0] < COINCIDENCE_THRESHOLD:
        raise DegenerateConfigurationError("strands pass within coincidence threshold")

    proj = pos[..., 0] * dx + pos[..., 1] * dy  # (n, T)
    perp = -pos[..., 0] * dy + pos[..., 1] * dx

    order = np.argsort(proj, axis=0, kind="stable")
    sorted_proj = np.take_along_axis(proj, order, axis=0)
    gaps = np.diff(sorted_proj, axis=0)
    tie_cols = np.nonzero(np.any(gaps == 0.0, axis=0))[0]
    if tie_cols.size:
        k = int(tie_cols[0])
        raise DegenerateConfigurationError(
            "projection tie at a sample time", time=float(bundle.times[k])
        )

    changed = np.nonzero(np.any(order[:, 1:] != order[:, :-1], axis=0))[0]
    # the walk reads plain floats, per sample column: the same IEEE arithmetic, faster
    proj_cols, perp_cols, order_cols = proj.T.tolist(), perp.T.tolist(), order.T.tolist()
    letters: list[int] = []
    slots = list(order_cols[0])
    for k in changed.tolist():
        s0, s1 = proj_cols[k], proj_cols[k + 1]
        events = []
        for pa in range(n):
            for pb in range(pa + 1, n):
                a, b = slots[pa], slots[pb]
                d0 = s0[a] - s0[b]
                d1 = s1[a] - s1[b]
                if d0 == 0.0 or d1 == 0.0:
                    raise DegenerateConfigurationError(
                        "projection tie at a sample time", time=float(bundle.times[k])
                    )
                if (d0 < 0) != (d1 < 0):
                    tau = d0 / (d0 - d1)
                    events.append((tau, a, b))
        events.sort()
        for e0, e1 in zip(events, events[1:]):
            if e1[0] - e0[0] < 1e-15:
                raise DegenerateConfigurationError(
                    "simultaneous crossings", time=float(bundle.times[k])
                )
        p0, p1 = perp_cols[k], perp_cols[k + 1]
        for tau, a, b in events:
            pa, pb = slots.index(a), slots.index(b)
            if abs(pa - pb) != 1:
                raise DegenerateConfigurationError(
                    "crossing between non-adjacent strands", time=float(bundle.times[k])
                )
            left_slot = min(pa, pb)
            left, right = slots[left_slot], slots[left_slot + 1]
            rel_perp = (
                p0[left] + (p1[left] - p0[left]) * tau
                - p0[right] - (p1[right] - p0[right]) * tau
            )
            if abs(rel_perp) < COINCIDENCE_THRESHOLD:
                raise DegenerateConfigurationError(
                    "crossing with coincident strands", time=float(bundle.times[k])
                )
            sign = 1 if rel_perp < 0 else -1
            letters.append(sign * (left_slot + 1))
            slots[left_slot], slots[left_slot + 1] = slots[left_slot + 1], slots[left_slot]
        if slots != order_cols[k + 1]:
            raise DegenerateConfigurationError(
                "crossing resolution did not reproduce the sampled order",
                time=float(bundle.times[k]),
            )
    return BraidWord(n, tuple(letters))


def walk_extract_perturbed(bundle: TrajectoryBundle, direction):
    """(word, direction) of the first of PERTURB_ATTEMPTS perturbed
    directions whose extraction is not degenerate; the last degeneracy
    otherwise."""
    for attempt in range(PERTURB_ATTEMPTS):
        d = perturb_direction(direction, attempt)
        try:
            return walk_extract_braid(bundle, d), d
        except DegenerateConfigurationError as exc:
            last = exc
    raise last


def walk_initial_order(bundle: TrajectoryBundle, direction=(1.0, 0.0)) -> tuple[int, ...]:
    """Bundle strand indices sorted by projection at the first sample."""
    dx, dy = perturb_direction(direction, 0)
    proj = bundle.positions[:, 0, 0] * dx + bundle.positions[:, 0, 1] * dy
    return tuple(int(i) for i in np.argsort(proj, kind="stable"))


def walk_permutation_word(final) -> list[int]:
    """Positive word that brings the strand starting in slot final[q] to slot q."""
    current = list(range(len(final)))
    letters = []
    for q, strand in enumerate(final):
        p = current.index(strand)
        while p > q:
            letters.append(p)  # 1-based generator index p swaps slots p-1, p
            current[p - 1], current[p] = current[p], current[p - 1]
            p -= 1
    return letters


def walk_loop_braid(bundle: TrajectoryBundle, direction=(1.0, 0.0)) -> BraidWord:
    """Pure braid of a closed bundle, with strands labelled by bundle index.

    ``extract_braid`` labels strands by their projected order; the loop braid
    is that word conjugated by a fixed positive permutation word so that
    strand i is the strand of ``positions[i-1]``.  Conjugation leaves the
    closure and (for pure words) every pairwise linking number intact.
    """
    word, d = walk_extract_perturbed(bundle, direction)
    order = walk_initial_order(bundle, d)
    if order == tuple(range(word.strands)):
        return word
    # strand with bundle index i must start in the slot where the
    # projected order placed it
    u = BraidWord(word.strands, tuple(walk_permutation_word(order)))
    return BraidWord(word.strands, u.letters + word.letters + u.inverse().letters)


def walk_bundle_braid(bundle: TrajectoryBundle, direction=(1.0, 0.0)) -> BraidWord:
    """The closed-bundle walk when the bundle closes, the perturbed walk when it is open."""
    if bundle.is_loop():
        return walk_loop_braid(bundle, direction)
    return walk_extract_perturbed(bundle, direction)[0]


def outcome(extract, *args):
    """The word's letters, or the degeneracy's message and event time."""
    try:
        return extract(*args).letters
    except DegenerateConfigurationError as exc:
        return (str(exc), exc.time)


def batch_outcome(word):
    return word.letters if isinstance(word, BraidWord) else (str(word), word.time)


def crossing_bundle(starts, ends, steps=1):
    """Strands moving on straight lines from starts to ends, sampled at steps + 1 times."""
    s = np.linspace(0.0, 1.0, steps + 1)[None, :, None]
    a, b = np.asarray(starts, dtype=float)[:, None], np.asarray(ends, dtype=float)[:, None]
    return TrajectoryBundle(np.linspace(0.0, 1.0, steps + 1), a + (b - a) * s)


class TestKernelMatchesWalk:
    FLOWS = {
        **{f"t{t}": make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20), t)]) for t in (1, 4, 16, -8)},
        "multi": make_flow(
            [
                (polynomial_bump(Fraction(1, 8), Fraction(1, 2), 60), Fraction(-3, 2)),
                (polynomial_bump(Fraction(3, 8), Fraction(7, 8), 48), 2),
            ]
        ),
    }
    # (strands, configurations); 24 strands make rows of 276 slot pairs
    SIZES = ((2, 24), (3, 24), (4, 16), (5, 10), (6, 8), (24, 2))

    @pytest.mark.parametrize(
        "batch, budget", [(None, None), (1, None), (None, 64)], ids=["default-batch", "batch-of-one", "small-pair-budget"]
    )
    @pytest.mark.parametrize("name", list(FLOWS))
    def test_words_match_the_walk(self, monkeypatch, name, batch, budget):
        if batch is not None:
            monkeypatch.setattr(loops_mod, "LOOP_BATCH_POSITIONS", batch)
        if budget is not None:  # blocks of a few rows, or of two lower slots of one row
            monkeypatch.setattr(loops_mod, "PAIR_BUDGET", budget)
        flow = self.FLOWS[name]
        rng = np.random.default_rng(len(name) + (batch or 0))
        lettered = 0
        for n, count in self.SIZES:
            z = polygon(n)
            configs = np.array([random_config(rng, n) for _ in range(count)])
            configs = configs[coincidence_free(flow, z, configs)]
            assert len(configs) >= count // 2
            for times, positions in gg_loops(z, configs, flow):
                for loop, word in zip(positions, loop_braids(times, positions), strict=True):
                    bundle = TrajectoryBundle(times, loop)
                    expected = outcome(walk_loop_braid, bundle)
                    assert batch_outcome(word) == expected
                    assert outcome(extract_braid, bundle) == expected
                    lettered += len(expected) > 0
        assert lettered > 20

    def test_one_bundle_entry_points_match_the_walk(self):
        rng = np.random.default_rng(3)
        flow = self.FLOWS["t4"]
        for n in (2, 3, 5):
            closed = gg_loop(polygon(n), random_config(rng, n), flow)
            # the loop without its last leg end, an open trajectory
            opened = TrajectoryBundle(closed.times[:-1], closed.positions[:, :-1])
            assert not opened.is_loop()
            for bundle in (closed, opened):
                for direction in ((1.0, 0.0), (-1.0, 0.3), (3.0, 4.0)):
                    assert outcome(extract_braid, bundle, direction) == outcome(walk_bundle_braid, bundle, direction)

    def test_closed_bundle_relabelled_open_bundle_not(self):
        # the relabelling test's loop, and the same strands with the last
        # position of one strand moved so that the bundle no longer closes
        z = np.array([[0.5, 0.1], [-0.5, -0.1], [0.0, 0.3]])
        x = np.array([[0.2, 0.5], [0.4, -0.3], [-0.6, 0.0]])
        closed = gg_loop(z, x, bump_flow(), 128)
        positions = closed.positions.copy()
        positions[0, -1] += (0.0, 1e-3)
        opened = TrajectoryBundle(closed.times, positions)
        assert closed.is_loop() and not opened.is_loop()
        order = walk_initial_order(closed)
        assert order != (0, 1, 2)
        u = tuple(walk_permutation_word(order))
        word = extract_braid(opened).letters
        assert word == walk_extract_braid(opened).letters and len(word) > 0
        assert extract_braid(closed).letters == u + word + tuple(-l for l in reversed(u))

    DEGENERATE = {
        # x-projections tie at every sample
        "vertical-pair": gg_loop(np.array([[0.0, 0.4], [0.0, -0.4]]), np.array([[0.0, 0.4], [0.0, -0.4]]), make_flow([]), 8),
        # the strands pass through the origin together, between two samples
        "coincident-legs": crossing_bundle([[-0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [-0.5, 0.0]]),
        # the swapped base sends the loop's legs through each other
        "swapped-base": gg_loop(polygon(2), polygon(2)[::-1], make_flow([]), 8),
        # two disjoint pairs swap at the same interpolated time
        "simultaneous": crossing_bundle(
            [[-2.0, 0.1], [-1.0, -0.1], [1.0, 0.1], [2.0, -0.1]],
            [[-1.0, 0.1], [-2.0, -0.1], [2.0, 0.1], [1.0, -0.1]],
        ),
        # a non-loop trajectory: a half turn of two points
        "half-turn": crossing_bundle([[0.5, 0.0], [-0.5, 0.0]], [[-0.5, 0.1], [0.5, -0.1]], 3),
        # two strands meet at a sample
        "touching": crossing_bundle([[0.5, 0.0], [-0.5, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
    }

    @pytest.mark.parametrize("name", list(DEGENERATE))
    def test_degeneracies_match_the_walk(self, monkeypatch, name):
        bundle = self.DEGENERATE[name]
        assert outcome(extract_braid, bundle) == outcome(walk_bundle_braid, bundle)
        monkeypatch.setattr(loops_mod, "PERTURB_ATTEMPTS", 1)  # the one direction (1, 0)
        single = outcome(walk_extract_braid, bundle)
        if isinstance(single[0], str):  # degenerate along it: the message and event time
            assert outcome(extract_braid, bundle) == single
        else:
            assert outcome(extract_braid, bundle) == outcome(walk_bundle_braid, bundle)

    def test_degenerate_loops_in_a_batch(self):
        # every loop around a vertical base ties at its ends along (1, 0), so
        # each is retried along perturbed directions; the swapped starts stay
        # degenerate along all of them
        z = np.array([[0.0, 0.4], [0.0, -0.4]])
        starts = np.array([z, z[::-1], [[0.3, 0.1], [-0.2, -0.5]], [[0.0, 0.2], [0.0, -0.2]]])
        times, positions = next(gg_loops(z, starts, self.FLOWS["t4"]))
        words = loop_braids(times, positions)
        expected = [outcome(walk_loop_braid, TrajectoryBundle(times, loop)) for loop in positions]
        assert [batch_outcome(w) for w in words] == expected
        assert expected[1] == ("crossing with coincident strands", 0.0)
        assert all(isinstance(letter, int) for letter in expected[0] + expected[2])


class TestClosestPair:
    @pytest.mark.parametrize("shape", [(), (5,)], ids=["points", "strands"])
    def test_matches_the_pair_walk(self, shape):
        # coordinates on a coarse grid, so equal distances and first-pair ties are common
        rng = np.random.default_rng(len(shape))
        for n in [0, 1, 2] * 5 + list(range(3, 12)) * 30:
            points = rng.integers(-3, 4, size=(n, *shape, 2)) / 4.0
            assert closest_pair(points) == walk_closest_pair(points)


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
            word = extract_braid(bundle)
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
