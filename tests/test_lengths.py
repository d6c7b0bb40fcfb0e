import math
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

import discbraid.lengths
from discbraid.errors import InputError
from discbraid.estimator import chunk_rng
from discbraid.flows import FlowSpec, flow_path, lp_length_radial, make_flow, turn
from discbraid.lengths import (
    STEP,
    as_isotopy,
    holder_constant,
    lp_length_of_bundle,
    lp_length_sampled,
)
from discbraid.loops import TrajectoryBundle
from discbraid.profiles import polynomial_bump, rotation_profile
from references import lp_length_sampled_loop


def rotation_flow(alpha_frac):
    return make_flow([(rotation_profile(alpha_frac), 1)], validate=False)


def bump_flow(t=3):
    return make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 30), t)])


def two_term_flow():
    return make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 30), 3),
                      (polynomial_bump(Fraction(1, 8), Fraction(1, 2), 20), -2)])


def translate_loop(t, pts):
    """Rigid translation around a circle of radius 0.1: speed 0.2 pi everywhere."""
    angle = 2 * math.pi * t
    return np.asarray(pts) + 0.1 * np.array([math.cos(angle) - 1, math.sin(angle)])


def cubic_turn(t, pts):
    """Turns the disc by 2 t^3: speed 6 t^2 |x|, exact L^2 length 2 sqrt(pi / 2)."""
    return np.stack(turn(pts[:, 0], pts[:, 1], 2.0 * t**3), axis=1)


class CountingIsotopy:
    """Records each time it is asked for, then applies the wrapped isotopy."""

    def __init__(self, isotopy):
        self.apply = as_isotopy(isotopy)
        self.times = []

    def __call__(self, t, pts):
        self.times.append(t)
        return self.apply(t, pts)


def rotate_by_formula(flow, t, pts):
    """The radial flow at time t, recomputing the angular rate on every call."""
    pts = np.asarray(pts, dtype=float)
    r2 = np.clip(np.sum(pts**2, axis=1), 0.0, 1.0)
    dtheta = t * flow.angular_rate_float(r2)
    c, s = np.cos(dtheta), np.sin(dtheta)
    return np.stack((c * pts[:, 0] - s * pts[:, 1], s * pts[:, 0] + c * pts[:, 1]), axis=1)


def disc_cloud(seed, size):
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0, 1, size))
    theta = rng.uniform(0, 2 * math.pi, size)
    return np.stack((r * np.cos(theta), r * np.sin(theta)), axis=1)


BAD_P = [0.5, 0.0, -1.0, math.nan, math.inf, -math.inf]


class TestHolderConstant:
    def test_p1_equality_case(self):
        assert holder_constant(1) == 1.0

    def test_p2(self):
        assert holder_constant(2) == pytest.approx(math.pi**-0.5)

    def test_validation(self):
        with pytest.raises(InputError):
            holder_constant(0.5)


class TestExponentValidation:
    @pytest.mark.parametrize("p", BAD_P)
    def test_every_length_rejects(self, p):
        flow = bump_flow()
        bundle = TrajectoryBundle(np.linspace(0, 1, 3), np.zeros((2, 3, 2)))
        for call in (
            lambda: holder_constant(p),
            lambda: lp_length_sampled(flow, p, space_samples=100),
            lambda: lp_length_of_bundle(bundle, p),
            lambda: lp_length_radial(flow, p),
        ):
            with pytest.raises(InputError):
                call()


class TestRateMemo:
    """as_isotopy computes a cloud's rate once and stays bitwise the formula."""

    TIMES = [0.0, 0.25, -0.01, 1.0, 1.01]

    def test_repeated_calls_on_one_cloud(self):
        flow = bump_flow()
        apply = as_isotopy(flow)
        cloud = disc_cloud(1, 500)
        for t in self.TIMES + self.TIMES:
            assert np.array_equal(apply(t, cloud), rotate_by_formula(flow, t, cloud))

    @pytest.mark.parametrize(
        "flow, stationary",
        [
            (rotation_flow(1), "none"),
            (make_flow([]), "all"),
            (two_term_flow(), "some"),
        ],
        ids=["rigid", "empty", "two-term"],
    )
    def test_stationary_points_are_copied(self, flow, stationary):
        apply = as_isotopy(flow)
        cloud = disc_cloud(5, 600)
        moving = flow.angular_rate_float(np.sum(cloud**2, axis=1)) != 0
        assert {"none": moving.all(), "all": not moving.any(), "some": 0 < moving.sum() < len(cloud)}[stationary]
        for t in self.TIMES + [-3.0, 2.5]:
            got = apply(t, cloud)
            assert np.array_equal(got, rotate_by_formula(flow, t, cloud))
            assert np.array_equal(got[~moving], cloud[~moving])

    def test_two_clouds_alternating(self):
        flow = bump_flow()
        apply = as_isotopy(flow)
        clouds = [disc_cloud(2, 400), disc_cloud(3, 400)]
        for t in self.TIMES:
            for cloud in clouds + clouds[::-1]:
                assert np.array_equal(apply(t, cloud), rotate_by_formula(flow, t, cloud))

    def test_cloud_mutated_in_place(self):
        flow = bump_flow()
        apply = as_isotopy(flow)
        cloud = disc_cloud(4, 300)
        before = apply(0.5, cloud)
        cloud *= 0.6  # new radii, so a stale rate would move every point wrongly
        after = apply(0.5, cloud)
        assert np.array_equal(after, rotate_by_formula(flow, 0.5, cloud))
        assert not np.array_equal(after, 0.6 * before)
        cloud[0] = (0.1, 0.2)  # one changed point is enough
        assert np.array_equal(apply(0.5, cloud), rotate_by_formula(flow, 0.5, cloud))

    @pytest.mark.parametrize(
        "flow",
        [
            make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20), 1)]),
            two_term_flow(),
            rotation_flow(Fraction(7, 10)),
        ],
        ids=["criterion-8-bump", "two-term", "rigid"],
    )
    def test_is_flow_path_at_one_time(self, flow):
        """One flow map: the sampled lengths move the cloud with the very
        bits of ``flow_path``, fixed points included."""
        apply = as_isotopy(flow)
        cloud = np.concatenate((disc_cloud(6, 1000), [[0.0, 0.0], [-0.1, 0.0], [0.6, -0.8], [1.0, 0.0]]))
        for t in (-0.01, 0.0, 0.37, 1.0, 1.01):
            assert apply(t, cloud).tobytes() == flow_path(flow, cloud, [t])[:, 0].tobytes()

    def test_clouds_of_different_sizes(self):
        flow = bump_flow()
        apply = as_isotopy(flow)
        for size in (1, 7, 300, 0, 7, 2000):
            cloud = disc_cloud(size, size)
            for t in (0.3, 0.7):
                got = apply(t, cloud)
                assert got.shape == (size, 2)
                assert np.array_equal(got, rotate_by_formula(flow, t, cloud))

    def test_rate_computed_once_per_cloud(self, monkeypatch):
        calls = []
        original = FlowSpec.angular_rate_float

        def counting(self, y):
            calls.append(len(y))
            return original(self, y)

        monkeypatch.setattr(FlowSpec, "angular_rate_float", counting)
        lp_length_sampled(bump_flow(), 2, space_samples=500, seed=1)
        assert calls == [500]

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_sampled_length_unchanged(self, p):
        flow = bump_flow()
        memoized = lp_length_sampled(flow, p, space_samples=3000, seed=6)
        recomputed = lp_length_sampled(
            lambda t, pts: rotate_by_formula(flow, t, pts), p, space_samples=3000, seed=6
        )
        assert memoized.value == recomputed.value
        assert memoized.std_error == recomputed.std_error


class TestLpLengthSampled:
    def test_identity_isotopy(self):
        est = lp_length_sampled(make_flow([]), 2, space_samples=500, seed=0)
        assert est.value == 0.0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_rotation_closed_form(self, p):
        alpha = 1.3
        est = lp_length_sampled(rotation_flow(Fraction(13, 10)), p, seed=2)
        want = alpha * (2 * math.pi / (p + 2)) ** (1 / p)
        assert abs(est.value - want) / want < 5e-3

    def test_matches_analytic_radial(self):
        rng = np.random.default_rng(8)
        for trial in range(3):
            a = Fraction(int(rng.integers(1, 4)), 8)
            b = a + Fraction(int(rng.integers(2, 4)), 8)
            flow = make_flow([(polynomial_bump(a, b, int(rng.integers(4, 40))), 2)])
            p = float(rng.choice([1.0, 2.0, 3.0]))
            want = lp_length_radial(flow, p)
            est = lp_length_sampled(flow, p, space_samples=30000, seed=trial)
            assert abs(est.value - want) <= 3 * est.std_error + 1e-3 * want

    def test_time_rescaling(self):
        h = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 30)
        one = lp_length_sampled(make_flow([(h, 1)]), 2, space_samples=20000, seed=3)
        three = lp_length_sampled(make_flow([(h, 3)]), 2, space_samples=20000, seed=3)
        assert three.value == pytest.approx(3 * one.value, rel=3e-3)

    def test_deterministic(self):
        flow = rotation_flow(1)
        a = lp_length_sampled(flow, 2, space_samples=4000, seed=5)
        b = lp_length_sampled(flow, 2, space_samples=4000, seed=5)
        assert a == b

    def test_callable_isotopy(self):
        est = lp_length_sampled(translate_loop, 2, space_samples=2000, seed=1)
        want = 2 * math.pi * 0.1 * math.sqrt(math.pi)  # |v| constant = 0.2 pi
        assert est.value == pytest.approx(want, rel=1e-3)

    def test_additive_under_time_concatenation(self):
        # run flow A on [0, 1/2] and flow B on [1/2, 1]: lengths add
        ha = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 30)
        hb = polynomial_bump(Fraction(1, 8), Fraction(1, 2), 20)
        fa = as_isotopy(make_flow([(ha, 1)]))
        fb = as_isotopy(make_flow([(hb, 2)]))

        def concatenated(t, pts):
            if t <= 0.5:
                return fa(2 * t, pts)
            return fb(2 * t - 1, fa(1.0, pts))

        total = lp_length_sampled(concatenated, 2, time_steps=65, space_samples=20000, seed=9)
        la = lp_length_sampled(make_flow([(ha, 1)]), 2, space_samples=20000, seed=9)
        lb = lp_length_sampled(make_flow([(hb, 2)]), 2, space_samples=20000, seed=9)
        # the velocity kink at the junction costs one grid point of accuracy
        assert total.value == pytest.approx(la.value + lb.value, rel=1.5e-2)

    def test_validation(self):
        with pytest.raises(InputError):
            lp_length_sampled(make_flow([]), 0.5)
        with pytest.raises(InputError):
            lp_length_sampled(make_flow([]), 2, time_steps=1)
        with pytest.raises(InputError):
            as_isotopy(42)


class TestConvergence:
    """Nested grids refine until the trapezoid settles; the estimate says
    whether it did, within the caps, and whether the difference step did."""

    @pytest.mark.parametrize("time_steps, converged", [(3, False), (9, True), (33, True)])
    def test_cubic_turn(self, time_steps, converged):
        # a fixed trapezoid grid of 3 points reads 12.5 % high here (z about 99);
        # from 3 points the 4th halving still moves the value by 0.15 %
        est = lp_length_sampled(cubic_turn, 2, time_steps=time_steps, seed=0)
        want = 2 * math.sqrt(math.pi / 2)
        assert est.converged is converged
        assert abs(est.value - want) <= 3 * est.std_error + 1e-3 * want

    def test_a_radial_flow_settles_at_the_first_refinement(self):
        est = lp_length_sampled(bump_flow(), 2, space_samples=2000, seed=1)
        assert (est.converged, est.refinements) == (True, 1)
        assert est.to_dict()["converged"] is True and est.to_dict()["refinements"] == 1

    def test_a_coarse_difference_step_is_reported(self):
        def spin(rate):
            return lambda t, pts: np.stack(turn(pts[:, 0], pts[:, 1], rate * t), axis=1)

        # turning 2^14 rad per unit time, the chord over 2 STEP is 1 % short
        # of the arc and over 4 STEP 4 %: the grid settles, the step does not
        fast = lp_length_sampled(spin(2.0**14), 2, space_samples=2000, seed=1)
        assert (fast.converged, fast.refinements) == (False, 1)
        assert lp_length_sampled(spin(2.0**8), 2, space_samples=2000, seed=1).converged

    @pytest.mark.parametrize(
        "cap, value, time_steps, refinements",
        [("MAX_REFINEMENTS", 1, 3, 1), ("MAX_TIME_STEPS", 9, 3, 2), ("MAX_TIME_STEPS", 9, 9, 0)],
        ids=["refinements", "grid", "grid-at-the-start"],
    )
    def test_caps(self, monkeypatch, cap, value, time_steps, refinements):
        monkeypatch.setattr(discbraid.lengths, cap, value)
        counted = CountingIsotopy(cubic_turn)
        est = lp_length_sampled(counted, 2, time_steps=time_steps, space_samples=500, seed=3)
        assert (est.converged, est.refinements) == (False, refinements)
        assert len(counted.times) == 2 * ((time_steps - 1) * 2**refinements + 1) + 2
        want = lp_length_sampled_loop(cubic_turn, 2, time_steps=time_steps, space_samples=500, seed=3)
        assert repr(est) == repr(want)


class TestSampledPipeline:
    """Each distinct time is asked for once, the norms run on a worker
    thread, and the result is the per-time loop's, bit for bit."""

    ISOTOPIES = {"flow": bump_flow, "callable": lambda: translate_loop, "two-term": two_term_flow,
                 "cubic": lambda: cubic_turn}

    @pytest.mark.parametrize("time_steps", [2, 10, 33])
    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    @pytest.mark.parametrize("isotopy", sorted(ISOTOPIES))
    def test_matches_the_loop(self, isotopy, p, time_steps):
        make = self.ISOTOPIES[isotopy]
        got = lp_length_sampled(make(), p, time_steps=time_steps, space_samples=2000, seed=4)
        want = lp_length_sampled_loop(make(), p, time_steps=time_steps, space_samples=2000, seed=4)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize(
        "isotopy, time_steps, refinements",
        [(bump_flow(t=16), 33, 1), (bump_flow(t=16), 10, 1), (cubic_turn, 3, 4), (cubic_turn, 9, 3)],
        ids=["bump-33", "bump-10", "cubic-3", "cubic-9"],
    )
    def test_each_time_asked_once(self, isotopy, time_steps, refinements):
        # a refinement asks only for its new midpoints, and the probe for two
        # more images: no time is asked twice in the whole call
        counted = CountingIsotopy(isotopy)
        est = lp_length_sampled(counted, 2, time_steps=time_steps, space_samples=3000, seed=2)
        assert est.refinements == refinements
        finest = (time_steps - 1) * 2**refinements + 1
        assert len(counted.times) == 2 * finest + 2
        assert len(set(counted.times)) == len(counted.times)
        grid = np.linspace(0.0, 1.0, finest)
        middle = np.linspace(0.0, 1.0, time_steps)[(time_steps - 1) // 2]
        asked = np.sort(counted.times)
        want = np.sort(np.concatenate((grid + STEP, grid - STEP, [middle + 2 * STEP, middle - 2 * STEP])))
        assert np.allclose(asked, want, rtol=0, atol=1e-15)
        parent = CountingIsotopy(isotopy)
        lp_length_sampled_loop(parent, 2, time_steps=time_steps, space_samples=3000, seed=2)
        assert counted.times == parent.times  # the same times, in the same order

    def test_images_are_not_written(self):
        returned = []

        def identity(t, pts):
            returned.append((pts, pts.copy()))
            return pts  # the cloud itself: neither it nor an image may be overwritten

        assert lp_length_sampled(identity, 2, space_samples=500, seed=1).value == 0.0
        assert all(np.array_equal(array, copy) for array, copy in returned)

    def test_overflow_in_the_worker_is_refused_not_warned(self):
        def jump(t, pts):
            return pts + 1e308 * (t > 0.5)  # the speed across the jump overflows

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="L\\^p length overflows float arithmetic"):
                lp_length_sampled(jump, 2, space_samples=500, seed=1)

    def test_isotopy_error_propagates_and_the_worker_stops(self):
        error = RuntimeError("isotopy failed")
        calls = []

        def failing(t, pts):
            calls.append(t)
            if len(calls) == 5:
                raise error
            return translate_loop(t, pts)

        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            lp_length_sampled(failing, 2, space_samples=500, seed=1)
        assert raised.value is error
        assert len(calls) == 5
        assert threading.active_count() == before


class TestBundleLength:
    def test_static_bundle(self):
        times = np.linspace(0, 1, 5)
        pos = np.tile(np.array([[0.3, 0.0], [-0.3, 0.0]])[:, None, :], (1, 5, 1))
        assert lp_length_of_bundle(TrajectoryBundle(times, pos), 2) == 0.0

    def test_rotating_pair(self):
        # two points on the radius-r circle rotating by angle 1: speed r
        r = 0.5
        times = np.linspace(0, 1, 2001)
        ang = times[None, :] + np.array([[0.0], [math.pi]])
        pos = r * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        value = lp_length_of_bundle(TrajectoryBundle(times, pos), 2)
        assert value == pytest.approx(math.sqrt(math.pi) * r, rel=1e-4)


class TestDiscKernelBound:
    def test_inverse_distance_integral_below_4pi(self):
        # INT_D |x - y|^{-1} dy <= 4*pi for every x in the disc
        rng = chunk_rng(77, 99, 0)
        for _ in range(20):
            rr = math.sqrt(rng.uniform(0, 1))
            th = rng.uniform(0, 2 * math.pi)
            x = np.array([rr * math.cos(th), rr * math.sin(th)])
            n = 200_000
            r = np.sqrt(rng.uniform(0, 1, n))
            t = rng.uniform(0, 2 * math.pi, n)
            ys = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
            d = np.hypot(ys[:, 0] - x[0], ys[:, 1] - x[1])
            d = d[d > 1e-12]
            estimate = math.pi * float(np.mean(1.0 / d))
            sigma = math.pi * float(np.std(1.0 / d)) / math.sqrt(d.size)
            assert estimate <= 4 * math.pi + 3 * sigma
