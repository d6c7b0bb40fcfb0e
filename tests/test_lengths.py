import math
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from discbraid.errors import InputError
from discbraid.estimator import chunk_rng
from discbraid.flows import FlowSpec, lp_length_radial, make_flow
from discbraid.lengths import (
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


class TestSampledPipeline:
    """Each distinct time is asked for once, the norms run on a worker
    thread, and the result is the per-time loop's, bit for bit."""

    ISOTOPIES = {"flow": bump_flow, "callable": lambda: translate_loop, "two-term": two_term_flow}

    @pytest.mark.parametrize("time_steps", [2, 10, 33])
    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    @pytest.mark.parametrize("isotopy", sorted(ISOTOPIES))
    def test_matches_the_loop(self, isotopy, p, time_steps):
        make = self.ISOTOPIES[isotopy]
        got = lp_length_sampled(make(), p, time_steps=time_steps, space_samples=2000, seed=4)
        want = lp_length_sampled_loop(make(), p, time_steps=time_steps, space_samples=2000, seed=4)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("time_steps, first_pass", [(33, 34), (10, 13)])
    def test_each_time_asked_once(self, time_steps, first_pass):
        # on 33 steps every midpoint (2j+1)/64 is shared; on 10 steps 7 of the
        # 9 midpoints are equal floats; the refined steps share none
        flow = bump_flow(t=16)
        counted = CountingIsotopy(flow)
        lp_length_sampled(counted, 2, time_steps=time_steps, space_samples=3000, seed=2)
        parent = CountingIsotopy(flow)
        lp_length_sampled_loop(parent, 2, time_steps=time_steps, space_samples=3000, seed=2)
        refinements = len(parent.times) // (2 * time_steps) - 1
        assert refinements >= 1
        per_pass = 2 * time_steps
        assert len(counted.times) == first_pass + refinements * per_pass
        sizes = [first_pass] + [per_pass] * refinements
        starts = np.cumsum([0] + sizes)
        for k, (a, b) in enumerate(zip(starts, starts[1:])):
            asked = counted.times[a:b]
            assert len(set(asked)) == len(asked)  # no time twice in a pass
            assert set(asked) == set(parent.times[2 * time_steps * k:2 * time_steps * (k + 1)])

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
