import concurrent.futures
import itertools
import json
import math
import multiprocessing
import os
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import discbraid.estimator as est_mod
import discbraid.loops as loops_mod
from discbraid.braids import cyclic_reduce, linking_number
from discbraid.errors import DegeneracyError, InputError
from discbraid.estimator import (
    QmEstimate,
    chunk_rng,
    default_base,
    estimate_phi_n,
    estimate_phi_tilde_n,
)
from discbraid.experiments import calabi_profiles, exact_phi_tilde
from discbraid.flows import make_flow
from discbraid.loops import COINCIDENCE_THRESHOLD, extract_braid, loop_winding
from discbraid.profiles import make_hs_profile, polynomial_bump, rotation_profile
from discbraid.quasimorphisms import linking_quasimorphism, signature_quasimorphism
from discbraid.seifert import braid_signature, class_signature, matrix_signature, seifert_matrix

from references import gg_loop

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

    def test_linking_runs_without_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("the linking route started worker processes")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        est = estimate_phi_n(bump_flow(), linking_quasimorphism(1, 3), 3, samples=1500, seed=9, threads=3)
        assert est.samples + est.rejected == 1500

    def test_pool_is_bounded_by_chunks_and_cpus(self, monkeypatch):
        sizes = []

        class InlinePool:  # records its size and runs the chunks here, in order
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        flow = make_flow([(make_hs_profile(Fraction(7, 24)), 4)])
        run = partial(estimate_phi_n, flow, signature_quasimorphism(), 3, samples=600, seed=6)  # two chunks
        alone = json.dumps(run(threads=1).to_dict())
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        for cpus, workers in ((64, 2), (1, 1), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert json.dumps(run(threads=100_000).to_dict()) == alone
            assert sizes.pop() == workers
        assert sizes == [] and multiprocessing.active_children() == []

    def test_signature_deterministic_across_threads(self):
        # 600 samples make two chunks, so threads=2 spreads them over two workers
        flow = make_flow([(make_hs_profile(Fraction(7, 24)), 4)])
        sig = signature_quasimorphism()
        a, b = (
            estimate_phi_tilde_n(flow, sig, 3, samples=600, k_schedule=(1, 2), seed=6, threads=t)
            for t in (1, 2)
        )
        assert a == b

    def test_signature_bytes_across_threads(self):
        # three chunks of a two-term flow with a negative time, so chunks
        # evaluate repeated conjugacy classes in different worker processes;
        # the bytes do not depend on what the class cache already holds
        flow = TestLoopWinding.MULTI
        sig = signature_quasimorphism()

        def estimate(threads):
            return json.dumps(  # floats print as their shortest exact repr
                estimate_phi_tilde_n(flow, sig, 3, samples=1100, k_schedule=(1, 2), seed=4, threads=threads).to_dict()
            )

        class_signature.cache_clear()
        cold = estimate(1)
        assert class_signature.cache_info().currsize > 0
        warm = estimate(1)
        class_signature.cache_clear()
        assert cold == warm == estimate(2)

    def test_unresolvable_rotation_rejected_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before the rotation check")

        monkeypatch.setattr(est_mod, "sample_configs", no_sampling)
        fast = bump_flow(t=10**9)
        for phi in (LK, signature_quasimorphism()):
            with pytest.raises(InputError, match="rotation bound"):
                estimate_phi_n(fast, phi, 2, samples=10)
            with pytest.raises(InputError):
                estimate_phi_tilde_n(bump_flow(), phi, 2, samples=10, k_schedule=(1, 10**9))
            with pytest.raises(InputError):
                estimate_phi_tilde_n(bump_flow(), phi, 2, samples=10, k_schedule=(1, 10**400))

    def test_oversized_loop_rejected_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before the loop size check")

        monkeypatch.setattr(est_mod, "sample_configs", no_sampling)
        sig = signature_quasimorphism()
        with pytest.raises(InputError, match="positions"):
            estimate_phi_n(bump_flow(t=10**6), sig, 3, samples=10)
        with pytest.raises(InputError, match="positions"):
            estimate_phi_tilde_n(bump_flow(t=1000), sig, 3, samples=10, k_schedule=(1, 2000))
        monkeypatch.undo()
        # the closed form samples no loop, so the same flow is fine for lk
        est = estimate_phi_n(bump_flow(t=10**6), LK, 2, samples=10)
        assert est.samples + est.rejected == 10

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
        monkeypatch.setattr(loops_mod, "COINCIDENCE_THRESHOLD", 2.5)  # every pair too close
        for phi in (LK, signature_quasimorphism()):
            with pytest.raises(DegeneracyError) as info:
                estimate_phi_n(bump_flow(), phi, 2, samples=40, seed=0)
            # the flow is the one input left: every estimate loops around default_base
            assert str(info.value) == "rejected 40 of 40 configurations; flow ill-posed"

    def test_strand_checks_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before the strand check")

        monkeypatch.setattr(est_mod, "sample_configs", no_sampling)
        for i, j in ((1, 4), (2, 2), (0, 1), (-1, 2)):
            with pytest.raises(InputError):
                estimate_phi_n(bump_flow(), linking_quasimorphism(i, j), 3, samples=10)


class TestLoopWinding:
    MULTI = make_flow(
        [
            (polynomial_bump(Fraction(1, 8), Fraction(1, 2), 60), Fraction(-3, 2)),
            (polynomial_bump(Fraction(3, 8), Fraction(7, 8), 48), 2),
        ]
    )

    @pytest.mark.parametrize(
        "flow", [bump_flow(), bump_flow().scaled(8), MULTI], ids=["bump", "bump-k8", "multi-negative"]
    )
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_extraction(self, flow, n):
        # every ordered pair of 700 configurations: 16 800 cases over the six runs
        base = default_base(n)
        configs = est_mod.sample_configs(chunk_rng(31, est_mod.TASK_PHI, n), 700, n)
        words = [extract_braid(gg_loop(base, c, flow)) for c in configs]
        for i, j in itertools.permutations(range(n), 2):
            turns = loop_winding(flow, base, configs, i, j)
            assert not np.isnan(turns).any()  # no case passes as a double rejection
            assert np.rint(turns).astype(int).tolist() == [linking_number(w, i + 1, j + 1) for w in words]
            assert np.max(np.abs(turns - np.rint(turns))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_full_rotation_links_every_pair_once(self, n):
        flow = make_flow([(rotation_profile(1), 2 * math.pi)], validate=False)
        configs = est_mod.sample_configs(chunk_rng(2, est_mod.TASK_PHI, 0), 300, n)
        for i, j in itertools.permutations(range(n), 2):
            assert np.all(np.rint(loop_winding(flow, default_base(n), configs, i, j)) == 1)
            est = estimate_phi_n(flow, linking_quasimorphism(i + 1, j + 1), n, samples=300, seed=3)
            assert (est.value, est.std_error, est.rejected) == (math.pi**n, 0.0, 0)

    def test_identity_flow_is_zero(self):
        configs = est_mod.sample_configs(chunk_rng(4, est_mod.TASK_PHI, 0), 300, 3)
        for i, j in itertools.permutations(range(3), 2):
            assert np.all(np.rint(loop_winding(make_flow([]), default_base(3), configs, i, j)) == 0)

    def test_coincident_pair_rejected(self, monkeypatch):
        # swapping the base points sends the pair's lines out through each other;
        # both routes reject it by the same closest-approach rule
        base = default_base(2)
        swapped = base[::-1].copy()
        assert math.isnan(loop_winding(bump_flow(), base, swapped[None], 0, 1)[0])
        monkeypatch.setattr(
            est_mod, "sample_configs", lambda rng, count, n: np.array([swapped, 0.5 * base])
        )
        for phi in (LK, signature_quasimorphism()):
            est = estimate_phi_n(bump_flow(), phi, 2, samples=2)
            assert (est.samples, est.rejected) == (1, 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_config_loops_drops_exactly_the_undefined_windings(self, n):
        flow, base = bump_flow(), default_base(n)
        configs = est_mod.sample_configs(chunk_rng(5, est_mod.TASK_PHI, n), 200, n)
        configs[::7, :2] = base[1::-1]  # swap two base points: their legs pass through each other
        undefined = np.zeros(len(configs), dtype=bool)
        for i, j in itertools.combinations(range(n), 2):
            undefined |= np.isnan(loop_winding(flow, base, configs, i, j))
        assert undefined[::7].all() and undefined.sum() < len(configs) // 2
        # the batched loops are bitwise the one-configuration ones, and no
        # extraction stayed degenerate here
        kept = configs[~undefined]
        loops = list(est_mod.config_loops(flow, configs))
        assert len(loops) == len(kept)
        for (times, loop, word), config in zip(loops, kept):
            alone = gg_loop(base, config, flow)
            assert np.array_equal(times, alone.times)
            assert np.array_equal(loop, alone.positions)
            assert word == extract_braid(alone)

    def test_config_loops_batches_keep_the_bytes(self, monkeypatch):
        flow = bump_flow(t=16)
        configs = est_mod.sample_configs(chunk_rng(8, est_mod.TASK_PHI, 0), 40, 3)
        whole = list(est_mod.config_loops(flow, configs))
        monkeypatch.setattr(loops_mod, "LOOP_BATCH_POSITIONS", 1)  # one loop per batch
        for (_, a, word_a), (_, b, word_b) in zip(whole, est_mod.config_loops(flow, configs), strict=True):
            assert np.array_equal(a, b) and word_a == word_b

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize(
        "flow", [bump_flow(t=1), bump_flow(t=4), bump_flow(t=16), bump_flow(t=-8), MULTI],
        ids=["t1", "t4", "t16", "t-8", "multi-negative"],
    )
    def test_signature_of_cyclic_word(self, flow, n):
        # 200 configurations per case, 2000 over the ten cases; the cached
        # class signature against the uncached kernel of the unreduced word
        configs = est_mod.sample_configs(chunk_rng(12, est_mod.TASK_PHI, n), 200, n)
        words = [word for _times, _loop, word in est_mod.config_loops(flow, configs)]
        assert len(words) > 150
        assert any(cyclic_reduce(w) != w for w in words)
        for word in words:
            assert braid_signature(word) == matrix_signature(seifert_matrix(word).symmetrized())

    @pytest.mark.parametrize("gap", [4e-10, 4e-9])
    def test_orbit_approach_rejected_below_threshold(self, gap):
        # radii gap apart, angles set so the pair passes at distance gap mid-orbit
        flow = bump_flow(t=4096)
        ri, rj = 0.7, 0.7 - gap
        wi, wj = flow.angular_rate_float(np.array([ri * ri, rj * rj]))
        ti, tj = 1.0, 1.0 + (wi - wj) / 2
        config = np.array([[ri * math.cos(ti), ri * math.sin(ti)], [rj * math.cos(tj), rj * math.sin(tj)]])
        assert math.hypot(*(config[0] - config[1])) > 1e-6
        turns = loop_winding(flow, default_base(2), config[None], 0, 1)[0]
        assert math.isnan(turns) == (gap < COINCIDENCE_THRESHOLD)

    def test_strand_validation(self):
        configs = np.zeros((1, 2, 2))
        for i, j in ((0, 0), (0, 2), (-1, 0)):
            with pytest.raises(InputError):
                loop_winding(bump_flow(), default_base(2), configs, i, j)


class TestGoldenValues:
    # QmEstimate values computed by braid extraction, which the closed form
    # reproduces bit for bit; integer sums scaled by pi^n, so portable
    def test_lk12_two_strands(self):
        est = estimate_phi_n(bump_flow(), LK, 2, samples=3000, seed=17)
        assert (est.value, est.std_error, est.samples, est.rejected) == (
            -0.5165092969903431, 0.09322881177271877, 3000, 0
        )

    def test_lk13_three_strands_homogenized(self):
        est = estimate_phi_tilde_n(
            bump_flow(), linking_quasimorphism(1, 3), 3, samples=600, k_schedule=(4, 8), seed=19
        )
        assert (est.value, est.std_error, est.samples, est.rejected) == (
            -1.2337914262369303, 0.4795642613297203, 600, 0
        )


class TestEstimatePhiTilde:
    def test_identity_flow(self):
        est = estimate_phi_tilde_n(make_flow([]), LK, 2, samples=50, k_schedule=(1, 2), seed=0)
        assert est.value == 0.0

    def test_k_schedule_validation(self):
        with pytest.raises(InputError):
            estimate_phi_tilde_n(make_flow([]), LK, 2, samples=10, k_schedule=())
        with pytest.raises(InputError):
            estimate_phi_tilde_n(make_flow([]), LK, 2, samples=10, k_schedule=(2, 2))

    def test_only_the_last_two_entries_are_estimated(self, monkeypatch):
        flow = bump_flow(scale=60)
        calls = []
        estimate = est_mod.estimate_phi_n

        def spy(scaled, *args, **kwargs):
            calls.append(scaled.terms[0][1])
            return estimate(scaled, *args, **kwargs)

        monkeypatch.setattr(est_mod, "estimate_phi_n", spy)
        est = estimate_phi_tilde_n(flow, LK, 2, samples=200, k_schedule=(1, 2, 4), seed=3)
        assert calls == [2, 4]
        assert est.k_schedule == (1, 2, 4)

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


class TestSignatureOracle:
    # exact_phi_tilde against Monte Carlo: the signature at n = 3, where
    # k = (1, 2) has settled, and linking numbers at n = 2 and 3; on the rigid
    # rotation lk is +pi/2 where -Calabi is -pi/2, so a sign slip fails
    hs = [make_hs_profile(Fraction(1, 4) + Fraction(k, 60)) for k in (0, 2, 4)]
    calabi = calabi_profiles()
    SIG = signature_quasimorphism()

    @pytest.mark.parametrize(
        "flow, phi, n",
        [
            (make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20), 1)]), SIG, 3),
            (make_flow([(hs[0], 4)]), SIG, 3),
            (make_flow([(polynomial_bump(Fraction(1, 8), Fraction(1, 2), 60), Fraction(-1, 2))]), SIG, 3),
            (make_flow([(hs[0], Fraction(3, 2)), (hs[2], Fraction(-5, 2)), (hs[1], 1)]), SIG, 3),
            (make_flow([(calabi[0], 1)]), LK, 2),
            (make_flow([(calabi[2], 1)]), linking_quasimorphism(1, 3), 3),
            (make_flow([(rotation_profile(1), 1)], validate=False), LK, 2),
        ],
        ids=["bump", "hs", "negative-time", "three-terms", "lk12-n2", "lk13-n3", "rotation-lk12"],
    )
    def test_monte_carlo_agrees(self, flow, phi, n):
        exact = exact_phi_tilde(flow, phi, n)
        est = estimate_phi_tilde_n(flow, phi, n, samples=2000, k_schedule=(1, 2), seed=11)
        assert abs(est.value - exact) <= 3 * est.std_error


class TestQmEstimate:
    def test_validation(self):
        with pytest.raises(InputError):
            QmEstimate(1.0, -0.1, 10, 0, 0)
        with pytest.raises(InputError):
            QmEstimate(1.0, 0.1, 0, 0, 0)

    def test_to_dict(self):
        est = QmEstimate(1.5, 0.1, 10, 1, 7, (1, 2))
        assert est.to_dict()["k_schedule"] == [1, 2]
