"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible under ``pytest -s`` or in the
captured output) and enforces its stated runtime budget.  Monte Carlo
criteria use the package's deterministic seeding, so these results are
reproducible bit for bit.
"""

import math
import time
from fractions import Fraction

import numpy as np

from discbraid.braids import free_reduce, is_pure, linking_number, make_word
from discbraid.cli import main as cli_main
from discbraid.estimator import default_base
from discbraid.experiments import (
    check_bilipschitz_disc,
    check_calabi_proportionality,
    check_crossing_bound,
    check_hs_family,
    check_lipschitz,
)
from discbraid.flows import (
    flow_to_json,
    lp_length_radial,
    make_flow,
    radial_flow_apply,
)
from discbraid.lengths import lp_length_sampled
from discbraid.loops import extract_braid, gg_loop, signed_winding
from discbraid.profiles import make_hs_profile, polynomial_bump, rotation_profile
from discbraid.quasimorphisms import (
    homogenize,
    linking_quasimorphism,
    signature_quasimorphism,
)
from discbraid.seifert import braid_signature

from references import integrate_flow_numeric


class Stopwatch:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds
        self.start = time.monotonic()

    def done(self, label):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.budget, f"{label} took {elapsed:.1f}s > {self.budget}s"
        return elapsed


def announce(number, text, elapsed):
    print(f"PASS criterion {number}: {text} [{elapsed:.1f}s]")


def test_criterion_01_signature_oracles():
    watch = Stopwatch(5)
    assert braid_signature(make_word([1, 1], 2)) == -1
    assert braid_signature(make_word([1, 1, 1], 2)) == -2
    for k in range(1, 21):
        assert braid_signature(make_word([1] * (2 * k), 2)) == 1 - 2 * k
    assert braid_signature(make_word([], 2)) == 0
    elapsed = watch.done("signature oracles")
    announce(1, "signature oracle suite exact", elapsed)


def test_criterion_02_homogenization():
    watch = Stopwatch(30)
    sig = signature_quasimorphism()
    hom = homogenize(sig, make_word([1, 1], 2), 256)
    assert hom.value == Fraction(-2)

    import random

    rng = random.Random(2024)

    def random_pure(n, max_len):
        while True:
            letters = [
                rng.choice([1, -1]) * rng.randint(1, n - 1)
                for _ in range(rng.randint(0, max_len))
            ]
            w = make_word(letters, n)
            if is_pure(w):
                return w

    checked = 0
    for n in (2, 3):
        for _ in range(50):
            w = random_pure(n, 8)
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            i, j = pairs[rng.randrange(len(pairs))]
            lk = linking_quasimorphism(i, j)
            hom = homogenize(lk, w, 64)
            assert hom.value == lk(w)
            assert hom.k_used == 1 or lk(w) == 0
            checked += 1
    assert checked == 100
    elapsed = watch.done("homogenization")
    announce(2, "homogenization exact (signature -2; lk on 100 pure words)", elapsed)


def test_criterion_03_flow_vs_numeric_integrator():
    watch = Stopwatch(10)
    profiles = [
        polynomial_bump(Fraction(1, 4), Fraction(3, 4), 8),
        polynomial_bump(Fraction(1, 8), Fraction(1, 2), 12),
        make_hs_profile(Fraction(7, 24)),
    ]
    rng = np.random.default_rng(303)
    worst = 0.0
    for profile in profiles:
        for _ in range(10):
            r = math.sqrt(rng.uniform(0.04, 0.9))
            th = rng.uniform(0, 2 * math.pi)
            t = rng.uniform(0.1, 1.0)
            pt = (r * math.cos(th), r * math.sin(th))
            analytic = radial_flow_apply(make_flow([(profile, t)]), pt)
            numeric = integrate_flow_numeric(profile, t, pt, 2e-4)
            err = math.hypot(analytic[0] - numeric[0], analytic[1] - numeric[1])
            worst = max(worst, err)
    assert worst <= 1e-6, f"worst deviation {worst}"

    def jacobian_det(profile, pt):
        d = 1e-5
        cols = []
        for axis in range(2):
            up = list(pt)
            down = list(pt)
            up[axis] += d
            down[axis] -= d
            fu = integrate_flow_numeric(profile, 1.0, up, 1e-3)
            fd = integrate_flow_numeric(profile, 1.0, down, 1e-3)
            cols.append(((fu[0] - fd[0]) / (2 * d), (fu[1] - fd[1]) / (2 * d)))
        return cols[0][0] * cols[1][1] - cols[1][0] * cols[0][1]

    for profile in profiles:
        det = jacobian_det(profile, (0.55, 0.1))
        assert abs(det - 1.0) <= 1e-4, f"det {det}"
    elapsed = watch.done("flow correctness")
    announce(3, f"flow vs symplectic integrator (worst {worst:.2e}; det within 1e-4)", elapsed)


def test_criterion_04_lp_length_cross_check():
    watch = Stopwatch(60)
    alpha = 1.3
    rot = make_flow([(rotation_profile(Fraction(13, 10)), 1)], validate=False)
    for p in (1, 2, 3):
        est = lp_length_sampled(rot, p, space_samples=262144, seed=40 + p)
        want = alpha * (2 * math.pi / (p + 2)) ** (1 / p)
        rel = abs(est.value - want) / want
        assert rel <= 5e-3, f"p={p}: rel {rel}"

    rng = np.random.default_rng(44)
    for trial in range(5):
        a = Fraction(int(rng.integers(1, 4)), 8)
        b = a + Fraction(int(rng.integers(2, 4)), 8)
        h = polynomial_bump(a, b, int(rng.integers(4, 50)))
        flow = make_flow([(h, int(rng.integers(1, 4)))])
        p = float(rng.choice([1.0, 2.0, 3.0]))
        want = lp_length_radial(flow, p)
        est = lp_length_sampled(flow, p, seed=trial)
        assert abs(est.value - want) <= 3 * est.std_error + 1e-3 * want
    elapsed = watch.done("lp cross-check")
    announce(4, "sampled L^p lengths match closed forms", elapsed)


def test_criterion_05_braid_extraction():
    watch = Stopwatch(60)
    # full-turn rotation of two symmetric points
    rot = make_flow([(rotation_profile(1), 2 * math.pi)], validate=False)
    z = np.array([[0.5, 0.0], [-0.5, 0.0]])
    word = free_reduce(extract_braid(gg_loop(z, z, rot, 64)))
    assert word.letters in ((1, 1), (-1, -1))
    assert abs(linking_number(word, 1, 2)) == 1

    rng = np.random.default_rng(55)
    profiles = [
        polynomial_bump(Fraction(1, 8), Fraction(5, 8), 40),
        polynomial_bump(Fraction(1, 4), Fraction(3, 4), 60),
        make_hs_profile(Fraction(1, 4)),
    ]
    for trial in range(200):
        n = int(rng.integers(2, 5))
        profile = profiles[trial % len(profiles)]
        t = float(rng.uniform(0.5, 2.5))
        flow = make_flow([(profile, t)])
        base = default_base(n)
        r = np.sqrt(rng.uniform(0, 1, n))
        th = rng.uniform(0, 2 * np.pi, n)
        config = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        bundle = gg_loop(base, config, flow)
        word = extract_braid(bundle)
        assert is_pure(word)
        for i in range(n):
            for j in range(i + 1, n):
                wind = signed_winding(bundle, i, j)
                assert linking_number(word, i + 1, j + 1) == round(wind)

    # stabilization under grid doubling
    for trial in range(10):
        n = int(rng.integers(2, 5))
        flow = make_flow([(profiles[trial % 3], 2.0)])
        base = default_base(n)
        r = np.sqrt(rng.uniform(0, 1, n))
        th = rng.uniform(0, 2 * np.pi, n)
        config = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        coarse = extract_braid(gg_loop(base, config, flow, 128))
        fine = extract_braid(gg_loop(base, config, flow, 256))
        assert braid_signature(coarse) == braid_signature(fine)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert linking_number(coarse, i, j) == linking_number(fine, i, j)
    elapsed = watch.done("braid extraction")
    announce(5, "extraction invariants on 200 random bundles + stabilization", elapsed)


def test_criterion_06_crossing_bound():
    watch = Stopwatch(60)
    flows = [
        make_flow([(polynomial_bump(Fraction(1, 8), Fraction(5, 8), 50), 1)]),
        make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 40), 2)]),
        make_flow([(make_hs_profile(Fraction(7, 24)), 3)]),
    ]
    worst = math.inf
    for k, flow in enumerate(flows):
        rep = check_crossing_bound(flow, 3, trials=100, seed=60 + k)
        assert rep.passed and rep.margin >= 0
        worst = min(worst, rep.margin)
    elapsed = watch.done("crossing bound")
    announce(6, f"crossing-count bound holds (worst margin {worst:.2f})", elapsed)


def test_criterion_07_calabi_proportionality():
    watch = Stopwatch(300)
    profiles = [
        polynomial_bump(Fraction(1, 8), Fraction(1, 2), 60),
        polynomial_bump(Fraction(1, 4), Fraction(3, 4), 96),
        polynomial_bump(Fraction(3, 8), Fraction(7, 8), 48),
    ]
    rep = check_calabi_proportionality(
        profiles, samples=100_000, seed=70, k_schedule=(4, 8)
    )
    assert rep.passed, rep.details
    elapsed = watch.done("calabi proportionality")
    announce(
        7,
        f"2-strand estimate proportional to Calabi (constant {rep.details['constant']:.4f}, "
        f"spread {rep.details['spread']:.4f})",
        elapsed,
    )


def test_criterion_08_lipschitz_structure():
    watch = Stopwatch(600)
    profile = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20)
    family = [make_flow([(profile, t)]) for t in range(1, 9)]
    rep = check_lipschitz(
        family,
        signature_quasimorphism(),
        3,
        p=2,
        samples=10_000,
        seed=80,
        k_schedule=(1, 2),
    )
    assert rep.passed, rep.details
    assert rep.details["r_squared"] >= 0.99
    elapsed = watch.done("lipschitz structure")
    announce(
        8,
        f"ratio constant within 3 sigma; R^2 = {rep.details['r_squared']:.4f}",
        elapsed,
    )


def test_criterion_09_hs_family():
    watch = Stopwatch(10)
    lo, hi = Fraction(1, 4), Fraction(1, 3)
    grid = [lo + (hi - lo) * Fraction(k, 49) for k in range(50)]
    rep = check_hs_family(grid)
    assert rep.passed, rep.details["failures"]
    assert rep.details["M1"] > 0 and math.isfinite(rep.details["M2"])
    elapsed = watch.done("hs family")
    announce(
        9,
        f"bump family conditions exact on 50 parameters (M1 {rep.details['M1']:.4g}, "
        f"M2 {rep.details['M2']:.4g})",
        elapsed,
    )


def test_criterion_10_signature_matrix():
    watch = Stopwatch(1)
    profiles = [
        polynomial_bump(Fraction(1, 8), Fraction(1, 2), 60),
        polynomial_bump(Fraction(1, 4), Fraction(3, 4), 96),
        polynomial_bump(Fraction(3, 8), Fraction(7, 8), 48),
    ]
    vectors = [[1, -1, 2], [0, Fraction(3, 2), -1]]
    rep = check_bilipschitz_disc(profiles, vectors)
    assert rep.passed
    negative = check_bilipschitz_disc([profiles[0], profiles[0], profiles[2]], vectors)
    assert not negative.passed
    elapsed = watch.done("signature matrix")
    announce(10, "signature response matrix nonsingular; duplicate control singular", elapsed)


def test_criterion_11_bilipschitz_sandwich():
    watch = Stopwatch(10)
    hs = [make_hs_profile(Fraction(1, 4) + Fraction(k, 60)) for k in range(5)]
    rng = np.random.default_rng(110)
    vectors = [
        [Fraction(int(v), 128) for v in rng.integers(1, 512, size=5)]
        for _ in range(20)
    ]
    rep = check_bilipschitz_disc(hs, vectors, p=2)
    assert rep.passed and rep.margin >= 0
    assert rep.details["c1"] > 0 and rep.details["c2"] > 0
    elapsed = watch.done("bilipschitz sandwich")
    announce(
        11,
        f"sandwich exact for 20 vectors (c1 {rep.details['c1']:.4g}, c2 {rep.details['c2']:.4g})",
        elapsed,
    )


def test_criterion_12_cli_reproducibility(tmp_path, capsys):
    watch = Stopwatch(120)
    flow = make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 96), 1)])
    flow_file = tmp_path / "flow.json"
    flow_file.write_text(flow_to_json(flow))

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return [line for line in out.splitlines() if not line.startswith("#")]

    estimate_args = (
        "estimate", "--phi", "lk", "--n", "2", "--flow", str(flow_file),
        "--samples", "2000", "--seed", "12",
    )
    base = run(*estimate_args, "--threads", "1")
    for threads in (2, 3):
        assert run(*estimate_args, "--threads", str(threads)) == base

    verify_args = (
        "verify", "--checks", "crossing-bound,bilipschitz,hs-family",
        "--trials", "25", "--seed", "12",
    )
    v1 = run(*verify_args, "--threads", "1")
    v2 = run(*verify_args, "--threads", "2")
    assert v1 == v2
    elapsed = watch.done("cli reproducibility")
    announce(12, "identical numeric output across seeds/thread counts", elapsed)
