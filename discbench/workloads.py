"""The benchmark's workloads: fixed task lists over the public discbraid API.

A workload is built once (flows and quasi-morphism specs) and then runs
rounds.  Every round runs the same task list; round r draws its Monte Carlo
inputs from ``round_seed(seed, r)``, so the same ``--seed`` gives the same
inputs and rounds do not repeat each other's configurations.  Program
functions are looked up as module attributes at call time, so the spans
that ``tracer.Tracer`` wraps around them see every call.

All estimates run with ``threads=1``: the host has two shared cores, and the
thread count never changes a number.

The correctness gate compares each output with a reference that does not
share the timed path (criteria 4, 7 and 8 of the acceptance suite), and
checks that each estimate is pi^n times a mean of integers.
Statistical checks are repeated in every round of every run, thousands of
times per evaluation, so a check fails only beyond ``Z_GATE`` combined
errors, where a passing program fails with probability about 6e-7 per
check; the criteria's own 3-error level is counted and reported as
``beyond_3_sigma``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import discbraid.estimator
import discbraid.flows
import discbraid.lengths
from discbraid.flows import calabi, make_flow, signature_moment
from discbraid.profiles import polynomial_bump
from discbraid.quasimorphisms import linking_quasimorphism, signature_quasimorphism

Z_GATE = 5.0
CRITERION_Z = 3.0


def round_seed(seed: int, r: int) -> int:
    """Estimator seed of round r; distinct for every (seed, r) with r < 4096."""
    return seed * 4096 + r


class Outcome:
    """One round's task outputs, plus the checks run on them."""

    def __init__(self):
        self.outputs: dict[str, dict] = {}
        self.failed: set[str] = set()
        self.z_scores: list[float] = []

    def gate(self, tasks, z: float):
        """Record a statistical check over ``tasks`` with score ``z``."""
        self.z_scores.append(z)
        if not z <= Z_GATE:
            self.failed.update(tasks)

    def require(self, tasks, ok: bool):
        if not ok:
            self.failed.update(tasks)


def ratio_z_scores(ratios, sigmas):
    """|r_i - mean| over the combined error, as in criteria 7 and 8."""
    m = len(ratios)
    mean = sum(ratios) / m
    out = []
    for i, (r, s) in enumerate(zip(ratios, sigmas)):
        comb = math.sqrt(
            (1 - 1 / m) ** 2 * s**2 + sum(sigmas[j] ** 2 for j in range(m) if j != i) / m**2
        )
        out.append(abs(r - mean) / comb if comb > 0 else (0.0 if r == mean else math.inf))
    return mean, out


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _sound_estimate(est: dict, strands: int) -> bool:
    """Finite, and pi^n times a mean of integer invariants.

    Signatures and linking numbers are integers, so value * k * accepted /
    pi^n recovers an integer sum for the largest k of the schedule.
    """
    if not _finite(est["value"], est["std_error"]):
        return False
    total = est["value"] * est["k_schedule"][-1] * est["samples"] / math.pi**strands
    return abs(total - round(total)) <= 1e-6 * max(1.0, abs(total))


class Signature3:
    """Homogenized n=3 closure-signature estimates on the criterion-8 profile.

    Loads seifert (matrix_signature about 60 % of the time, growing with the
    Seifert size, mean about 5 at t=1 and 11 at t=16), loops (gg_loop 20 %,
    loop_braid 15 %) and flows.angular_rate_float on 3-point arrays (per-call
    overhead).  Bypasses braids.linking_number, the n=2 linking fork and the
    lengths module.
    """

    name = "signature3"
    times = (1, 4, 16)
    # samples per t per round: a round takes about 1 s, so a run's medians
    # are over some 35 rounds and follow the host's speed less than a few
    # long rounds would
    samples = 64
    k_schedule = (1, 2)
    strands = 3

    def __init__(self):
        self.profile = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20)
        self.flows = {t: make_flow([(self.profile, t)]) for t in self.times}
        self.phi = signature_quasimorphism()
        self.expected_sign = 1 if signature_moment(self.profile, 3) > 0 else -1
        self.configs_per_round = len(self.times) * self.samples * len(self.k_schedule)
        self.points_per_round = self.configs_per_round * self.strands

    def warmup(self):
        discbraid.estimator.estimate_phi_n(self.flows[1], self.phi, 3, samples=8, seed=0)

    def tasks(self, seed: int):
        for t in self.times:
            yield f"t{t}", lambda t=t: discbraid.estimator.estimate_phi_tilde_n(
                self.flows[t], self.phi, 3, samples=self.samples,
                k_schedule=self.k_schedule, seed=seed, threads=1,
            ).to_dict()

    def check_round(self, out: Outcome):
        labels = [f"t{t}" for t in self.times]
        ests = [out.outputs[label] for label in labels]
        for label, est in zip(labels, ests):
            out.require([label], _sound_estimate(est, self.strands))
        ratios = [e["value"] / t for e, t in zip(ests, self.times)]
        sigmas = [e["std_error"] / t for e, t in zip(ests, self.times)]
        _, zs = ratio_z_scores(ratios, sigmas)
        for z in zs:
            out.gate(labels, z)

    def check_run(self, rounds) -> bool:
        """Sign of signature_moment(h, 3), on the mean of every estimate/t."""
        ratios = [o.outputs[f"t{t}"]["value"] / t for o in rounds for t in self.times]
        return sum(ratios) * self.expected_sign > 0


class Linking:
    """Homogenized lk[1,2] at n=2 and lk[1,3] at n=3 on the criterion-7 profiles.

    The n=2 part takes the vectorized two-strand fork: no extraction and no
    Seifert work, flow_path about 21 % and numpy crossing detection the rest.
    The n=3 part takes the generic path: gg_loop 49 %, loop_braid 45 %.
    Never calls seifert, so a Seifert change must leave this workload flat;
    a closed-form winding acts here and not in signature3.
    """

    name = "linking"
    k_schedule = (4, 8)
    # a round takes under 1 s, as in signature3
    samples_n2 = 1024
    samples_n3 = 64

    def __init__(self):
        profiles = [
            polynomial_bump(Fraction(1, 8), Fraction(1, 2), 60),
            polynomial_bump(Fraction(1, 4), Fraction(3, 4), 96),
            polynomial_bump(Fraction(3, 8), Fraction(7, 8), 48),
        ]
        self.flows = [make_flow([(h, 1)]) for h in profiles]
        self.calabi = [calabi(f) for f in self.flows]
        self.lk12 = linking_quasimorphism(1, 2)
        self.lk13 = linking_quasimorphism(1, 3)
        per_k = len(self.k_schedule) * len(self.flows)
        self.configs_per_round = per_k * (self.samples_n2 + self.samples_n3)
        self.points_per_round = per_k * (2 * self.samples_n2 + 3 * self.samples_n3)

    def warmup(self):
        discbraid.estimator.estimate_phi_n(self.flows[0], self.lk12, 2, samples=64, seed=0)
        discbraid.estimator.estimate_phi_n(self.flows[0], self.lk13, 3, samples=8, seed=0)

    def tasks(self, seed: int):
        est = discbraid.estimator
        for i, flow in enumerate(self.flows):
            yield f"lk12_n2_f{i}", lambda flow=flow: est.estimate_phi_tilde_n(
                flow, self.lk12, 2, samples=self.samples_n2,
                k_schedule=self.k_schedule, seed=seed, threads=1,
            ).to_dict()
            yield f"lk13_n3_f{i}", lambda flow=flow: est.estimate_phi_tilde_n(
                flow, self.lk13, 3, samples=self.samples_n3,
                k_schedule=self.k_schedule, seed=seed, threads=1,
            ).to_dict()

    def check_round(self, out: Outcome):
        n2 = [f"lk12_n2_f{i}" for i in range(len(self.flows))]
        n3 = [f"lk13_n3_f{i}" for i in range(len(self.flows))]
        for strands, labels in ((2, n2), (3, n3)):
            for label in labels:
                out.require([label], _sound_estimate(out.outputs[label], strands))
        # criterion 7: estimate / Calabi is one constant across the profiles
        ratios = [out.outputs[l]["value"] / c for l, c in zip(n2, self.calabi)]
        sigmas = [out.outputs[l]["std_error"] / abs(c) for l, c in zip(n2, self.calabi)]
        constant, zs = ratio_z_scores(ratios, sigmas)
        for z in zs:
            out.gate(n2, z)
        # Fubini over the idle point: lk[1,3] at n=3 over pi * Calabi is the
        # same constant
        sigma_c = math.sqrt(sum(s * s for s in sigmas)) / len(sigmas)
        for label, c in zip(n3, self.calabi):
            est = out.outputs[label]
            r3 = est["value"] / (math.pi * c)
            s3 = est["std_error"] / (math.pi * abs(c))
            out.gate([label] + n2, abs(r3 - constant) / math.hypot(s3, sigma_c))

    def check_run(self, rounds) -> bool:
        return True


class CountingIsotopy:
    """Callable isotopy that counts its applications; same code path as the flow."""

    def __init__(self, flow):
        self.apply = discbraid.lengths.as_isotopy(flow)
        self.calls = 0

    def __call__(self, t, pts):
        self.calls += 1
        return self.apply(t, pts)


class Lengths:
    """Sampled, closed-form and exact-even L^p lengths of criterion-8 flows.

    Loads flows.angular_rate_float on 65536-point arrays (about 1.6k calls, a
    third of the time: array throughput, where signature3 pays per-call
    overhead), lengths.lp_length_sampled with its Richardson refinement, and
    the closed-form length code.  Bypasses seifert, loops, braids and the
    estimator.
    """

    name = "lengths"
    times = (1, 16)
    powers = (1, 2, 3)
    space_samples = 65536

    def __init__(self):
        profile = polynomial_bump(Fraction(1, 4), Fraction(3, 4), 20)
        self.flows = {t: make_flow([(profile, t)]) for t in self.times}
        self.isotopy_evals = 0
        self.configs_per_round = len(self.times) * len(self.powers) * self.space_samples

    @property
    def points_per_round(self):
        return self.isotopy_evals * self.space_samples

    def warmup(self):
        discbraid.lengths.lp_length_sampled(self.flows[1], 2, space_samples=1024, seed=0)

    def tasks(self, seed: int):
        self.isotopy_evals = 0  # this round's applications, read by points_per_round
        for t in self.times:
            flow = self.flows[t]
            for p in self.powers:
                yield f"radial_t{t}_p{p}", lambda flow=flow, p=p: {
                    "value": discbraid.flows.lp_length_radial(flow, p)
                }
                yield f"sampled_t{t}_p{p}", lambda flow=flow, p=p: self._sampled(flow, p, seed)
            yield f"exact_t{t}_p2", lambda flow=flow: {
                "value": discbraid.flows.lp_length_exact_even(flow, 2)
            }

    def _sampled(self, flow, p, seed):
        isotopy = CountingIsotopy(flow)
        est = discbraid.lengths.lp_length_sampled(
            isotopy, p, space_samples=self.space_samples, seed=seed
        )
        self.isotopy_evals += isotopy.calls
        return dict(est.to_dict(), isotopy_evals=isotopy.calls)

    def check_round(self, out: Outcome):
        for t in self.times:
            for p in self.powers:
                radial = out.outputs[f"radial_t{t}_p{p}"]["value"]
                label = f"sampled_t{t}_p{p}"
                est = out.outputs[label]
                ok = _finite(radial, est["value"], est["std_error"]) and est["std_error"] > 0
                out.require([label], ok)
                if ok:
                    # criterion 4's test, in sigmas beyond 1e-3 relative of the closed form
                    excess = abs(est["value"] - radial) - 1e-3 * radial
                    out.gate([label], max(excess, 0.0) / est["std_error"])
            exact = out.outputs[f"exact_t{t}_p2"]["value"]
            radial = out.outputs[f"radial_t{t}_p2"]["value"]
            out.require([f"exact_t{t}_p2"], abs(exact - radial) <= 1e-9 * abs(radial))

    def check_run(self, rounds) -> bool:
        return True


WORKLOADS = {w.name: w for w in (Signature3, Linking, Lengths)}
