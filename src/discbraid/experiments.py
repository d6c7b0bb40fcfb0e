"""Desk-scale verifications of the structural theorems.

Each check returns a machine-readable Report: a pass flag, the worst margin
observed (how much slack the asserted inequality had), and every
intermediate quantity needed to audit the run.  The checks verify
structure: boundedness of ratios, linearity, sign conditions, and sandwich
inequalities with empirically fitted constants.  The Calabi and Lipschitz
checks report the exact oracle next to those constants: each member's exact
value (``exact_phi_tilde``) and the z-score of its estimate.  Where exact
formulas exist (moments, signature responses, even-p speed moments) the
comparisons run in rational arithmetic, and the profile sign conditions are
certified exactly by Bernstein coefficients; Monte Carlo quantities carry
3-sigma bands.  The word-length bound takes a true defect, given or
declared, never a sampled one.

Lower bounds on the group norm are never computed directly (the norm is an
infimum over isotopies).  The bi-Lipschitz check bounds it below through
the exact homogenized signatures of radial flows
(``flows.signature_response``), which are Lipschitz in the norm; that is
how the paper proves the embedding.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .braids import BraidWord, make_word, power, representative_length
from .errors import InputError
from .estimator import (
    TASK_EXPERIMENT,
    chunk_rng,
    config_loops,
    estimate_phi_tilde_n,
    sample_configs,
)
from .flows import (
    FlowSpec,
    calabi,
    lp_length_radial,
    lp_speed_moment_exact,
    make_flow,
    signature_response,
)
from .loops import TrajectoryBundle, winding_length
from .poly import bernstein
from .profiles import RadialProfile, make_hs_profile, polynomial_bump
from .quasimorphisms import (
    QuasimorphismSpec,
    linking_quasimorphism,
    signature_quasimorphism,
)

__all__ = [
    "Report",
    "battery",
    "calabi_profiles",
    "check_crossing_bound",
    "check_word_length_bound",
    "check_lipschitz",
    "check_bilipschitz_disc",
    "check_hs_family",
    "check_calabi_proportionality",
    "exact_phi_tilde",
    "linear_fit",
]


@dataclass(frozen=True)
class Report:
    check: str
    passed: bool
    margin: float
    details: dict = field(default_factory=dict)
    seed: Optional[int] = None

    def to_dict(self) -> dict:  # a failed hypothesis leaves margin NaN, null in JSON
        return dict(asdict(self), margin=self.margin if math.isfinite(self.margin) else None)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def check_crossing_bound(
    flow: FlowSpec,
    n: int,
    trials: int = 100,
    seed: int = 0,
) -> Report:
    """Crossing-count bound: twice the sum of (pair winding + 4) dominates
    the reduced letter count of the extracted braid, for every sampled
    configuration."""
    if trials < 1:
        raise InputError("need at least one trial")
    configs = np.concatenate(
        [sample_configs(chunk_rng(seed, TASK_EXPERIMENT, trial), 1, n) for trial in range(trials)]
    )
    margins = []
    for times, loop, word in config_loops(flow, configs):
        bundle = TrajectoryBundle(times, loop)
        windings = sum(winding_length(bundle, i, j) + 4.0 for i, j in itertools.combinations(range(n), 2))
        margins.append(2.0 * windings - representative_length(word))
    worst = min(margins, default=math.nan)
    return Report(
        "crossing_bound",
        worst >= 0.0,
        worst,
        {
            "trials": trials,
            "skipped": trials - len(margins),
            "mean_margin": float(np.mean(margins)) if margins else None,
        },
        seed,
    )


def check_word_length_bound(
    phi: QuasimorphismSpec,
    generator_values: Sequence[Fraction],
    words: Sequence[BraidWord],
    defect: Optional[Fraction] = None,
    seed: int = 0,
) -> Report:
    """|phi| <= (defect + max generator value) * reduced length over a corpus.

    The defect is the supplied value, or else phi's declared bound.
    InputError when there is neither: a defect sampled from the corpus would
    only bound the true defect from below, and the inequality needs the
    true one.
    """
    if defect is None:
        defect = phi.declared_defect_bound
    if defect is None:
        raise InputError(f"{phi.name} declares no defect bound: pass one (a corpus sample only bounds it below)")
    defect = Fraction(defect)
    gen_max = max((abs(Fraction(v)) for v in generator_values), default=Fraction(0))
    factor = defect + gen_max
    worst = None
    for word in words:
        value = abs(phi(word))
        bound = factor * representative_length(word)
        margin = bound - value
        if worst is None or margin < worst:
            worst = margin
    passed = worst is not None and worst >= 0
    return Report(
        "word_length_bound",
        passed,
        float(worst) if worst is not None else math.nan,
        {
            "defect": float(defect),
            "generator_max": float(gen_max),
            "words": len(words),
        },
        seed,
    )


def check_lipschitz(
    flow_family: Sequence[FlowSpec],
    phi: QuasimorphismSpec,
    n: int,
    p: float,
    samples: int = 10_000,
    seed: int = 0,
    k_schedule: Sequence[int] = (1, 2),
    threads: int = 1,
) -> Report:
    """Lipschitz structure along a time-scaled family.

    Computes (L^p length upper bound, homogenized estimate) per member,
    fits the affine bound through the first two members and extrapolates it
    to the rest within 3 sigma, and reports the empirical ratio and the
    R^2 of the linear fit of the estimates against the lengths.
    """
    if len(flow_family) < 3:
        raise InputError("need at least three family members")
    lengths = [lp_length_radial(flow, p) for flow in flow_family]
    if lengths[0] == lengths[1] or 0 in lengths:
        raise InputError("the first two members need distinct lengths, and every member a nonzero length")
    estimates = [
        estimate_phi_tilde_n(
            flow, phi, n, samples=samples, k_schedule=k_schedule, seed=seed, threads=threads
        )
        for flow in flow_family
    ]
    values = [abs(e.value) for e in estimates]
    sigmas = [e.std_error for e in estimates]

    # affine fit through the first two members, tested on the rest
    l0, l1 = lengths[0], lengths[1]
    v0, v1 = values[0], values[1]
    slope = (v1 - v0) / (l1 - l0)
    intercept = v0 - slope * l0
    fit_margins = []
    for l, v, s in zip(lengths[2:], values[2:], sigmas[2:]):
        predicted = slope * l + intercept
        fit_margins.append(3.0 * (s + sigmas[0] + sigmas[1]) - abs(v - predicted))

    ratios = [v / l for v, l in zip(values, lengths)]
    mean_ratio, ratio_margins = _ratio_margins(ratios, [s / l for s, l in zip(sigmas, lengths)])

    # linear fit of signed estimates against lengths (lengths scale with t)
    _, _, r_squared = linear_fit(lengths, [e.value for e in estimates])

    margin = min(fit_margins + ratio_margins)
    passed = margin >= 0.0 and r_squared >= 0.99
    return Report(
        "lipschitz",
        passed,
        margin,
        {
            "lengths": lengths,
            "estimates": [e.to_dict() for e in estimates],
            "ratios": ratios,
            "mean_ratio": mean_ratio,
            "r_squared": r_squared,
            "fit": {"slope": slope, "intercept": intercept},
            **_oracle(flow_family, phi, n, estimates),
        },
        seed,
    )


def exact_phi_tilde(flow: FlowSpec, phi: QuasimorphismSpec, n: int) -> float:
    """Exact homogenized value of phi on the n-point braids of a radial flow.

    The signature (``phi.strands`` None) is pi^(n-1) ``signature_response(flow, n)``;
    the linking number of any pair is -pi^(n-1) ``signature_response(flow, 2)`` / 2.
    On a compactly supported profile the latter is -pi^(n-2) times the Calabi
    value, but unlike -Calabi it is also right for a rigid rotation.
    """
    if phi.strands is None:
        return math.pi ** (n - 1) * float(signature_response(flow, n))
    return -(math.pi ** (n - 1)) * float(signature_response(flow, 2)) / 2


def _oracle(flows: Sequence[FlowSpec], phi: QuasimorphismSpec, n: int, estimates) -> dict:
    """Per member: ``exact``, the exact value, and ``z``, the signed
    estimate's deviation from it in standard errors (None with a zero
    standard error)."""
    exact = [exact_phi_tilde(f, phi, n) for f in flows]
    z = [
        None if e.std_error == 0 else (e.value - x) / e.std_error
        for x, e in zip(exact, estimates)
    ]
    return {"exact": exact, "z": z}


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line ys ~ slope * xs + intercept: (slope, intercept, R^2).

    R^2 is 1 when the ys do not vary (nothing is left to explain).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    ss_res = float(np.sum((ys - np.polyval((slope, intercept), xs)) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return float(slope), float(intercept), 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def _ratio_margins(ratios: Sequence[float], sigmas: Sequence[float]):
    """(mean ratio, per-member margins): each ratio's slack inside 3 combined
    standard errors of its deviation from the family mean."""
    m = len(ratios)
    mean_ratio = sum(ratios) / m
    margins = []
    for i, (r, s) in enumerate(zip(ratios, sigmas)):
        comb = math.sqrt(
            (1 - 1 / m) ** 2 * s**2 + sum(sigmas[j] ** 2 for j in range(m) if j != i) / m**2
        )
        margins.append(3.0 * comb - abs(r - mean_ratio))
    return mean_ratio, margins


def check_bilipschitz_disc(
    profiles: Sequence[RadialProfile],
    vectors: Sequence[Sequence],
    p: int = 2,
) -> Report:
    """The bi-Lipschitz embedding v -> g_v = prod_j (time-one flow of h_j)^(v_j).

    Radial flows commute, and a homogeneous quasi-morphism is linear on
    commuting elements, so the homogenized n-point signature of g_v is
    pi^(n-1) sum_j v_j R_nj with R_nj = ``signature_response`` of h_j.
    Hypothesis: the m x m matrix R over the rows n = 3, 5, ..., 2m+1 is
    nonsingular.  Lower side, for every v: max_i |(R v)_i| >= c1 |v|_inf
    with c1 = 1/||R^-1||_inf.  Upper side: the length of g_v's isotopy is
    at most max_j length_j * |v|_1 (an exact even-p comparison of speed
    moments).  Both sides run in rational arithmetic; neither computes the
    metric infimum itself.
    """
    if not profiles or not vectors:
        raise InputError("need profiles and vectors")
    flows = [make_flow([(h, 1)]) for h in profiles]
    # Odd rows only: P_n' is symmetric about y = 1/2 for even n, so an even
    # row vanishes on every profile odd about 1/2, such as the hs family.
    rows = [2 * i + 3 for i in range(len(flows))]
    response = [[signature_response(f, n) for f in flows] for n in rows]
    details = {"rows": rows, "response": [[float(x) for x in row] for row in response]}
    inverse = _exact_inverse(response)
    if inverse is None:
        return Report("bilipschitz_disc", False, math.nan, {**details, "hypothesis_failure": "singular"})
    c1 = 1 / max(sum(abs(x) for x in row) for row in inverse)
    max_speed_moment = max(lp_speed_moment_exact(f, p) for f in flows)
    c2 = math.pi ** (1.0 / p) * float(max_speed_moment) ** (1.0 / p)

    worst = math.inf
    for vec in vectors:
        v = [Fraction(x) for x in vec]
        if len(v) != len(flows):
            raise InputError("vector length does not match profile count")
        lower = max(abs(sum(r * x for r, x in zip(row, v))) for row in response)
        lower_margin = lower - c1 * max(abs(x) for x in v)
        combined = make_flow([(h, x) for h, x in zip(profiles, v)])
        upper_margin = max_speed_moment * sum(abs(x) for x in v) ** p - lp_speed_moment_exact(combined, p)
        worst = min(worst, float(lower_margin), float(upper_margin))
    return Report(
        "bilipschitz_disc",
        worst >= 0.0,
        worst,
        {**details, "c1": float(c1), "c2": c2, "vectors": len(vectors), "exact": True},
    )


def _exact_inverse(rows: list[list[Fraction]]) -> Optional[list[list[Fraction]]]:
    """Inverse of a square rational matrix by Gauss-Jordan; None when singular."""
    n = len(rows)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k] != 0), None)
        if pivot is None:
            return None
        work[k], work[pivot] = work[pivot], work[k]
        work[k] = [x / work[k][k] for x in work[k]]
        for r in range(n):
            if r != k and work[r][k] != 0:
                f = work[r][k]
                work[r] = [x - f * y for x, y in zip(work[r], work[k])]
    return [row[n:] for row in work]


def _exact_lobe_sign(profile: RadialProfile, lo: Fraction, hi: Fraction, positive: bool) -> bool:
    """Exact sign of h on the open interval (lo, hi), piece by piece.

    On each piece's part of the interval the Bernstein coefficients of the
    signed piece must be >= 0 and not all 0 (``poly.bernstein``), which
    proves the sign inside the part for a piece of any degree; h may vanish
    at the part's ends.
    """
    sign = 1 if positive else -1
    for a, b, piece in _pieces_meeting(profile, lo, hi):
        coeffs = [sign * c for c in bernstein(piece, max(a, lo), min(b, hi))]
        if min(coeffs) < 0 or not any(coeffs):
            return False
    return True


def _pieces_meeting(profile: RadialProfile, lo: Fraction, hi: Fraction):
    """(a, b, piece) for every piece [a, b] of the profile that meets (lo, hi)."""
    bps = profile.breakpoints
    return [
        (bps[k], bps[k + 1], piece)
        for k, piece in enumerate(profile.pieces)
        if max(bps[k], lo) < min(bps[k + 1], hi)
    ]


def check_hs_family(
    s_values: Sequence[Fraction],
    p: int = 2,
) -> Report:
    """All structural conditions of the zero-mean bump family, exactly.

    Supports, lobe signs, the shared core on [3/8, 5/8], the monotone
    dependence on the parameter, the vanishing mean and the negative first
    moment are all checked in rational arithmetic; the lower moment bound
    M1 and the upper length bound M2 over the parameter grid are reported.
    """
    s_list = [Fraction(s) for s in s_values]
    if not s_list:
        raise InputError("need at least one parameter value")
    half = Fraction(1, 2)
    core_lo, core_hi = Fraction(3, 8), Fraction(5, 8)
    failures = []
    first_moments = []
    speed_moments = []
    core_piece = None
    for s in s_list:
        h = make_hs_profile(s)
        lo, hi = half - s, half + s
        if h.support != (lo, hi):
            failures.append(f"support mismatch at s={s}")
        if h.moment(0) != 0:
            failures.append(f"mean nonzero at s={s}")
        fm = h.moment(1)
        if fm >= 0:
            failures.append(f"first moment not negative at s={s}")
        first_moments.append(fm)
        if not _exact_lobe_sign(h, lo, half, positive=True):
            failures.append(f"left lobe not positive at s={s}")
        if not _exact_lobe_sign(h, half, hi, positive=False):
            failures.append(f"right lobe not negative at s={s}")
        piece = tuple(pc for _, _, pc in _pieces_meeting(h, core_lo, core_hi))
        if core_piece is None:
            core_piece = piece
        elif piece != core_piece:
            failures.append(f"core differs at s={s}")
        speed_moments.append(lp_speed_moment_exact(make_flow([(h, 1)]), p))

    # monotone dependence: with a shared core the inequalities hold with
    # equality on (3/8, 1/2) and (1/2, 5/8); verified via the core equality.
    m1 = min(abs(m) for m in first_moments)
    m2_moment = max(speed_moments)
    m2 = math.pi ** (1.0 / p) * float(m2_moment) ** (1.0 / p)
    # continuity along the grid: successive integral values move by O(ds)
    sorted_pairs = sorted(zip(s_list, first_moments))
    cont_ratio = 0.0
    for (s0, f0), (s1, f1) in zip(sorted_pairs, sorted_pairs[1:]):
        if s1 != s0:
            cont_ratio = max(cont_ratio, abs(float(f1 - f0)) / float(s1 - s0))
    passed = not failures and m1 > 0 and math.isfinite(m2)
    return Report(
        "hs_family",
        passed,
        float(m1),
        {
            "failures": failures,
            "count": len(s_list),
            "M1": float(m1),
            "M2": m2,
            "first_moment_range": [float(min(first_moments)), float(max(first_moments))],
            "max_first_moment_slope": cont_ratio,
        },
    )


def check_calabi_proportionality(
    profiles: Sequence[RadialProfile],
    samples: int = 10_000,
    seed: int = 0,
    k_schedule: Sequence[int] = (4, 8),
    threads: int = 1,
) -> Report:
    """Proportionality of the homogenized two-strand estimate to Calabi.

    The time-one flow of every compactly supported profile should give the
    same ratio estimate/Calabi; each ratio must sit within 3 combined
    standard errors of the family mean.  The details report that mean as
    ``constant`` and the worst relative deviation from it as ``spread``.
    InputError for fewer than two profiles or a zero Calabi value.
    """
    flows = [make_flow([(h, 1)]) for h in profiles]
    predicted = [calabi(f) for f in flows]
    if len(flows) < 2:
        raise InputError("need at least two profiles")
    if 0 in predicted:
        raise InputError("every profile needs a nonzero Calabi value")
    estimates = [
        estimate_phi_tilde_n(
            f, linking_quasimorphism(1, 2), 2, samples=samples, seed=seed, k_schedule=k_schedule, threads=threads
        )
        for f in flows
    ]
    ratios = [est.value / pred for est, pred in zip(estimates, predicted)]
    constant, margins = _ratio_margins(ratios, [est.std_error / abs(pred) for est, pred in zip(estimates, predicted)])
    if constant == 0:
        spread = max(abs(r) for r in ratios)
    else:
        spread = max(abs(r - constant) for r in ratios) / abs(constant)
    margin = min(margins)
    return Report(
        "calabi_proportionality",
        margin >= 0.0,
        margin,
        {
            "constant": constant,
            "spread": spread,
            "ratios": ratios,
            "predicted": predicted,
            "estimates": [e.to_dict() for e in estimates],
            **_oracle(flows, linking_quasimorphism(1, 2), 2, estimates),
        },
        seed,
    )


def calabi_profiles() -> list[RadialProfile]:
    """The criterion-7 family: three bumps with distinct supports and heights."""
    return [
        polynomial_bump(Fraction(1, 8), Fraction(1, 2), 60),
        polynomial_bump(Fraction(1, 4), Fraction(3, 4), 96),
        polynomial_bump(Fraction(3, 8), Fraction(7, 8), 48),
    ]


# Most crossing-bound trials a battery takes; one bi-Lipschitz vector per five.
MAX_TRIALS = 2**20


def battery(
    seed: int = 0,
    samples: int = 4000,
    trials: int = 50,
    threads: int = 1,
) -> dict[str, Callable[[], Report]]:
    """The checks ``discbraid verify`` runs: check name -> call, in run order.

    ``samples`` drives the Calabi check, and half of it, at least 2000, the
    Lipschitz check.  ``trials`` is the crossing-bound trial count and sets
    the bi-Lipschitz vector count (one vector per five trials); InputError,
    before any vector is drawn, above MAX_TRIALS trials.  The acceptance
    suite (tests/test_acceptance.py) runs each check at its stated size.
    """
    if trials > MAX_TRIALS:
        raise InputError(f"need at most {MAX_TRIALS} trials, got {trials}")
    bump = partial(polynomial_bump, Fraction(1, 4), Fraction(3, 4))
    lk_words = [power(make_word([1, 1], 2), k) for k in range(11)]
    s_grid = [Fraction(1, 4) + Fraction(1, 12) * Fraction(k, 20) for k in range(21)]  # [1/4, 1/3]
    hs = [make_hs_profile(Fraction(1, 4) + Fraction(k, 60)) for k in range(5)]
    rng = np.random.default_rng(seed)
    vectors = [  # entries on the 1/64 grid in (-4, 0) and (0, 4)
        [Fraction(int(x), 64) for x in rng.integers(1, 256, size=5) * rng.choice((-1, 1), size=5)]
        for _ in range(trials // 5 or 1)
    ]
    family = [make_flow([(bump(20), t)]) for t in range(1, 9)]
    return {
        "crossing-bound": partial(check_crossing_bound, make_flow([(bump(24), 1)]), 3, trials=trials, seed=seed),
        "word-length": partial(check_word_length_bound, linking_quasimorphism(), [Fraction(1)], lk_words, seed=seed),
        "hs-family": partial(check_hs_family, s_grid),
        "bilipschitz": partial(check_bilipschitz_disc, hs, vectors, p=2),
        "calabi": partial(
            check_calabi_proportionality, calabi_profiles(), samples=samples, seed=seed, threads=threads
        ),
        "lipschitz": partial(
            check_lipschitz, family, signature_quasimorphism(), 3, p=2,
            samples=max(samples // 2, 2000), seed=seed, threads=threads,
        ),
    }
