"""Monte Carlo estimates of the flow quasi-morphisms.

The estimated quantity is the integral over n-point configurations of a
braid quasi-morphism evaluated on the loop braid of the flow; the sampling
measure is the uniform product measure on the disc power, so estimates are
the sample mean scaled by pi^n.

A linking number lk[i,j], at any n and for any pair, is the number of
turns of x_i - x_j around the loop, which ``loops.loop_winding`` gives in
closed form for a whole chunk, in the calling process.  The signature goes
through braid extraction: ``config_loops`` screens a chunk with
``loops.coincidence_free``, has ``loops.gg_loops`` build the kept loops and
reads the braids of each batch with one ``loops.loop_braids`` call (no
second, sampled screen: the kept loops have none to find), and
``seifert.braid_signature`` evaluates the signature once per conjugacy
class per process, in a bounded cache (it is a class function:
conjugation leaves the closure unchanged).  It alone uses worker
processes.  Both reject a pair (lk: the linked one) whose
``loop_winding`` is undefined: it passes through the other along the loop.

Every loop runs around ``default_base``.  The homogenized values do not
depend on the base, and the regular n-gon has no coincident pair: its
closest pair is sin(pi/n) apart, about 9.6e-5 at the 32768-strand cap.

Reproducibility contract: all randomness is derived from one user seed via
(seed, task, chunk) keyed generators over fixed-size chunks, and partial
results are merged in chunk order.  The same seed therefore gives bitwise
identical output for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .braids import BraidWord
from .errors import DegeneracyError, InputError
from .flows import FlowSpec, check_rotation
from .loops import (
    MAX_LOOP_POSITIONS,
    coincidence_free,
    gg_loops,
    loop_braids,
    loop_samples,
    loop_winding,
)
from .quasimorphisms import QuasimorphismSpec

__all__ = [
    "QmEstimate",
    "default_base",
    "sample_configs",
    "config_loops",
    "estimate_phi_n",
    "estimate_phi_tilde_n",
]

CHUNK_SAMPLES = 512
MAX_SAMPLES = 2**30  # the chunk list and its partial results stay in memory

# Task numbers key the seed streams; 2 is retired, so the others keep theirs.
TASK_PHI = 1
TASK_LP_SPACE = 3
TASK_EXPERIMENT = 4


def chunk_rng(seed: int, task: int, chunk: int) -> np.random.Generator:
    """Generator keyed by (seed, task, chunk); the package-wide derivation."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(task, chunk)))


@dataclass(frozen=True)
class QmEstimate:
    """A Monte Carlo value with its sampling error and provenance."""

    value: float
    std_error: float
    samples: int
    rejected: int
    seed: int
    k_schedule: tuple[int, ...] = ()

    def __post_init__(self):
        if self.samples <= 0:
            raise InputError("estimate must use at least one accepted sample")
        if not math.isfinite(self.value) or self.std_error < 0:
            raise InputError("estimate value/error out of range")

    def to_dict(self) -> dict:
        return {**asdict(self), "k_schedule": list(self.k_schedule)}


def default_base(n: int) -> np.ndarray:
    """Regular n-gon of radius 1/2, rotated off the axes."""
    angles = 2.0 * np.pi * np.arange(n) / n + 0.5
    return 0.5 * np.stack((np.cos(angles), np.sin(angles)), axis=1)


def sample_configs(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` configurations of n points, uniform on the disc; (count, n, 2)."""
    r = np.sqrt(rng.uniform(0.0, 1.0, size=(count, n)))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(count, n))
    return np.stack((r * np.cos(theta), r * np.sin(theta)), axis=-1)


def config_loops(flow: FlowSpec, configs: np.ndarray):
    """(times, loop, loop braid) of each (count, n, 2) configuration that is
    ``coincidence_free`` around ``default_base`` and whose extraction is not
    degenerate; the loop is its (n, T, 2) view into the ``gg_loops`` batch."""
    base = default_base(configs.shape[1])
    for times, positions in gg_loops(base, configs[coincidence_free(flow, base, configs)], flow):
        for loop, word in zip(positions, loop_braids(times, positions)):
            if isinstance(word, BraidWord):
                yield times, loop, word


def _linking_pair(phi: QuasimorphismSpec, n: int):
    """0-based strands of a linking spec, checked against n; None for others."""
    if phi.strands is None:
        return None
    i, j = phi.strands
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise InputError(f"{phi.name} needs two distinct strands in 1..{n}")
    return i - 1, j - 1


def _check_size(flow: FlowSpec, phi: QuasimorphismSpec, n: int) -> None:
    """InputError for a flow that turns too fast, or whose sampled loop is too big."""
    if phi.strands is None:
        loop_samples(flow, n)
    else:
        check_rotation(flow)


def _phi_chunk(
    flow: FlowSpec,
    phi: QuasimorphismSpec,
    n: int,
    seed: int,
    chunk: int,
    count: int,
) -> tuple[float, float, int, int]:
    """Accumulate (sum, sum of squares, accepted, rejected) for one chunk."""
    rng = chunk_rng(seed, TASK_PHI, chunk)
    configs = sample_configs(rng, count, n)
    pair = _linking_pair(phi, n)
    if pair is None:
        values = [float(phi(word)) for _times, _loop, word in config_loops(flow, configs)]
    else:
        turns = loop_winding(flow, default_base(n), configs, *pair)
        values = np.rint(turns[~np.isnan(turns)]).tolist()
    total = total_sq = 0.0
    for val in values:
        total += val
        total_sq += val * val
    return total, total_sq, len(values), count - len(values)


def estimate_phi_n(
    flow: FlowSpec,
    phi: QuasimorphismSpec,
    n: int,
    samples: int = 10_000,
    seed: int = 0,
    threads: int = 1,
) -> QmEstimate:
    """Estimate the configuration integral of phi over loop braids of the flow.

    Configurations are uniform on the disc power.  Rejected and counted are
    those with a pair (the linked pair, for a linking spec) whose
    ``loop_winding`` is undefined, and those whose extraction stays
    degenerate after direction perturbations.  The value is the
    accepted-sample mean scaled by pi^n; at most ``threads`` worker
    processes, and no more than there are chunks or CPUs, share the chunks
    of a spec with no closed form.
    """
    if not 2 <= n <= MAX_LOOP_POSITIONS // CHUNK_SAMPLES:  # a chunk holds at most a loop's positions
        raise InputError(f"need 2 to {MAX_LOOP_POSITIONS // CHUNK_SAMPLES} marked points, got {n}")
    if not 1 <= samples <= MAX_SAMPLES:
        raise InputError(f"need 1 to {MAX_SAMPLES} samples, got {samples}")
    pair = _linking_pair(phi, n)
    _check_size(flow, phi, n)

    counts = [min(CHUNK_SAMPLES, samples - start) for start in range(0, samples, CHUNK_SAMPLES)]
    chunk = partial(_phi_chunk, flow, phi, n, seed)
    if threads > 1 and pair is None and len(counts) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only here
        from os import cpu_count

        # a forked pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(threads, len(counts), cpu_count() or 1)) as pool:
            results = list(pool.map(chunk, range(len(counts)), counts))
    else:
        results = list(map(chunk, range(len(counts)), counts))

    total = total_sq = 0.0
    accepted = rejected = 0
    for part_sum, part_sq, part_acc, part_rej in results:
        total += part_sum
        total_sq += part_sq
        accepted += part_acc
        rejected += part_rej

    if rejected > samples // 2:
        raise DegeneracyError(
            f"rejected {rejected} of {samples} configurations; flow ill-posed"
        )
    if accepted == 0:
        raise DegeneracyError("no configuration was accepted")

    scale = math.pi**n
    mean = total / accepted
    if accepted > 1:
        var = max(total_sq / accepted - mean * mean, 0.0) * accepted / (accepted - 1)
        std_error = scale * math.sqrt(var / accepted)
    else:
        std_error = 0.0
    return QmEstimate(scale * mean, std_error, accepted, rejected, seed)


def estimate_phi_tilde_n(
    flow: FlowSpec,
    phi: QuasimorphismSpec,
    n: int,
    samples: int = 10_000,
    k_schedule: Sequence[int] = (1, 2, 4),
    seed: int = 0,
    threads: int = 1,
) -> QmEstimate:
    """Homogenized estimate: an entry k evaluates the flow at k-fold time.

    For flows, powers are exact time scalings, so no trajectory error
    compounds.  The reported value is the largest-k estimate divided by k;
    the Cauchy gap between the last two entries is added to the Monte Carlo
    error; only those two entries are estimated.  Sharing the seed across k
    correlates the samples, which keeps that gap an honest measure of the
    homogenization residual.
    """
    ks = tuple(int(k) for k in k_schedule)
    if not ks or any(k <= 0 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise InputError("k_schedule must be increasing positive integers")
    _check_size(flow.scaled(ks[-1]), phi, n)  # the largest k turns fastest; fail before sampling
    read = ks[-2:]  # the value and its error read no other entry
    per_k = [
        estimate_phi_n(flow.scaled(k), phi, n, samples=samples, seed=seed, threads=threads)
        for k in read
    ]
    values = [est.value / k for est, k in zip(per_k, read)]
    cauchy = abs(values[-1] - values[-2]) if len(read) >= 2 else 0.0
    last = per_k[-1]
    return QmEstimate(values[-1], last.std_error / ks[-1] + cauchy, last.samples, last.rejected, seed, ks)
