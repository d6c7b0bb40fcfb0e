"""Configuration-space loops and braid extraction from disc trajectories.

The loop construction for a flow g and an n-point configuration x follows
the out-isotopy-back pattern: a straight leg from the base configuration z
to x on [0, 1/3], the flow orbit of x reparameterized to [1/3, 2/3], then
a straight leg from g(x) back to z on [2/3, 1], each kept as its two ends.
The bundle closes up, so the braid read off from it is pure.  ``gg_loops``
builds the loops of many configurations in batches of at most
LOOP_BATCH_POSITIONS positions, with one ``flow_path`` call each; one
configuration is a batch of one.

Braids are extracted by projecting all strands onto a direction and
emitting one Artin generator per adjacent transposition of the projected
order, with the sign determined by the planar orientation of the swap
(counterclockwise passes are positive).  Events are detected between
consecutive samples assuming linear motion; non-generic projections are
degenerate, with the event time, and are retried along perturbed
directions.  One kernel does this for a whole batch of loops at once:
``loop_braids`` reads a ``gg_loops`` batch, and ``extract_braid``, the one
reader of a single bundle (trajectory files and ``braid-extract``), is its
batch of one.  Only ``extract_braid`` screens for strands within
COINCIDENCE_THRESHOLD at a sample; a batch comes from configurations
``coincidence_free`` has already kept.

``loop_winding`` gives the turns of one pair x_i - x_j around the loop,
the linking number lk[i,j] of its braid, exactly and without samples: the
legs are straight and a radial orbit turns each point at a constant rate.
Where it is undefined, for some pair, the loop has no braid.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .braids import BraidWord
from .errors import DegenerateConfigurationError, InputError
from .flows import FlowSpec, check_rotation, flow_path, turn

__all__ = [
    "TrajectoryBundle",
    "closest_pair",
    "coincidence_free",
    "gg_loops",
    "loop_samples",
    "loop_winding",
    "extract_braid",
    "loop_braids",
    "winding_length",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

COINCIDENCE_THRESHOLD = 1e-9
LOOP_CLOSURE_TOLERANCE = 1e-12  # how far a loop's last positions may sit from its first
PERTURB_ATTEMPTS = 8  # directions tried before an extraction counts as degenerate
# Most positions one sampled loop may hold (16 bytes each, so 256 MiB).
MAX_LOOP_POSITIONS = 2**24
LOOP_BATCH_POSITIONS = 2**14  # most positions one gg_loops batch holds: 256 KiB per array


@dataclass(frozen=True)
class TrajectoryBundle:
    """n strands sampled at shared times in [0, 1]; positions is (n, T, 2)."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        positions = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise InputError("sample times must be strictly increasing")
        if positions.ndim != 3 or positions.shape[1] != times.size or positions.shape[2] != 2:
            raise InputError(f"positions shaped {positions.shape} do not match times")

    def is_loop(self) -> bool:
        return bool(np.allclose(self.positions[:, 0], self.positions[:, -1], atol=LOOP_CLOSURE_TOLERANCE))


def closest_pair(points) -> tuple[float, int, int]:
    """(distance, i, j) of the closest pair, i < j, of n points or strands.

    ``points`` is (n, 2), or (n, T, 2) for strands sampled at shared times,
    whose distance is the least over the samples (``np.hypot``); the first
    pair found wins ties.  ``extract_braid`` and the winding length of a
    sampled pair test COINCIDENCE_THRESHOLD against it; ``loop_winding``
    measures its own leg and orbit distances.
    """
    points = np.asarray(points, dtype=float)
    best = (math.inf, -1, -1)
    for i in range(len(points) - 1):  # one row of pairs (i, j > i) at a time
        rel = points[i] - points[i + 1 :]
        d = np.hypot(rel[..., 0], rel[..., 1]).reshape(len(rel), -1).min(axis=1)
        k = int(np.argmin(d))
        if d[k] < best[0]:
            best = (float(d[k]), i, i + 1 + k)
    return best


def loop_samples(flow: FlowSpec, n: int, samples_per_segment: int | None = None) -> int:
    """Subintervals m of the flow orbit in an n-strand ``gg_loops`` loop, by default
    scaled to the flow's angular speed bound so relative windings stay resolved.

    InputError, before any sampling, for a flow turning faster than
    ``flows.MAX_ROTATION`` or a loop of n * (m + 3) > MAX_LOOP_POSITIONS positions.
    """
    bound = check_rotation(flow)
    m = max(32, math.ceil(8.0 * bound)) if samples_per_segment is None else int(samples_per_segment)
    if m < 2:
        raise InputError("need at least 2 orbit subintervals")
    if n * (m + 3) > MAX_LOOP_POSITIONS:
        raise InputError(f"{n} strands of {m} orbit subintervals exceed {MAX_LOOP_POSITIONS} positions")
    return m


def _base_and_configs(base, configs):
    z = np.asarray(base, dtype=float)
    x = np.asarray(configs, dtype=float)
    if z.ndim != 2 or z.shape[1] != 2 or x.ndim != 3 or x.shape[1:] != z.shape:
        raise InputError("base must be (n, 2) and configs (count, n, 2)")
    return z, x


def gg_loops(base, starts, flow: FlowSpec, samples_per_segment: int | None = None):
    """The loops of the (count, n, 2) start configurations x around the
    base z, one batch at a time.

    Each loop is z, the flow orbit from x to g(x) at m + 1 samples s, z
    again, at times 0, 1/3 + s/3, 1, with m as checked and defaulted by
    ``loop_samples``.  A batch is (times, positions), positions being the
    (count, n, m + 3, 2) loops of at most LOOP_BATCH_POSITIONS positions,
    built with one ``flow_path`` call; it is elementwise in its points, so
    each loop is bitwise the one a batch of one gives.  Nothing is screened
    here: ``coincidence_free`` screens the configurations.
    """
    z, x = _base_and_configs(base, starts)
    n = z.shape[0]
    m = loop_samples(flow, n, samples_per_segment)

    s = np.linspace(0.0, 1.0, m + 1)
    times = np.concatenate(([0.0], 1.0 / 3.0 + s / 3.0, [1.0]))
    batch = max(1, LOOP_BATCH_POSITIONS // (n * (m + 3)))
    for first in range(0, len(x), batch):
        part = x[first : first + batch]
        positions = np.empty((len(part), n, m + 3, 2))
        positions[:, :, 0] = positions[:, :, -1] = z
        positions[:, :, 1:-1] = flow_path(flow, part.reshape(-1, 2), s).reshape(len(part), n, m + 1, 2)
        yield times, positions


def _segment_distance(a, b):
    """Distance from 0 to the complex segments [a, b]."""
    d = b - a
    den = np.abs(d) ** 2
    t = np.divide(-(a * d.conj()).real, den, out=np.zeros_like(den), where=den > 0)
    return np.abs(a + np.clip(t, 0.0, 1.0) * d)


def _polar(flow: FlowSpec, points):
    """Rate, radius, angle and complex flow image (``flow_path`` at s = 1) of the (count, k, 2) points."""
    x, y = points[..., 0], points[..., 1]
    r2 = np.sum(points**2, axis=-1)  # as in flow_path
    omega = flow.angular_rate_float(np.clip(r2, 0.0, 1.0))
    g_x, g_y = turn(x, y, omega)
    return omega, np.sqrt(r2), np.arctan2(y, x), g_x + 1j * g_y


def _pair_turns(z, x, polar, i: int, j: int) -> np.ndarray:
    """``loop_winding`` of strands i, j from the ``_polar`` data of x."""
    (omega_i, omega_j), (r_i, r_j), (theta_i, theta_j), (g_i, g_j) = ((v[:, i], v[:, j]) for v in polar)
    rel_z = complex(*(z[i] - z[j]))
    rel_x = (x[:, i, 0] - x[:, j, 0]) + 1j * (x[:, i, 1] - x[:, j, 1])
    rel_g = g_i - g_j

    outer = r_i > r_j  # strand j on equal radii, where both forms agree
    sign = np.where(outer, -1.0, 1.0)
    rho = np.minimum(r_i, r_j) / np.maximum(r_i, r_j)
    psi0 = sign * (theta_i - theta_j)
    psi1 = psi0 + sign * (omega_i - omega_j)
    total = (
        np.angle(rel_x * np.conj(rel_z))
        + np.where(outer, omega_i, omega_j)
        + np.angle(1.0 - rho * np.exp(1j * psi1))
        - np.angle(1.0 - rho * np.exp(1j * psi0))
        + np.angle(rel_z * np.conj(rel_g))
    )
    # the orbit comes closest, at r_out - r_in, where psi passes 2 pi k
    near = np.minimum(_segment_distance(rel_z, rel_x), _segment_distance(rel_g, rel_z))
    passes = np.floor(psi0 / (2.0 * math.pi)) != np.floor(psi1 / (2.0 * math.pi))
    near = np.where(passes, np.minimum(near, np.abs(r_i - r_j)), near)
    return np.where(near < COINCIDENCE_THRESHOLD, np.nan, total / (2.0 * math.pi))


def loop_winding(flow: FlowSpec, base, configs, i: int, j: int) -> np.ndarray:
    """Exact turns of x_i - x_j around the ``gg_loops`` loop of each configuration.

    ``configs`` is (count, n, 2) and i, j are 0-based strands.  Each leg
    turns the pair by the principal angle between its ends.  On the
    orbit x_i - x_j = ±x_out (1 - rho e^{i psi(s)}), with rho = r_in / r_out
    and psi the inner minus the outer point's angle, so it turns by the
    outer point's rate plus the change of the principal Arg(1 - rho e^{i psi}).
    The result is NaN where the pair comes within COINCIDENCE_THRESHOLD and
    the winding is undefined; elsewhere it is an integer up to rounding.
    """
    z, x = _base_and_configs(base, configs)
    n = z.shape[0]
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise InputError(f"winding needs two distinct strands of {n}, got {i} and {j}")
    pair = x[:, [i, j]]
    return _pair_turns(z[[i, j]], pair, _polar(flow, pair), 0, 1)


def coincidence_free(flow: FlowSpec, base, configs) -> np.ndarray:
    """Mask of the (count, n, 2) configurations whose every pair stays
    COINCIDENCE_THRESHOLD apart along its ``gg_loops`` loop: ``loop_winding`` is
    defined for every pair.  Each point's polar data is computed once."""
    z, x = _base_and_configs(base, configs)
    polar = _polar(flow, x)
    keep = np.ones(len(x), dtype=bool)
    for i, j in zip(*np.triu_indices(x.shape[1], 1)):
        keep &= ~np.isnan(_pair_turns(z, x, polar, i, j))
    return keep


def perturb_direction(direction, attempt: int):
    """Deterministic direction sequence: attempt 0 is the input, later
    attempts rotate by multiples of an irrational fraction of the turn."""
    dx, dy = float(direction[0]), float(direction[1])
    norm = math.hypot(dx, dy)
    if norm == 0:
        raise InputError("direction must be a nonzero vector")
    dx, dy = dx / norm, dy / norm
    if attempt == 0:
        return (dx, dy)
    angle = attempt * math.pi * (3.0 - math.sqrt(5.0))  # golden-angle steps
    c, s = math.cos(angle), math.sin(angle)
    return (c * dx - s * dy, s * dx + c * dy)


_FAILURES = (
    "simultaneous crossings",
    "crossing between non-adjacent strands",
    "crossing with coincident strands",
    "crossing resolution did not reproduce the sampled order",
)
PAIR_BUDGET = 2**18  # most (row, slot, slot) entries the crossing kernel holds at once


def _crossings(times, positions, direction):
    """Projected-order crossings of each loop of (count, n, T, 2) finite positions.

    Per loop, (letters, strand order at the first sample), or the
    DegenerateConfigurationError of its first degenerate sample step.
    Between consecutive samples the strands move linearly, so a pair swaps
    its projected order at tau = d0 / (d0 - d1) of the step; the swaps of
    one step are applied in tau order, each an adjacent transposition
    signed by the planar orientation of the pass; a pass whose strands are
    less than COINCIDENCE_THRESHOLD apart across the direction is a
    coincidence, not a crossing.  A loop whose earlier
    steps all succeed enters step k in the sorted order of sample k, so
    every (loop, changed step) row is resolved on its own, all rows at once.
    Slot pairs are screened PAIR_BUDGET (row, slot, slot) entries at a time
    and only the crossing ones are kept.
    """
    dx, dy = direction
    pos = positions.transpose(1, 0, 2, 3)  # strands first: (n, count, T, 2)
    proj = np.ascontiguousarray(pos[..., 0] * dx + pos[..., 1] * dy)
    perp = np.ascontiguousarray(-pos[..., 0] * dy + pos[..., 1] * dx)
    n, count = proj.shape[:2]

    order = np.argsort(proj, axis=0, kind="stable")
    ranked = np.take_along_axis(proj, order, axis=0)
    ties = np.any(ranked[1:] == ranked[:-1], axis=0)  # (count, T)
    loop, col = np.nonzero(np.any(order[:, :, 1:] != order[:, :, :-1], axis=0))
    start, end = order[:, loop, col].T, order[:, loop, col + 1].T  # (rows, n)
    failure = np.zeros(len(loop), dtype=int)  # 1 + index into _FAILURES
    row_letters: list = [None] * len(loop)
    lows = min(n - 1, max(1, PAIR_BUDGET // n))  # lower slots per block
    step = max(1, PAIR_BUDGET // (lows * n))  # rows per block

    for first in range(0, len(loop), step):
        rows = np.arange(first, min(first + step, len(loop)))
        strands, at, k = start[rows], loop[rows, None], col[rows, None]
        s0, s1 = proj[strands, at, k], proj[strands, at, k + 1]
        found = []
        for low in range(0, n - 1, lows):
            d0 = s0[:, low : low + lows, None] - s0[:, None, :]  # (rows, lower slot, upper slot)
            d1 = s1[:, low : low + lows, None] - s1[:, None, :]
            upper = np.arange(n) > np.arange(low, min(n, low + lows))[:, None]
            cross = ((d0 < 0) != (d1 < 0)) & upper
            r, a, b = np.nonzero(cross)
            found.append((r, a + low, b, d0[cross], d1[cross]))
        r, a, b, d0, d1 = (np.concatenate(v) for v in zip(*found))
        tau = d0 / (d0 - d1)
        # by row, then tau; the stable sort keeps ties in slot-pair order
        by = np.lexsort((tau, r))
        r, a, b, tau = r[by], a[by], b[by], tau[by]
        crossings = np.bincount(r, minlength=len(rows))
        nth = np.arange(len(r)) - (np.cumsum(crossings) - crossings)[r]  # rank in its row
        # each row's events by rank, each pair as strands numbered by their
        # slot at the step's start; a dead rank swaps strand 0 with itself
        shape = (len(rows), int(crossings.max()))
        live = np.arange(shape[1]) < crossings[:, None]
        a_rank, b_rank, tau_rank = np.zeros(shape, dtype=int), np.zeros(shape, dtype=int), np.zeros(shape)
        a_rank[r, nth], b_rank[r, nth], tau_rank[r, nth] = a, b, tau
        a, b, tau = a_rank, b_rank, tau_rank
        gaps = np.subtract(tau[:, 1:], tau[:, :-1], out=np.ones(live[:, 1:].shape), where=live[:, 1:])

        here = np.arange(len(rows))
        place = np.tile(np.arange(n), (len(rows), 1))  # strand -> slot
        slot_a, slot_b = np.zeros_like(a), np.zeros_like(b)
        for rank in range(shape[1]):
            pa, pb = place[here, a[:, rank]], place[here, b[:, rank]]
            place[here, a[:, rank]], place[here, b[:, rank]] = pb, pa
            slot_a[:, rank], slot_b[:, rank] = pa, pb
        # a is left of b until they swap, so they are the left and right strands
        p0a, p1a, p0b, p1b = (
            np.take_along_axis(perp[strands, at, k + dk], s, axis=1)
            for dk, s in ((0, a), (1, a), (0, b), (1, b))
        )
        rel_perp = p0a + (p1a - p0a) * tau - p0b - (p1b - p0b) * tau
        fail = live * np.where(slot_b - slot_a != 1, 2, np.where(np.abs(rel_perp) < COINCIDENCE_THRESHOLD, 3, 0))
        settled = np.empty_like(strands)
        np.put_along_axis(settled, place, strands, axis=1)
        failure[rows] = np.select(
            [np.any(gaps < 1e-15, axis=1), np.any(fail, axis=1), np.any(settled != end[rows], axis=1)],
            [1, fail[here, np.argmax(fail != 0, axis=1)], 4],
        )
        letters = np.where(rel_perp < 0, 1, -1) * (slot_a + 1)
        for i, row, c in zip(rows.tolist(), letters.tolist(), crossings.tolist()):
            row_letters[i] = row[:c]

    words: list = [[] for _ in range(count)]
    for i, letters in zip(loop.tolist(), row_letters):
        words[i] += letters
    errors = {}
    for r in np.nonzero(failure)[0].tolist():  # rows run in (loop, step) order
        at_time = float(times[col[r]])
        errors.setdefault(int(loop[r]), DegenerateConfigurationError(_FAILURES[failure[r] - 1], at_time))
    for i in np.nonzero(ties.any(axis=1))[0].tolist():  # a tie anywhere comes first
        at_time = float(times[np.argmax(ties[i])])
        errors[i] = DegenerateConfigurationError("projection tie at a sample time", at_time)
    firsts = order[:, :, 0].T.tolist()
    return [errors.get(i, (words[i], firsts[i])) for i in range(count)]


def _braid_words(times, positions, directions, relabel: bool) -> list:
    """``_crossings`` of each loop along the first of ``directions`` that is
    not degenerate for it, each direction tried only on the loops the ones
    before failed; the word, conjugated to bundle labels if ``relabel``, or
    the last DegenerateConfigurationError."""
    n = positions.shape[1]
    BraidWord(n)  # InputError, before any work, for fewer than 2 strands
    words: list = [None] * len(positions)
    todo = list(range(len(positions)))
    for direction in directions:
        for index, result in zip(todo, _crossings(times, positions[todo], direction)):
            if isinstance(result, DegenerateConfigurationError):
                words[index] = result
                continue
            letters, first = result
            if relabel:
                # strand with bundle index i must start in the slot where the
                # projected order placed it
                u = _permutation_word(first)
                letters = u + letters + [-l for l in reversed(u)]
            words[index] = BraidWord(n, tuple(letters))
        todo = [i for i in todo if isinstance(words[i], DegenerateConfigurationError)]
        if not todo:
            break
    return words


def _perturbed(direction) -> list[tuple[float, float]]:
    """The PERTURB_ATTEMPTS directions tried for ``direction``, normalized."""
    return [perturb_direction(perturb_direction(direction, a), 0) for a in range(PERTURB_ATTEMPTS)]


def loop_braids(times, positions) -> list:
    """``extract_braid`` of each loop of a ``gg_loops`` batch, without its
    closest-pair screen: a BraidWord, or the DegenerateConfigurationError
    of the last of the PERTURB_ATTEMPTS directions."""
    return _braid_words(times, positions, _perturbed((1.0, 0.0)), relabel=True)


def extract_braid(bundle: TrajectoryBundle, direction=(1.0, 0.0)) -> BraidWord:
    """Read the braid word of the bundle along a projection direction.

    Each change of the projected strand order between consecutive samples is
    resolved into adjacent transpositions ordered by their interpolated
    crossing times; a degenerate direction is retried along the next of the
    PERTURB_ATTEMPTS ``perturb_direction`` attempts.  A closed bundle gives
    its loop braid, labelled by bundle index: the word is conjugated by the
    positive permutation word that starts strand i in the slot of
    ``positions[i-1]``, which leaves the closure and every pairwise linking
    number intact.  Strands within COINCIDENCE_THRESHOLD, and a degeneracy
    along every direction (with its event time), raise
    :class:`DegenerateConfigurationError`.
    """
    directions = _perturbed(direction)  # a zero direction is an InputError before any screen
    if not np.isfinite(bundle.positions).all():
        raise InputError("trajectory positions must be finite")
    if closest_pair(bundle.positions)[0] < COINCIDENCE_THRESHOLD:
        raise DegenerateConfigurationError("strands pass within coincidence threshold")
    word = _braid_words(bundle.times, bundle.positions[None], directions, bundle.is_loop())[0]
    if isinstance(word, DegenerateConfigurationError):
        raise word
    return word


def _permutation_word(final) -> list[int]:
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


def winding_length(bundle: TrajectoryBundle, i: int, j: int) -> float:
    """Total variation of the pair direction, in turns (length of l_ij / 2pi)."""
    if i == j:
        raise InputError("winding needs two distinct strands")
    if closest_pair(bundle.positions[[i, j]])[0] < COINCIDENCE_THRESHOLD:
        raise DegenerateConfigurationError("strands coincide along the bundle")
    rel = bundle.positions[i] - bundle.positions[j]
    steps = np.diff(np.arctan2(rel[:, 1], rel[:, 0]))
    steps = (steps + math.pi) % (2.0 * math.pi) - math.pi
    return float(np.sum(np.abs(steps)) / (2.0 * math.pi))


def write_trajectory_csv(bundle: TrajectoryBundle) -> str:
    buf = io.StringIO()
    n, T = bundle.positions.shape[0], bundle.times.size
    buf.write(f"{n},{T}\n")
    buf.write("time,strand,x,y\n")
    for k in range(T):
        for i in range(n):
            x, y = bundle.positions[i, k]
            buf.write(f"{float(bundle.times[k])!r},{i},{float(x)!r},{float(y)!r}\n")
    return buf.getvalue()


def read_trajectory_csv(text: str) -> TrajectoryBundle:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise InputError("trajectory file too short")
    try:
        n, T = (int(tok) for tok in lines[0].split(","))
        if n < 1 or T < 1:
            raise ValueError("counts must be positive")
    except ValueError as exc:
        raise InputError(f"bad trajectory header {lines[0]!r}") from exc
    body = lines[1:]
    if body and body[0].lower().startswith("time"):
        body = body[1:]
    if len(body) != n * T:
        raise InputError(f"expected {n * T} rows, found {len(body)}")
    times = np.zeros(T)
    positions = np.zeros((n, T, 2))
    seen = np.zeros((n, T), dtype=bool)
    for row in body:
        try:
            t_str, i_str, x_str, y_str = row.split(",")
            t, i, x, y = float(t_str), int(i_str), float(x_str), float(y_str)
        except ValueError as exc:
            raise InputError(f"bad trajectory row {row!r}") from exc
        if not 0 <= i < n:
            raise InputError(f"strand {i} out of range for {n} strands")
        if not all(math.isfinite(v) for v in (t, x, y)):
            raise InputError(f"non-finite value in trajectory row {row!r}")
        # rows arrive in time order per strand; the column is the row count
        k = int(np.count_nonzero(seen[i]))
        if k == T:
            raise InputError(f"strand {i} has more than {T} rows")
        if seen[:, k].any() and times[k] != t:
            raise InputError(f"strands disagree on sample {k}: time {float(times[k])} vs {t}")
        times[k] = t
        positions[i, k] = (x, y)
        seen[i, k] = True
    if not seen.all():
        raise InputError("trajectory rows do not cover every strand/time")
    return TrajectoryBundle(times, positions)
