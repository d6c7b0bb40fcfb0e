"""Configuration-space loops and braid extraction from disc trajectories.

The loop construction for a flow g and an n-point configuration x follows
the out-isotopy-back pattern: a straight leg from the base configuration z
to x on [0, 1/3], the flow orbit of x reparameterized to [1/3, 2/3], then
a straight leg from g(x) back to z on [2/3, 1], each kept as its two ends.
The bundle closes up, so the braid read off from it is pure.  ``gg_loops``
builds the loops of many configurations, in batches of at most
LOOP_BATCH_POSITIONS positions with one ``flow_path`` call each, and yields
one bundle per configuration; ``gg_loop`` is its one-configuration case.

Braids are extracted by projecting all strands onto a direction and
emitting one Artin generator per adjacent transposition of the projected
order, with the sign determined by the planar orientation of the swap
(counterclockwise passes are positive).  Events are detected between
consecutive samples assuming linear motion; non-generic projections raise
a degeneracy error carrying the event time so callers can perturb the
direction and retry.

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
from .flows import FlowSpec, check_rotation, flow_path

__all__ = [
    "TrajectoryBundle",
    "closest_pair",
    "coincidence_free",
    "gg_loop",
    "gg_loops",
    "loop_samples",
    "loop_winding",
    "extract_braid",
    "extract_braid_auto",
    "loop_braid",
    "initial_order",
    "perturb_direction",
    "winding_length",
    "signed_winding",
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

    @property
    def strands(self) -> int:
        return int(self.positions.shape[0])

    def is_loop(self) -> bool:
        return bool(np.allclose(self.positions[:, 0], self.positions[:, -1], atol=LOOP_CLOSURE_TOLERANCE))


def closest_pair(points) -> tuple[float, int, int]:
    """(distance, i, j) of the closest pair, i < j, of n points or strands.

    ``points`` is (n, 2), or (n, T, 2) for strands sampled at shared times,
    whose distance is the least over the samples (``np.hypot``); the first
    pair found wins ties.  ``gg_loop``, ``extract_braid`` and the windings
    of a sampled pair test COINCIDENCE_THRESHOLD against it; ``loop_winding``
    measures its own leg and orbit distances.
    """
    best = (math.inf, -1, -1)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            rel = points[i] - points[j]
            d = np.hypot(rel[..., 0], rel[..., 1])
            d = float(d.min() if d.ndim else d)  # skip the slow scalar reduction
            if d < best[0]:
                best = (d, i, j)
    return best


def loop_samples(flow: FlowSpec, n: int, samples_per_segment: int | None = None) -> int:
    """Subintervals m of the flow orbit in an n-strand ``gg_loop``, by default
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


def gg_loops(base, starts, flow: FlowSpec, samples_per_segment: int | None = None):
    """The loop of each of the (count, n, 2) start configurations x around
    the base z, one TrajectoryBundle at a time.

    Each loop is z, the flow orbit from x to g(x) at m + 1 samples s, z
    again, at times 0, 1/3 + s/3, 1, with m as checked and defaulted by
    ``loop_samples``.  The loops are built in batches of at most
    LOOP_BATCH_POSITIONS positions, with one ``flow_path`` call each; it is
    elementwise in its points, so each loop is bitwise the one a batch of
    one gives, and each bundle is a view of its batch.  Nothing is screened
    here: ``gg_loop`` checks one configuration and ``coincidence_free``
    screens many.
    """
    z = np.asarray(base, dtype=float)
    x = np.asarray(starts, dtype=float)
    if z.ndim != 2 or z.shape[1] != 2 or x.ndim != 3 or x.shape[1:] != z.shape:
        raise InputError("base must be (n, 2) and starts (count, n, 2)")
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
        for loop in positions:
            yield TrajectoryBundle(times, loop)


def gg_loop(
    base,
    start,
    flow: FlowSpec,
    samples_per_segment: int | None = None,
) -> TrajectoryBundle:
    """The ``gg_loops`` loop of one (n, 2) start configuration.

    InputError for a base and start of different shapes, or either with a
    coincident pair; pairs passing through each other along the loop are
    not screened here (``coincidence_free`` does that).
    """
    z = np.asarray(base, dtype=float)
    x = np.asarray(start, dtype=float)
    if z.shape != x.shape or z.ndim != 2 or z.shape[1] != 2:
        raise InputError("base and start must be matching (n, 2) arrays")
    for label, points in (("base", z), ("start", x)):
        d, i, j = closest_pair(points)
        if d < COINCIDENCE_THRESHOLD:
            raise InputError(f"{label} points {i} and {j} coincide")
    return next(gg_loops(z, x[None], flow, samples_per_segment))


def _segment_distance(a, b):
    """Distance from 0 to the complex segments [a, b]."""
    d = b - a
    den = np.abs(d) ** 2
    t = np.divide(-(a * d.conj()).real, den, out=np.zeros_like(den), where=den > 0)
    return np.abs(a + np.clip(t, 0.0, 1.0) * d)


def loop_winding(flow: FlowSpec, base, configs, i: int, j: int) -> np.ndarray:
    """Exact turns of x_i - x_j around the ``gg_loop`` of each configuration.

    ``configs`` is (count, n, 2) and i, j are 0-based strands.  Each leg
    turns the pair by the principal angle between its ends.  On the
    orbit x_i - x_j = ±x_out (1 - rho e^{i psi(s)}), with rho = r_in / r_out
    and psi the inner minus the outer point's angle, so it turns by the
    outer point's rate plus the change of the principal Arg(1 - rho e^{i psi}).
    The result is NaN where the pair comes within COINCIDENCE_THRESHOLD and
    the winding is undefined; elsewhere it is an integer up to rounding.
    """
    z = np.asarray(base, dtype=float)
    x = np.asarray(configs, dtype=float)
    n = z.shape[0]
    if z.shape != (n, 2) or x.ndim != 3 or x.shape[1:] != (n, 2):
        raise InputError("base must be (n, 2) and configs (count, n, 2)")
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise InputError(f"winding needs two distinct strands of {n}, got {i} and {j}")
    pair = x[:, [i, j]]
    r2 = np.sum(pair**2, axis=-1)  # (count, 2), as in flow_path
    omega = flow.angular_rate_float(np.clip(r2, 0.0, 1.0))
    r, theta = np.sqrt(r2), np.arctan2(pair[..., 1], pair[..., 0])
    gx = r * np.exp(1j * (theta + omega))
    rel_z = complex(*(z[i] - z[j]))
    rel_x = (pair[:, 0, 0] - pair[:, 1, 0]) + 1j * (pair[:, 0, 1] - pair[:, 1, 1])
    rel_g = gx[:, 0] - gx[:, 1]

    outer = r[:, 0] > r[:, 1]  # strand j on equal radii, where both forms agree
    sign = np.where(outer, -1.0, 1.0)
    rho = r.min(axis=1) / r.max(axis=1)
    psi0 = sign * (theta[:, 0] - theta[:, 1])
    psi1 = psi0 + sign * (omega[:, 0] - omega[:, 1])
    total = (
        np.angle(rel_x * np.conj(rel_z))
        + np.where(outer, omega[:, 0], omega[:, 1])
        + np.angle(1.0 - rho * np.exp(1j * psi1))
        - np.angle(1.0 - rho * np.exp(1j * psi0))
        + np.angle(rel_z * np.conj(rel_g))
    )
    # the orbit comes closest, at r_out - r_in, where psi passes 2 pi k
    near = np.minimum(_segment_distance(rel_z, rel_x), _segment_distance(rel_g, rel_z))
    passes = np.floor(psi0 / (2.0 * math.pi)) != np.floor(psi1 / (2.0 * math.pi))
    near = np.where(passes, np.minimum(near, np.abs(r[:, 0] - r[:, 1])), near)
    return np.where(near < COINCIDENCE_THRESHOLD, np.nan, total / (2.0 * math.pi))


def coincidence_free(flow: FlowSpec, base, configs) -> np.ndarray:
    """Mask of the (count, n, 2) configurations whose every pair stays
    COINCIDENCE_THRESHOLD apart along its ``gg_loop``: ``loop_winding`` is
    defined for every pair."""
    n = np.shape(configs)[1]
    keep = np.ones(len(configs), dtype=bool)
    for i, j in zip(*np.triu_indices(n, 1)):
        keep &= ~np.isnan(loop_winding(flow, base, configs, i, j))
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


def extract_braid(bundle: TrajectoryBundle, direction=(1.0, 0.0)) -> BraidWord:
    """Read the braid word of the bundle along a projection direction.

    Each change of the projected strand order between consecutive samples is
    resolved into adjacent transpositions ordered by their interpolated
    crossing times.  Projection ties and ambiguous simultaneous crossings
    raise :class:`DegenerateConfigurationError` with the event time.
    """
    dx, dy = perturb_direction(direction, 0)
    pos = bundle.positions
    n = pos.shape[0]
    if closest_pair(pos)[0] < COINCIDENCE_THRESHOLD:
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
            if rel_perp == 0.0:
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


def extract_braid_auto(bundle: TrajectoryBundle, direction=(1.0, 0.0)) -> BraidWord:
    """extract_braid with deterministic direction perturbation on degeneracy."""
    return _extract_perturbed(bundle, direction)[0]


def _extract_perturbed(bundle: TrajectoryBundle, direction):
    """(word, direction) of the first of PERTURB_ATTEMPTS perturbed
    directions whose extraction is not degenerate; the last degeneracy
    otherwise."""
    for attempt in range(PERTURB_ATTEMPTS):
        d = perturb_direction(direction, attempt)
        try:
            return extract_braid(bundle, d), d
        except DegenerateConfigurationError as exc:
            last = exc
    raise last


def initial_order(bundle: TrajectoryBundle, direction=(1.0, 0.0)) -> tuple[int, ...]:
    """Bundle strand indices sorted by projection at the first sample."""
    dx, dy = perturb_direction(direction, 0)
    proj = bundle.positions[:, 0, 0] * dx + bundle.positions[:, 0, 1] * dy
    return tuple(int(i) for i in np.argsort(proj, kind="stable"))


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


def loop_braid(bundle: TrajectoryBundle, direction=(1.0, 0.0)) -> BraidWord:
    """Pure braid of a closed bundle, with strands labelled by bundle index.

    ``extract_braid`` labels strands by their projected order; the loop braid
    is that word conjugated by a fixed positive permutation word so that
    strand i is the strand of ``positions[i-1]``.  Conjugation leaves the
    closure and (for pure words) every pairwise linking number intact.
    """
    word, d = _extract_perturbed(bundle, direction)
    order = initial_order(bundle, d)
    if order == tuple(range(bundle.strands)):
        return word
    # strand with bundle index i must start in the slot where the
    # projected order placed it
    u = BraidWord(bundle.strands, tuple(_permutation_word(order)))
    return BraidWord(bundle.strands, u.letters + word.letters + u.inverse().letters)


def _relative_angle_steps(bundle: TrajectoryBundle, i: int, j: int) -> np.ndarray:
    if i == j:
        raise InputError("winding needs two distinct strands")
    if closest_pair(bundle.positions[[i, j]])[0] < COINCIDENCE_THRESHOLD:
        raise DegenerateConfigurationError("strands coincide along the bundle")
    rel = bundle.positions[i] - bundle.positions[j]
    angles = np.arctan2(rel[:, 1], rel[:, 0])
    steps = np.diff(angles)
    return (steps + math.pi) % (2.0 * math.pi) - math.pi


def winding_length(bundle: TrajectoryBundle, i: int, j: int) -> float:
    """Total variation of the pair direction, in turns (length of l_ij / 2pi)."""
    return float(np.sum(np.abs(_relative_angle_steps(bundle, i, j))) / (2.0 * math.pi))


def signed_winding(bundle: TrajectoryBundle, i: int, j: int) -> float:
    """Net rotation of the pair direction, in turns; integral for loops."""
    return float(np.sum(_relative_angle_steps(bundle, i, j)) / (2.0 * math.pi))


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
