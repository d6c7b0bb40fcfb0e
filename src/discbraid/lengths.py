"""L^p lengths of sampled isotopies of the disc.

The length of an isotopy is the time integral of the spatial L^p norm of
its velocity field.  Because the maps are area-preserving, the spatial
integral may be taken over initial conditions, so the estimator tracks a
fixed cloud of uniformly sampled points, differentiates their motion in
time by centred differences, and applies the trapezoid rule in t on a
fixed grid of ``time_steps`` points.  The calling thread moves the cloud
to each distinct time once, in grid order: where one time's forward image
and the next time's backward image fall at the same float, one isotopy call
serves both.  The spatial norm at each time, (pi * mean(speed^p))^(1/p),
runs on one worker thread while the caller moves the cloud to the next
time, and the norms are summed in grid order, so the result does not
depend on thread timing.  The norm is taken with the largest speed
factored out, so a finite length never overflows on the way; a length or
error bar that is not finite is refused with InputError.  Richardson
refinement halves only the difference step, until a halving moves the
value by less than 0.1% or MAX_REFINEMENTS halvings are spent; a run that
never settles returns its last value without saying so.  The trapezoid
grid never changes, so its error is not measured.  A radial flow's angular rate
depends only on |x|^2, so ``as_isotopy`` computes it once per cloud, not
once per time evaluation.

These lengths are upper bounds for the right-invariant metric (which is an
infimum over all isotopies); every consumer in this package treats them as
such.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import InputError
from .estimator import TASK_LP_SPACE, chunk_rng, sample_configs
from .flows import FlowSpec, check_lp_exponent
from .loops import TrajectoryBundle

__all__ = ["LengthEstimate", "holder_constant", "lp_length_sampled", "lp_length_of_bundle", "as_isotopy"]

RICHARDSON_RTOL = 1e-3
MAX_REFINEMENTS = 8
MAX_TIME_STEPS = 2**20  # the time grid and its weights stay in memory
MAX_SPACE_SAMPLES = 2**22  # the cloud and its images stay in memory: 630 MB peak RSS at the cap


@dataclass(frozen=True)
class LengthEstimate:
    value: float
    std_error: float
    time_steps: int
    space_samples: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def holder_constant(p: float) -> float:
    """The constant pi^{1/p - 1} with L1-length <= pi^{1-1/p} * Lp-length.

    Instance of the Hoelder inequality on the disc of area pi: the L^1 norm
    of the velocity field is at most area^{1-1/p} times its L^p norm.
    """
    check_lp_exponent(p)
    return math.pi ** (1.0 / p - 1.0)


def as_isotopy(obj) -> Callable[[float, np.ndarray], np.ndarray]:
    """Adapt a FlowSpec (or pass through a callable) to t, points -> points.

    A radial flow turns each point by t times an angular rate that depends
    only on |x|^2, so the rate is computed once per point cloud: the closure
    keeps a private copy of the last points, the indices of those the flow
    moves (rate != 0) and their coordinates and rates, and reuses them while
    the points compare equal (by value, so a caller that mutates its array
    in place gets fresh rates).  Each call copies the points and rotates
    only the moving ones.  The result is bitwise the same as recomputing on
    every call: a point at rate 0 turns by cos 0 = 1 and sin 0 = 0.
    """
    if isinstance(obj, FlowSpec):
        memo = None  # (points, moving indices, their x, y and rates)

        def apply(t: float, pts: np.ndarray) -> np.ndarray:
            nonlocal memo
            pts = np.asarray(pts, dtype=float)
            if memo is None or not np.array_equal(pts, memo[0]):
                r2 = np.clip(np.sum(pts**2, axis=1), 0.0, 1.0)
                rate = obj.angular_rate_float(r2)
                moving = np.nonzero(rate)[0]
                memo = (pts.copy(), moving, pts[moving, 0], pts[moving, 1], rate[moving])
            _, moving, x, y, rate = memo
            dtheta = t * rate
            c, s = np.cos(dtheta), np.sin(dtheta)
            out = pts.copy()
            out[moving, 0] = c * x - s * y
            out[moving, 1] = s * x + c * y
            return out

        return apply
    if callable(obj):
        return obj
    raise InputError("isotopy must be a FlowSpec or a callable(t, points)")


def lp_length_sampled(
    isotopy,
    p: float,
    time_steps: int = 33,
    space_samples: int = 65536,
    seed: int = 0,
) -> LengthEstimate:
    """Monte Carlo / trapezoid estimate of the L^p length of an isotopy.

    ``isotopy`` maps (t, initial points) to moved points and must accept t
    slightly outside [0, 1] (centered differences).  The spatial cloud is
    drawn once from the uniform measure and reused across the whole time
    grid; the reported standard error conservatively treats the per-time
    errors as fully correlated.  InputError for a non-finite value or error.

    Each distinct time of a pass is asked of the isotopy once, on the
    calling thread and in grid order; on the default grid the first pass
    makes 34 calls for 33 times.  The images are differenced in float64
    into a buffer of this call, and one worker thread turns each
    difference into its norm while the caller moves the cloud on.  The
    norms are summed in grid order, so the value is the same bits as one
    loop on one thread.  An exception from the isotopy propagates
    unchanged once the worker has stopped.
    """
    check_lp_exponent(p)
    if not 2 <= time_steps <= MAX_TIME_STEPS:
        raise InputError(f"need 2 to {MAX_TIME_STEPS} time steps, got {time_steps}")
    if not 1 <= space_samples <= MAX_SPACE_SAMPLES:
        raise InputError(f"need 1 to {MAX_SPACE_SAMPLES} space samples, got {space_samples}")
    apply = as_isotopy(isotopy)
    cloud = sample_configs(chunk_rng(seed, TASK_LP_SPACE, 0), space_samples, 1)[:, 0]

    times = np.linspace(0.0, 1.0, time_steps)
    dt = 0.5 * (times[1] - times[0])
    weights = np.full(time_steps, times[1] - times[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    # the worker's buffers; images are never written to, as one may be the cloud
    diff = np.empty_like(cloud)
    speed = np.empty(space_samples)

    def norm_of(step: float) -> tuple[float, float]:
        with np.errstate(all="ignore"):  # the error state is per thread
            np.hypot(diff[:, 0], diff[:, 1], out=speed)
            np.divide(speed, 2.0 * step, out=speed)
            return _lp_norm(speed, p)

    def evaluate(pool, step: float) -> tuple[float, float]:
        fwd_times, back_times = times + step, times - step
        futures = []
        kept = None  # the image at fwd_times[j - 1], kept when it equals back_times[j]
        for j in range(time_steps):
            # the last fwd and back stay bound until these calls return:
            # freed earlier, they let malloc trim the heap top and fault it
            # back in on every call
            fwd = apply(fwd_times[j], cloud)
            back = apply(back_times[j], cloud) if kept is None else kept
            if futures:
                futures[-1].result()  # the worker is done with the last difference
            np.subtract(fwd, back, out=diff)
            reused = j + 1 < time_steps and back_times[j + 1] == fwd_times[j]
            kept = fwd if reused else None
            futures.append(pool.submit(norm_of, step))
        value = 0.0
        error = 0.0
        for w, future in zip(weights, futures):  # in grid order, whatever the timing
            norm, rel_error = future.result()
            value += w * norm
            error += w * norm * rel_error
        return value, error

    from concurrent.futures import ThreadPoolExecutor

    # leaving the block joins the worker, also when the isotopy raises
    with ThreadPoolExecutor(max_workers=1) as pool, np.errstate(all="ignore"):
        value, error = evaluate(pool, dt)
        for _ in range(MAX_REFINEMENTS):
            dt *= 0.5
            previous = value
            value, error = evaluate(pool, dt)
            if abs(value - previous) <= RICHARDSON_RTOL * max(abs(value), 1e-300):
                break
    if not (math.isfinite(value) and math.isfinite(error)):
        raise InputError("L^p length overflows float arithmetic")
    return LengthEstimate(value, error, time_steps, space_samples, seed)


def _lp_norm(speed: np.ndarray, p: float) -> tuple[float, float]:
    """(pi * mean(speed^p))^(1/p) and its relative Monte Carlo error, with
    the largest speed factored out so no finite norm overflows on the way.
    Overwrites ``speed`` with (speed / max)^p."""
    top = float(np.max(speed))
    if top == 0.0:
        return 0.0, 0.0
    speed /= top
    speed **= p
    mean = float(np.mean(speed))
    sigma_mean = float(np.std(speed, ddof=1)) / math.sqrt(speed.size) if speed.size > 1 else 0.0
    return top * (math.pi * mean) ** (1.0 / p), sigma_mean / (p * mean)


def lp_length_of_bundle(bundle: TrajectoryBundle, p: float) -> float:
    """Diagnostic L^p length of tracked strands with the empirical measure.

    Strand speeds come from finite differences of the samples; the empirical
    average over strands is scaled by the disc area so the number is
    comparable with the field-based length when the strands sample the disc.
    InputError when the length overflows float arithmetic.
    """
    check_lp_exponent(p)
    dts = np.diff(bundle.times)
    with np.errstate(all="ignore"):  # an overflow leaves inf or NaN, refused below
        speeds = np.hypot(*np.diff(bundle.positions, axis=1).T) / dts[:, None]  # (T-1, n)
        value = sum((dt * _lp_norm(speed, p)[0] for dt, speed in zip(dts, speeds)), 0.0)
    if not math.isfinite(value):
        raise InputError("L^p length overflows float arithmetic")
    return value
