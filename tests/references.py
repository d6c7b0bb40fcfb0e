"""Independent references the tests compare the package against.

None is part of the package: the integrator checks the closed-form flow
(criterion 3, tests/test_flows.py), the quad length checks the analytic
L^p length's quadrature (tests/test_flows.py), the per-time loop checks the
sampled L^p length's pipeline (tests/test_lengths.py), the defect
sampler checks the quasi-morphisms' homomorphism error
(tests/test_quasimorphisms.py), and the sampled signed winding checks the
linking numbers of extracted braids (criterion 5, tests/test_loops.py).
``gg_loop`` and ``zero_profile`` are conveniences: the loop of one
configuration, and the profile of the identity flow.
"""

import math
import random
from fractions import Fraction

import numpy as np
from scipy import integrate, optimize

from discbraid.braids import concat
from discbraid.estimator import TASK_LP_SPACE, chunk_rng, sample_configs
from discbraid.lengths import MAX_REFINEMENTS, RICHARDSON_RTOL, LengthEstimate, as_isotopy
from discbraid.loops import TrajectoryBundle, gg_loops
from discbraid.profiles import RadialProfile


def zero_profile():
    """h = 0 on [0, 1]; its flow is the identity."""
    return RadialProfile((Fraction(0), Fraction(1)), ((Fraction(0),),), 1)


def gg_loop(base, start, flow, samples_per_segment=None):
    """The ``gg_loops`` loop of one (n, 2) start configuration, as a bundle.
    Nothing is screened: ``coincidence_free`` is the package's screen."""
    times, positions = next(gg_loops(base, np.asarray(start, dtype=float)[None], flow, samples_per_segment))
    return TrajectoryBundle(times, positions[0])


def signed_winding(bundle, i, j):
    """Net rotation of the direction of strand i minus strand j along the
    sampled bundle, in turns, each step taken as its principal angle; an
    integer for a loop sampled finely enough, and then lk[i+1, j+1]."""
    rel = bundle.positions[i] - bundle.positions[j]
    steps = np.diff(np.arctan2(rel[:, 1], rel[:, 0]))
    return float(np.sum((steps + math.pi) % (2.0 * math.pi) - math.pi) / (2.0 * math.pi))


def integrate_flow_numeric(profile, t, point, step):
    """Implicit-midpoint integration of the Hamiltonian field of h(|x|^2).

    The field is v(x, y) = 2 h'(x^2 + y^2) * (-y, x).  The scheme preserves
    the radius (a quadratic invariant) to solver tolerance and the area up
    to O(step^2).
    """
    d = profile.derivative()
    breaks, coeffs = d.float_pieces

    def velocity(x, y):
        r2 = x * x + y * y
        idx = min(max(int(np.searchsorted(breaks, r2, side="right")) - 1, 0), len(coeffs) - 1)
        acc = 0.0
        for c in coeffs[idx][::-1]:
            acc = acc * r2 + c
        w = 2.0 * acc
        return -w * y, w * x

    x, y = float(point[0]), float(point[1])
    remaining = float(t)
    direction = 1.0 if remaining >= 0 else -1.0
    remaining = abs(remaining)
    while remaining > 1e-15:
        dt = direction * min(step, remaining)
        mx, my = x, y
        for _ in range(50):
            vx, vy = velocity(mx, my)
            nx, ny = x + 0.5 * dt * vx, y + 0.5 * dt * vy
            if abs(nx - mx) + abs(ny - my) < 1e-15:
                mx, my = nx, ny
                break
            mx, my = nx, ny
        vx, vy = velocity(mx, my)
        x, y = x + dt * vx, y + dt * vy
        remaining -= abs(dt)
    return (x, y)


def lp_length_quad(spec, p, grid=20_001):
    """L^p length of the isotopy s -> flow at times s t_i by scipy's quad,
    with none of the package's quadrature.  With speed(y) = sqrt(y) |rate(y)|
    from ``angular_rate_float`` and any M > 0 the length is
    M (pi int_0^1 (speed / M)^p dy)^{1/p}; M is the largest speed, refined
    from a grid.  The integral is split at the profiles' breakpoints and the
    rate's sign changes, and graded toward each local maximum of the speed
    down to about 1/(10 p), as the mass gathers there for large p."""

    def speed(y):
        return math.sqrt(y) * abs(float(spec.angular_rate_float(y)))

    ys = np.linspace(0.0, 1.0, grid)
    rate = spec.angular_rate_float(ys)
    s = np.sqrt(ys) * np.abs(rate)
    edges = {0.0, 1.0} | {float(b) for h, _ in spec.terms for b in h.breakpoints}
    for i in np.flatnonzero(rate[:-1] * rate[1:] < 0):
        edges.add(optimize.brentq(lambda y: float(spec.angular_rate_float(y)), ys[i], ys[i + 1], xtol=1e-16))
    padded = np.concatenate(([-1.0], s, [-1.0]))
    peak = 0.0
    for i in np.flatnonzero((s > 0) & (s >= padded[:-2]) & (s >= padded[2:])):
        lo, hi = ys[max(i - 1, 0)], ys[min(i + 1, grid - 1)]
        top = optimize.minimize_scalar(lambda y: -speed(y), bounds=(lo, hi), method="bounded", options={"xatol": 1e-15})
        m = max((ys[i], top.x), key=speed)
        peak = max(peak, speed(m))
        edges |= {m + sign * 10.0**-j for sign in (-1, 1) for j in range(int(math.log10(p)) + 2)} | {m}
    if peak == 0.0:
        return 0.0
    edges = sorted(y for y in edges if 0.0 <= y <= 1.0)
    total = math.fsum(
        integrate.quad(lambda y: (speed(y) / peak) ** p, a, b, epsabs=0.0, epsrel=2e-14 * p, limit=500, full_output=1)[0]
        for a, b in zip(edges, edges[1:])
    )
    return peak * (math.pi * total) ** (1.0 / p)


def lp_length_sampled_loop(isotopy, p, time_steps=33, space_samples=65536, seed=0):
    """The sampled L^p length as one loop over the time grid on one thread.

    Each time asks the isotopy for both of its images, forward then back,
    and takes the norm before it moves on.  Same cloud, difference steps,
    Richardson refinement and summation order as ``lp_length_sampled``, so
    the two agree bit for bit; no input validation.
    """
    apply = as_isotopy(isotopy)
    cloud = sample_configs(chunk_rng(seed, TASK_LP_SPACE, 0), space_samples, 1)[:, 0]
    times = np.linspace(0.0, 1.0, time_steps)
    dt = 0.5 * (times[1] - times[0])

    def norm(speed):
        top = float(np.max(speed))
        if top == 0.0:
            return 0.0, 0.0
        powers = (speed / top) ** p
        mean = float(np.mean(powers))
        sigma_mean = float(np.std(powers, ddof=1)) / math.sqrt(speed.size) if speed.size > 1 else 0.0
        return top * (math.pi * mean) ** (1.0 / p), sigma_mean / (p * mean)

    def evaluate(step):
        value = 0.0
        error = 0.0
        weights = np.full(time_steps, times[1] - times[0])
        weights[0] *= 0.5
        weights[-1] *= 0.5
        for t, w in zip(times, weights):
            fwd = apply(t + step, cloud)
            back = apply(t - step, cloud)
            n, rel_error = norm(np.hypot(*(fwd - back).T) / (2.0 * step))
            value += w * n
            error += w * n * rel_error
        return value, error

    with np.errstate(all="ignore"):
        value, error = evaluate(dt)
        for _ in range(MAX_REFINEMENTS):
            dt *= 0.5
            previous = value
            value, error = evaluate(dt)
            if abs(value - previous) <= RICHARDSON_RTOL * max(abs(value), 1e-300):
                break
    return LengthEstimate(value, error, time_steps, space_samples, seed)


def sample_defect(phi, word_sampler, trials, seed):
    """Largest homomorphism error |phi(ab) - phi(a) - phi(b)| on sampled pairs.

    A lower bound for the true defect.  ``word_sampler`` takes a
    ``random.Random`` and returns a BraidWord; each trial is keyed off
    ``seed`` on its own, so the result does not depend on evaluation order.
    """
    worst = Fraction(0)
    for t in range(trials):
        rng = random.Random((seed << 20) ^ t)
        a = word_sampler(rng)
        b = word_sampler(rng)
        worst = max(worst, abs(phi(concat(a, b)) - phi(a) - phi(b)))
    return worst
