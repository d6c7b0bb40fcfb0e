"""Independent references the tests compare the package against.

Neither is part of the package: the integrator checks the closed-form flow
(criterion 3, tests/test_flows.py), and the defect sampler checks the
quasi-morphisms' homomorphism error (tests/test_quasimorphisms.py).
"""

import random
from fractions import Fraction

import numpy as np

from discbraid.braids import concat


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
