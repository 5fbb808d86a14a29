"""Reference implementations that tests compare the package against.

``excitation_fidelity_mc`` samples the model that
:func:`snspin.optics.excitation_fidelity` averages in closed form.
"""

import math

import numpy as np


def excitation_fidelity_mc(delta_omega_m: float, tau: float, n: int,
                           trials: int = 10_000, seed: int = 0):
    """Monte Carlo estimate of :func:`excitation_fidelity`.

    Draws ``n`` exponential dwell times per trial, accumulates the random
    memory phase and returns ``(fidelity, stderr)`` with
    F = 1/2 (1 + |mean of exp(i delta_omega_m T)|).
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a meaningful stderr")
    if n < 0:
        raise ValueError("excitation count must be non-negative")
    rng = np.random.default_rng(seed)
    total = np.zeros(trials)
    block = 256
    remaining = int(n)
    while remaining > 0:
        m = min(block, remaining)
        total += rng.exponential(tau, size=(trials, m)).sum(axis=1)
        remaining -= m
    z = np.exp(1j * delta_omega_m * total)
    mean = z.mean()
    fidelity = 0.5 * (1.0 + abs(mean))
    stderr = 0.5 * math.sqrt((z.real.var() + z.imag.var()) / trials)
    return fidelity, stderr
