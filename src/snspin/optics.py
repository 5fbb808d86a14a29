"""Optical dipoles, cyclicity, rate-equation pumping and the excitation budget.

Optical decay connects the excited to the ground manifold through dipole
operators that act on the orbital degree of freedom only, so every
optical quantity here reduces to overlaps between the labeled
eigensystems of the two manifolds.  Spin flips during an optical cycle
come purely from the different electro-nuclear mixing of the two
manifolds, which is what the cyclicity quantifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import LIFETIME_S, ManifoldParams
from .spinmodel import LOWER_LABELS, EigenSystem, SX_L, SY_L, manifold_eigensystems


# Total cross-manifold dipole operator P = px + py + pz in the fixed
# 8-dim product basis.  Each term acts on the orbital factor only
# (identity on electron and nuclear spin): pz keeps the circular orbital
# state while px/py swap it, with the usual circular-basis phases.
DIPOLE = SX_L + SY_L + np.eye(8, dtype=complex)


def _strengths(exc: np.ndarray, gnd: np.ndarray) -> np.ndarray:
    """|<exc_i|P|gnd_j>|^2 of lower-branch states stacked as (..., 8, 4)."""
    amp = np.conj(np.swapaxes(exc, -1, -2)) @ DIPOLE @ gnd
    return np.abs(amp) ** 2


def dipole_strengths(ground: EigenSystem, excited: EigenSystem) -> np.ndarray:
    """|<exc_i|P|gnd_j>|^2 over the lower branches, P = :data:`DIPOLE`.

    Rows follow the excited, columns the ground lower-branch states, both
    in label order (0B0M, 0B1M, 1B0M, 1B1M).
    """
    exc = np.column_stack([excited.state(lab) for lab in LOWER_LABELS])
    gnd = np.column_stack([ground.state(lab) for lab in LOWER_LABELS])
    return _strengths(exc, gnd)


def spin_conserving_pairs(ground: EigenSystem, excited: EigenSystem) -> dict:
    """Match each lower-branch ground state to its optical partner.

    The partner is the excited state carrying the dominant dipole
    strength; the assignment is solved as a global maximum-weight
    matching so it stays one-to-one even when the two manifolds order
    their mixed states differently.  Returns ground label -> excited label.
    """
    from scipy.optimize import linear_sum_assignment

    strengths = dipole_strengths(ground, excited)
    exc_idx, gnd_idx = linear_sum_assignment(-strengths)
    return {LOWER_LABELS[g]: LOWER_LABELS[e] for e, g in zip(exc_idx, gnd_idx)}


@dataclass(frozen=True)
class CyclicityResult:
    """Branching matrix and the cyclicity of the f0 line.

    ``branching[i, j]`` is the probability that excited state i (of
    ``excited_labels``) decays into ground state j (of ``ground_labels``);
    rows sum to 1.  ``lambda_f0`` is the cyclicity of the f0 line,
    1/(1 - max_j branching) of the weaker of the two 1B excited states:
    the mean number of optical cycles before the spin leaks elsewhere,
    ``inf`` if it never does and ``nan`` if the state does not emit.
    """

    branching: np.ndarray
    lambda_f0: float
    excited_labels: tuple = LOWER_LABELS
    ground_labels: tuple = LOWER_LABELS


def _cyclicities(strengths: np.ndarray) -> tuple:
    """Branching (..., 4, 4) and lambda_f0 (...) of dipole strengths
    (..., 4, 4) in label order."""
    totals = strengths.sum(axis=-1)
    emits = totals > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        branching = np.where(emits[..., None], strengths / totals[..., None], 0.0)
        leak = 1.0 - branching.max(axis=-1)
        cyc = np.where(emits, np.where(leak <= 0.0, math.inf, 1.0 / leak), math.nan)
    # the smaller of 1B0M and 1B1M, the first one if they do not compare
    f0 = np.where(cyc[..., 3] < cyc[..., 2], cyc[..., 3], cyc[..., 2])
    return branching, f0


def cyclicity(ground: EigenSystem, excited: EigenSystem) -> CyclicityResult:
    """Branching of each lower-branch excited state and lambda_f0."""
    branching, f0 = _cyclicities(dipole_strengths(ground, excited))
    return CyclicityResult(branching=branching, lambda_f0=float(f0))


# Field points per stacked pass of lambda_f0_map; bounds its temporaries.
_BLOCK_POINTS = 256


def lambda_f0_map(ground: ManifoldParams, excited: ManifoldParams,
                  bx: np.ndarray, bz: np.ndarray) -> np.ndarray:
    """lambda_f0 of :func:`cyclicity` at each field (bx[i], 0, bz[i]), T.

    The points go through in stacked blocks of ``_BLOCK_POINTS``, and
    each comes out bitwise as :func:`cyclicity` gives it at that field.
    """
    bx, bz = np.asarray(bx, dtype=float), np.asarray(bz, dtype=float)
    out = np.empty(bx.shape)
    for start in range(0, bx.size, _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        lower = []
        for manifold in (excited, ground):
            _, states, columns = manifold_eigensystems(manifold, bx[block], 0.0, bz[block])
            lower.append(np.take_along_axis(states, columns[:, None, :4], axis=-1))
        out[block] = _cyclicities(_strengths(*lower))[1]
    return out


def cyclicity_from_lifetimes(tau_pol: float, tau: float) -> float:
    """Cyclicity from the polarization and optical time constants, tau_pol/(2 tau)."""
    if tau_pol <= 0 or tau <= 0:
        raise ValueError("both time constants must be positive")
    return tau_pol / (2.0 * tau)


@dataclass(frozen=True)
class PumpResult:
    """Outcome of a resonant optical pumping simulation.

    ``populations`` are the ground-state populations at the end of the
    pulse, ``steady_state`` the t -> infinity limit (both normalized over
    the ground subspace), ``tau_pol_s`` the fitted exponential time
    constant of the polarization build-up.
    """

    populations: dict
    steady_state: dict
    tau_pol_s: float
    target: str
    converged: bool = True
    message: str = ""


def _pump_rates(strengths, ground, excited, pump_freq_hz, rabi_hz, linewidth_hz):
    """Per-line excitation rates w[i, j] of a weak-coherence rate model."""
    peak = strengths.max()
    if peak <= 0:
        return np.zeros((4, 4))
    e_gnd = np.array([ground.energy(lab) for lab in LOWER_LABELS])
    e_exc = np.array([excited.energy(lab) for lab in LOWER_LABELS])
    detuning = pump_freq_hz - (e_exc[:, None] - e_gnd[None, :])
    # Unit-area Lorentzian of FWHM linewidth, peak 2/(pi*linewidth).
    lineshape = (2.0 / (math.pi * linewidth_hz)) / (
        1.0 + (2.0 * detuning / linewidth_hz) ** 2
    )
    return 0.5 * math.pi * rabi_hz ** 2 * lineshape * (strengths / peak)


def pump_dynamics(ground: EigenSystem, excited: EigenSystem, pump_line,
                  rabi_hz: float, linewidth_hz: float, duration_s: float,
                  lifetime_s: float = LIFETIME_S) -> PumpResult:
    """Rate-equation optical pumping on one resonant line.

    :param pump_line: either a peak id (``"f0"``, ``"f1"``, ``"f2"``) or a
        laser frequency in Hz relative to the zero-phonon line.
    :param rabi_hz: optical Rabi frequency of the strongest line.
    :param linewidth_hz: homogeneous FWHM of every line.

    The model keeps the four lower-branch ground states and the four
    lower-branch excited states, with stimulated absorption/emission at
    the Lorentzian-weighted line rates and spontaneous decay at
    ``branching/lifetime``.  Coherences are dropped, which is valid for
    pump pulses much longer than the optical lifetime.
    """
    if rabi_hz < 0 or linewidth_hz <= 0 or duration_s <= 0 or lifetime_s <= 0:
        raise ValueError("rates and durations must be positive")

    if isinstance(pump_line, str):
        from .spectrum import optical_transitions

        if pump_line not in ("f0", "f1", "f2"):
            raise ValueError(f"no peak {pump_line!r} to pump; expected f0, f1 or f2")
        pump_freq = optical_transitions(ground, excited, zpl=0.0).frequency(pump_line)
    else:
        pump_freq = float(pump_line)

    strengths = dipole_strengths(ground, excited)
    w = _pump_rates(strengths, ground, excited, pump_freq, rabi_hz, linewidth_hz)
    branching = _cyclicities(strengths)[0]

    # State vector: 4 ground then 4 excited populations.  Excited states
    # that do not emit (all-zero branching row) keep no decay channel, so
    # the rate matrix always conserves total population.
    decay = np.where(branching.sum(axis=1) > 0, 1.0 / lifetime_s, 0.0)
    rate = np.zeros((8, 8))
    rate[4:, :4] += w
    rate[:4, :4] -= np.diag(w.sum(axis=0))
    rate[:4, 4:] += w.T
    rate[4:, 4:] -= np.diag(w.sum(axis=1))
    rate[:4, 4:] += branching.T * decay
    rate[4:, 4:] -= np.diag(decay)

    x0 = np.zeros(8)
    x0[:4] = 0.25

    if w.max() * duration_s < 1e-6:
        return PumpResult(
            populations=dict(zip(LOWER_LABELS, x0[:4] / x0[:4].sum())),
            steady_state=dict(zip(LOWER_LABELS, x0[:4] / x0[:4].sum())),
            tau_pol_s=math.inf,
            target="",
            converged=False,
            message="pump is off-resonant with every line; no polarization",
        )

    vals, vecs = np.linalg.eig(rate)
    coeff = np.linalg.solve(vecs, x0)

    # Practical steady state: keep the conserved modes and any mode slower
    # than the experiment by 1000x (at zero field the pumping graph is
    # reducible and strictly dark sectors must stay frozen, not drain
    # through numerically-zero couplings).
    cutoff = 1e-3 / duration_s
    slow = np.abs(vals.real) < cutoff
    steady = np.real(vecs[:, slow] @ coeff[slow])
    steady_ground = np.clip(steady[:4], 0.0, None)
    steady_ground /= steady_ground.sum()
    target_idx = int(np.argmax(steady_ground))
    target = LOWER_LABELS[target_idx]

    times = np.linspace(0.0, duration_s, 200)
    modes = np.exp(np.outer(times, vals)) * coeff
    traj = np.real(modes @ vecs.T)
    pop_target = traj[:, target_idx]

    from scipy.optimize import curve_fit

    def model(t, asymptote, amp, tau):
        return asymptote + amp * np.exp(-t / tau)

    try:
        start = [pop_target[-1], pop_target[0] - pop_target[-1], duration_s / 10.0]
        fitted, _ = curve_fit(model, times, pop_target, p0=start, maxfev=5000)
        tau_pol = float(abs(fitted[2]))
    except RuntimeError:
        tau_pol = math.nan

    final_ground = np.clip(traj[-1, :4], 0.0, None)
    final_ground /= final_ground.sum()
    return PumpResult(
        populations=dict(zip(LOWER_LABELS, final_ground)),
        steady_state=dict(zip(LOWER_LABELS, steady_ground)),
        tau_pol_s=tau_pol,
        target=target,
    )


def excitation_fidelity(delta_omega_m: float, tau: float, n: float) -> float:
    """Memory fidelity after n optical excitations.

    :param delta_omega_m: memory-splitting change between manifolds, rad/s.
    :param tau: mean optical lifetime, seconds.
    :param n: number of excitations (may be fractional for budgeting).

    F = 1/2 (1 + (1 + (delta_omega_m * tau)^2)^(-n/2)); the linear phase
    accumulated by the mean dwell time is treated as correctable.
    """
    if n < 0 or tau < 0:
        raise ValueError("excitation count and lifetime must be non-negative")
    x2 = (delta_omega_m * tau) ** 2
    return 0.5 * (1.0 + (1.0 + x2) ** (-0.5 * n))


def max_excitations(delta_omega_m: float, tau: float, f_min: float) -> float:
    """Largest excitation count keeping the memory fidelity at or above f_min.

    Returns ``inf`` when the memory splitting does not change between
    manifolds (the zero-field operating point).
    """
    if not 0.5 < f_min < 1.0:
        raise ValueError("threshold must lie strictly between 1/2 and 1")
    if tau < 0:
        raise ValueError("lifetime must be non-negative")
    x2 = (delta_omega_m * tau) ** 2
    if x2 == 0.0:
        return math.inf
    n = -2.0 * math.log(2.0 * f_min - 1.0) / math.log1p(x2)
    return float(math.floor(n))


def collection_efficiency(detected_rate: float, tau: float) -> float:
    """Detected count rate over the saturated emission rate 1/(2 tau)."""
    if detected_rate < 0 or tau <= 0:
        raise ValueError("rate must be non-negative and lifetime positive")
    return detected_rate * 2.0 * tau


__all__ = [
    "DIPOLE", "dipole_strengths", "spin_conserving_pairs",
    "CyclicityResult", "cyclicity", "lambda_f0_map", "cyclicity_from_lifetimes",
    "PumpResult", "pump_dynamics",
    "excitation_fidelity", "max_excitations",
    "collection_efficiency",
]
