"""Effective Hamiltonian and labeled level structure of one orbital manifold.

The model space is the 8-dimensional product of an orbital doublet
{e_g+, e_g-}, the S=1/2 electron spin and the I=1/2 nuclear spin.  Basis
ordering is ``index = 4*orbital + 2*electron + nuclear`` with 0 meaning
(e_g+, spin up); all operators below are written in that basis.

The Hamiltonian (in Hz, i.e. H/h) contains spin-orbit and
nucleus-orbit coupling along the symmetry axis, transverse strain
acting on the orbital doublet, the secular and flip-flop hyperfine
interaction, and electron / nuclear / (quenched) orbital Zeeman terms:

    H = (lambda/2) sz_L sz_S + (upsilon/2) sz_L sz_I
        - strain_egx sx_L - strain_egy sy_L
        + (a_perp/4)(sx_S sx_I + sy_S sy_I) + (a_par/4) sz_S sz_I
        + (g mu_B / 2) B . sigma_S + (gyro_n / 2) B . sigma_I
        + (q g mu_B / 2) B_z sz_L

Each manifold splits into a lower and an upper orbital branch separated
by roughly ``sqrt(lambda^2 + 4 strain^2)``.  Within a branch the four
spin states are labeled by the broker/memory qubit convention:

    1B0M, 1B1M  --  aligned (|up,Up>, |down,Down>)-like states,
                    0M is the one dominated by nuclear spin up;
    0B0M, 0B1M  --  the anti-aligned flip-flop pair, 1M is the
                    higher-energy state of the two.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .params import ManifoldParams, MagneticField, MU_B_HZ_PER_T

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)


def _embed(op: np.ndarray, slot: int) -> np.ndarray:
    """Lift a single 2x2 operator into the 8-dim product space.

    slot 0 = orbital, 1 = electron spin, 2 = nuclear spin.
    """
    factors = [IDENTITY, IDENTITY, IDENTITY]
    factors[slot] = op
    return np.kron(np.kron(factors[0], factors[1]), factors[2])


SX_L, SY_L, SZ_L = (_embed(p, 0) for p in (SIGMA_X, SIGMA_Y, SIGMA_Z))
SX_S, SY_S, SZ_S = (_embed(p, 1) for p in (SIGMA_X, SIGMA_Y, SIGMA_Z))
SX_I, SY_I, SZ_I = (_embed(p, 2) for p in (SIGMA_X, SIGMA_Y, SIGMA_Z))

BRANCHES = ("lower", "upper")
QUBIT_LABELS = ("0B0M", "0B1M", "1B0M", "1B1M")

# Lower-branch labels in qubit order: the row and column order of every
# 4x4 optical matrix and of the optical transition table.
LOWER_LABELS = tuple(f"lower.{q}" for q in QUBIT_LABELS)

# The three lower-branch microwave transitions, (from, to) by name:
# 0B0M <-> 1B0M is the broker-qubit flip, 0B0M <-> 0B1M the memory-qubit
# flip, and 0B1M <-> 1B1M the broker flip conditional on the memory being 1.
TRANSITIONS = {
    "broker": ("lower.0B0M", "lower.1B0M"),
    "memory": ("lower.0B0M", "lower.0B1M"),
    "broker_m1": ("lower.0B1M", "lower.1B1M"),
}

# Relative gap (in units of the total orbital splitting) below which
# neighboring levels are treated as one degenerate cluster and rotated
# onto the analytic zero-field basis before labeling.
_DEGENERACY_TOL = 1e-9

# Basis-index bit masks: aligned means electron bit == nuclear bit.
_ELECTRON_BIT = np.array([(i >> 1) & 1 for i in range(8)])
_NUCLEAR_BIT = np.array([i & 1 for i in range(8)])
_ALIGNED = (_ELECTRON_BIT == _NUCLEAR_BIT).astype(float)
_NUCLEAR_UP = (_NUCLEAR_BIT == 0).astype(float)


def zeeman_operator(params: ManifoldParams, field: MagneticField) -> np.ndarray:
    """Zeeman Hamiltonian (Hz) of electron, nucleus and quenched orbital."""
    g_fac = params.g_electron * MU_B_HZ_PER_T
    h = 0.5 * g_fac * (field.bx * SX_S + field.by * SY_S + field.bz * SZ_S)
    h = h + 0.5 * params.nuclear_gyro * (
        field.bx * SX_I + field.by * SY_I + field.bz * SZ_I
    )
    h = h + 0.5 * params.orbital_quench_q * g_fac * field.bz * SZ_L
    return h


def build_hamiltonian(params: ManifoldParams, field: MagneticField) -> np.ndarray:
    """Full 8x8 manifold Hamiltonian in Hz."""
    h = 0.5 * params.lambda_soc * (SZ_L @ SZ_S)
    h = h + 0.5 * params.upsilon_ioc * (SZ_L @ SZ_I)
    h = h - params.strain_egx * SX_L - params.strain_egy * SY_L
    h = h + 0.25 * params.a_perp * (SX_S @ SX_I + SY_S @ SY_I)
    h = h + 0.25 * params.a_par * (SZ_S @ SZ_I)
    h = h + zeeman_operator(params, field)
    return h


@dataclass(frozen=True)
class EigenSystem:
    """Sorted, labeled eigensystem of one manifold.

    ``states[:, k]`` is the eigenvector belonging to ``energies[k]`` and
    ``labels[k]`` (a string like ``"lower.0B1M"``).
    """

    energies: np.ndarray
    states: np.ndarray
    labels: tuple

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no level labeled {label!r}; have {self.labels}") from None

    def energy(self, label: str) -> float:
        return float(self.energies[self.index(label)])

    def state(self, label: str) -> np.ndarray:
        return self.states[:, self.index(label)]

    def transition(self, label_to: str, label_from: str) -> float:
        """Signed transition frequency E(to) - E(from), Hz."""
        return self.energy(label_to) - self.energy(label_from)

    def level_dict(self) -> dict:
        return {lab: float(e) for lab, e in zip(self.labels, self.energies)}


def _orbital_sector_vectors(params: ManifoldParams):
    """Zero-field orbital eigenvectors per (electron, nuclear) spin sector.

    Returns an array ``w[s_e, s_n, :, b]`` with b=0 the lower and b=1 the
    upper orbital branch, where s_e/s_n index (up, down) as (0, 1).
    """
    blocks = np.empty((2, 2, 2, 2), dtype=complex)
    for se, sgn_e in ((0, 1.0), (1, -1.0)):
        for sn, sgn_n in ((0, 1.0), (1, -1.0)):
            zz = 0.5 * (params.lambda_soc * sgn_e + params.upsilon_ioc * sgn_n)
            blocks[se, sn] = (
                zz * SIGMA_Z
                - params.strain_egx * SIGMA_X
                - params.strain_egy * SIGMA_Y
            )
    vals, vecs = np.linalg.eigh(blocks.reshape(4, 2, 2))
    return vals.reshape(2, 2, 2), vecs.reshape(2, 2, 2, 2)


def _analytic_zero_field_states(params: ManifoldParams, branch_idx: int) -> np.ndarray:
    """Product-form zero-field eigenstates of one orbital branch.

    Used only to resolve degenerate clusters deterministically; the
    states are exact at zero field up to cross-branch hyperfine mixing.
    Columns are ordered (0B0M, 0B1M, 1B0M, 1B1M).
    """
    sector_vals, sector_vecs = _orbital_sector_vectors(params)
    out = np.zeros((8, 4), dtype=complex)

    def put(col, orb_vec, spin_index):
        out[spin_index::4, col] = orb_vec

    # Aligned states |up,Up> (spin index 0) and |down,Down> (spin index 3).
    put(2, sector_vecs[0, 0, :, branch_idx], 0)
    put(3, sector_vecs[1, 1, :, branch_idx], 3)

    # Anti-aligned 2x2 problem in {|up,Down>, |down,Up>} (indices 1, 2).
    w_ud = sector_vecs[0, 1, :, branch_idx]
    w_du = sector_vecs[1, 0, :, branch_idx]
    overlap = np.vdot(w_ud, w_du)
    h2 = np.array(
        [
            [sector_vals[0, 1, branch_idx] - 0.25 * params.a_par,
             0.5 * params.a_perp * overlap],
            [0.5 * params.a_perp * np.conj(overlap),
             sector_vals[1, 0, branch_idx] - 0.25 * params.a_par],
        ]
    )
    _, combos = np.linalg.eigh(h2)
    # eigh sorts ascending: column 0 is 0B0M, column 1 is 0B1M.
    for col, combo in ((0, combos[:, 0]), (1, combos[:, 1])):
        out[1::4, col] = combo[0] * w_ud
        out[2::4, col] = combo[1] * w_du
    return out


def _fix_phases(states: np.ndarray) -> np.ndarray:
    """Gauge: make the largest-magnitude component of each column real positive."""
    idx = np.argmax(np.abs(states), axis=0)
    pivots = states[idx, np.arange(states.shape[1])]
    return states * (np.abs(pivots) / pivots)


def _rotate_clusters(energies, states, params, branch_idx, offset, tol):
    """Replace eigenvectors of degenerate clusters by projections of the
    analytic zero-field states, making degenerate subspaces deterministic.

    A cluster may also contain accidental near-coincidences (levels within
    ``tol`` of a true degeneracy); each analytic column is therefore placed
    in the slot of the eigenvector it actually overlaps, so sharp levels
    keep their own eigenvalues and only genuine gauge freedom is rotated.
    """
    analytic = None
    k = 0
    while k < 4:
        j = k + 1
        while j < 4 and energies[offset + j] - energies[offset + j - 1] <= tol:
            j += 1
        size = j - k
        if size > 1:
            if analytic is None:
                analytic = _analytic_zero_field_states(params, branch_idx)
            sub = states[:, offset + k:offset + j]
            coeff = sub.conj().T @ analytic  # analytic states in cluster basis
            norms = np.linalg.norm(coeff, axis=0)
            cols = np.argsort(-norms)[:size]
            weight = np.abs(coeff[:, cols]) ** 2  # (slot, picked column)
            slot_of = np.full(size, -1)
            for c in np.argsort(-weight.max(axis=0)):
                for s in np.argsort(-weight[:, c]):
                    if slot_of[s] < 0:
                        slot_of[s] = cols[c]
                        break
            picked = sub @ coeff[:, slot_of]
            q, _ = np.linalg.qr(picked)
            states[:, offset + k:offset + j] = q
        k = j
    return states


def eigensystem(h: np.ndarray, params: ManifoldParams) -> EigenSystem:
    """Diagonalize a manifold Hamiltonian and attach branch/qubit labels.

    :param h: 8x8 Hermitian matrix in the fixed product basis (Hz).
    :param params: couplings used to build ``h``; needed to resolve
        degenerate subspaces against the analytic zero-field basis.
    """
    if h.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got shape {h.shape}")
    scale = np.abs(h).max()
    if scale > 0 and np.abs(h - h.conj().T).max() > 1e-12 * scale:
        raise ValueError("Hamiltonian is not Hermitian")
    energies, states = np.linalg.eigh(h)
    tol = _DEGENERACY_TOL * max(params.delta_total, 1.0)

    labels = [""] * 8
    for branch_idx, (branch, offset) in enumerate((("lower", 0), ("upper", 4))):
        states = _rotate_clusters(energies, states, params, branch_idx, offset, tol)
        pops = np.abs(states[:, offset:offset + 4]) ** 2
        aligned_pop = _ALIGNED @ pops
        nuclear_up_pop = _NUCLEAR_UP @ pops

        order = np.argsort(-aligned_pop)
        one_b = sorted(order[:2], key=lambda c: -nuclear_up_pop[c])
        labels[offset + one_b[0]] = f"{branch}.1B0M"
        labels[offset + one_b[1]] = f"{branch}.1B1M"
        zero_b = sorted(order[2:])  # ascending energy within the branch
        labels[offset + zero_b[0]] = f"{branch}.0B0M"
        labels[offset + zero_b[1]] = f"{branch}.0B1M"

    states = _fix_phases(states)
    return EigenSystem(energies=energies, states=states, labels=tuple(labels))


def manifold_eigensystem(params: ManifoldParams, field: MagneticField) -> EigenSystem:
    """Build and diagonalize one manifold at the given field."""
    return eigensystem(build_hamiltonian(params, field), params)


def closed_form_energies(params: ManifoldParams, order: int = 2) -> dict:
    """Perturbative zero-field level energies, Hz.

    Keys are full labels like ``"lower.0B1M"``.  ``order=1`` keeps only
    the first-order hyperfine structure on top of the orbital splitting;
    ``order=2`` adds the second-order hyperfine and nucleus-orbit
    corrections that split the two broker transitions.

    The expansion is organized in the mixing ratios of the strained
    orbital doublet, ``s = 2*strain/Delta`` and ``c = lambda/Delta``
    with ``Delta = sqrt(lambda^2 + 4*strain^2)`` the total orbital gap.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    delta = params.delta_total
    if delta <= 0:
        raise ValueError("closed forms need a finite orbital splitting")
    s_mix = 2.0 * params.strain_total / delta
    c_mix = params.lambda_soc / delta
    a_par, ups = params.a_par, params.upsilon_ioc
    # 0B1M is by definition the upper member of the flip-flop pair, so
    # only the magnitude of the transverse coupling enters the splitting
    a_perp = abs(params.a_perp)
    hyperfine_scale = max(abs(a_par), abs(a_perp), abs(ups))
    if hyperfine_scale > 0 and delta < 100 * hyperfine_scale:
        warnings.warn(
            "closed forms assume the orbital gap dominates the hyperfine "
            f"couplings; here the ratio is only {delta / hyperfine_scale:.1f}",
            stacklevel=2,
        )

    out = {}
    for branch, sign in (("lower", -1.0), ("upper", +1.0)):
        if order == 1:
            gap = sign * 0.5 * delta
            e_1b = 0.25 * a_par + gap
            e_01 = -0.25 * a_par + 0.5 * a_perp * s_mix + gap
            e_00 = -0.25 * a_par - 0.5 * a_perp * s_mix + gap
        else:
            e_1b = 0.25 * a_par + sign * (0.5 * delta + 0.5 * ups * c_mix)
            bracket = (
                0.5 * delta
                - 0.5 * ups * c_mix
                + 0.25 * a_perp ** 2 / delta * (1.0 - s_mix ** 2)
            )
            e_01 = -0.25 * a_par + 0.5 * a_perp * s_mix + sign * bracket
            e_00 = -0.25 * a_par - 0.5 * a_perp * s_mix + sign * bracket
        out[f"{branch}.1B0M"] = e_1b
        out[f"{branch}.1B1M"] = e_1b
        out[f"{branch}.0B0M"] = e_00
        out[f"{branch}.0B1M"] = e_01
    return out


__all__ = [
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "IDENTITY",
    "SX_L", "SY_L", "SZ_L", "SX_S", "SY_S", "SZ_S", "SX_I", "SY_I", "SZ_I",
    "BRANCHES", "QUBIT_LABELS", "LOWER_LABELS", "TRANSITIONS",
    "zeeman_operator", "build_hamiltonian",
    "EigenSystem", "eigensystem", "manifold_eigensystem", "closed_form_energies",
]
