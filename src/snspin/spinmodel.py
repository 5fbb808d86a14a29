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

Degenerate levels are resolved by symmetry, not by a tolerance: without
a transverse field H conserves Fz = sz_S + sz_I (Hepp et al., PRL 112,
036405 (2014)) and is block diagonal in a basis ordered by Fz sector.
``eigh`` takes it there: its tridiagonal form has exact zeros at the
block ends, where LAPACK splits it, so each eigenvector stays in one
sector.  Otherwise ``eigh`` decides, down to its ~1e-3 Hz resolution.

``eigensystem`` is the one-point path: it checks, diagonalizes, labels
and gauges the 8x8 matrix itself with one ``eigh``.  ``eigensystems`` is
the stacked path for (n, 8, 8): one stacked ``eigh`` takes every point
in the basis ``eigensystem`` would use, and each comes out bitwise as it
would alone.  ``manifold_eigensystems`` builds such a stack over n field
points from the one Hamiltonian formula of ``build_hamiltonian``.
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

# Every label, lower branch first: the label order of a stacked labeling.
LABELS = LOWER_LABELS + tuple(f"upper.{q}" for q in QUBIT_LABELS)

# The three lower-branch microwave transitions, (from, to) by name:
# 0B0M <-> 1B0M is the broker-qubit flip, 0B0M <-> 0B1M the memory-qubit
# flip, and 0B1M <-> 1B1M the broker flip conditional on the memory being 1.
TRANSITIONS = {
    "broker": ("lower.0B0M", "lower.1B0M"),
    "memory": ("lower.0B0M", "lower.0B1M"),
    "broker_m1": ("lower.0B1M", "lower.1B1M"),
}

# Basis-index bit masks: aligned means electron bit == nuclear bit.
_ELECTRON_BIT = np.array([(i >> 1) & 1 for i in range(8)])
_NUCLEAR_BIT = np.array([i & 1 for i in range(8)])
_ALIGNED = (_ELECTRON_BIT == _NUCLEAR_BIT).astype(float)
_NUCLEAR_UP = (_NUCLEAR_BIT == 0).astype(float)

# Fz = sz_S + sz_I of each basis state; the basis in sector order (aligned
# up {0, 4}, aligned down {3, 7}, anti-aligned {1, 2, 5, 6}), as a gather of
# (..., 8, 8) matrices and its rows back; the entries coupling two sectors.
_FZ = 2 - 2 * (_ELECTRON_BIT + _NUCLEAR_BIT)
_SECTOR_ORDER = np.concatenate([np.flatnonzero(_FZ == fz) for fz in (2, -2, 0)])
_SECTOR_BLOCK = (...,) + np.ix_(_SECTOR_ORDER, _SECTOR_ORDER)
_BASIS_ORDER = np.argsort(_SECTOR_ORDER)
_CROSS_SECTOR = _FZ[:, None] != _FZ[None, :]

_COLUMNS = np.arange(8)

# First column of the lower and the upper branch, and each branch's
# columns with its labels.
_BRANCH_OFFSET = np.array([[0], [4]])
_BRANCH_COLUMNS = ((range(4), LABELS[:4]), (range(4, 8), LABELS[4:]))


def _zeeman(params: ManifoldParams, bx, by, bz) -> np.ndarray:
    g_fac = params.g_electron * MU_B_HZ_PER_T
    h = 0.5 * g_fac * (bx * SX_S + by * SY_S + bz * SZ_S)
    h = h + 0.5 * params.nuclear_gyro * (bx * SX_I + by * SY_I + bz * SZ_I)
    h = h + 0.5 * params.orbital_quench_q * g_fac * bz * SZ_L
    return h


def zeeman_operator(params: ManifoldParams, field: MagneticField) -> np.ndarray:
    """Zeeman Hamiltonian (Hz) of electron, nucleus and quenched orbital."""
    return _zeeman(params, field.bx, field.by, field.bz)


_SZ_L_SZ_S = SZ_L @ SZ_S
_SZ_L_SZ_I = SZ_L @ SZ_I
_FLIP_FLOP = SX_S @ SX_I + SY_S @ SY_I
_SZ_S_SZ_I = SZ_S @ SZ_I


def _hamiltonian(params: ManifoldParams, bx, by, bz) -> np.ndarray:
    """The manifold Hamiltonian in Hz: (8, 8) for float field components,
    (n, 8, 8) for components of shape (n, 1, 1)."""
    h = 0.5 * params.lambda_soc * _SZ_L_SZ_S
    h = h + 0.5 * params.upsilon_ioc * _SZ_L_SZ_I
    h = h - params.strain_egx * SX_L - params.strain_egy * SY_L
    h = h + 0.25 * params.a_perp * _FLIP_FLOP
    h = h + 0.25 * params.a_par * _SZ_S_SZ_I
    h = h + _zeeman(params, bx, by, bz)
    return h


def build_hamiltonian(params: ManifoldParams, field: MagneticField) -> np.ndarray:
    """Full 8x8 manifold Hamiltonian in Hz."""
    return _hamiltonian(params, field.bx, field.by, field.bz)


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


def _check(h: np.ndarray) -> None:
    """Raise ValueError unless each matrix of ``h`` (..., 8, 8) is finite
    and Hermitian.  A NaN would pass the comparison below unseen."""
    if np.count_nonzero(np.isfinite(h)) < h.size:
        raise ValueError("Hamiltonian has a non-finite entry")
    tol = 1e-12 * np.maximum.reduce(np.abs(h), axis=(-2, -1), keepdims=True)
    if np.count_nonzero(np.abs(h - h.conj().swapaxes(-1, -2)) > tol):
        raise ValueError("Hamiltonian is not Hermitian")


def _label_columns(pops: np.ndarray) -> np.ndarray:
    """Column of each of :data:`LABELS` in energy-sorted eigenvectors with
    populations ``pops`` (n, 8, 8), by the rule of :func:`eigensystem`."""
    branches = (-1, 4)  # one row per branch of each point
    order = np.argsort(-(_ALIGNED @ pops).reshape(branches), axis=-1, kind="stable")
    rows = np.arange(len(order))[:, None]
    up = (_NUCLEAR_UP @ pops).reshape(branches)[rows, order[:, :2]]
    one_b = np.where((up[:, 1] > up[:, 0])[:, None], order[:, 1::-1], order[:, :2])
    zero_b = np.sort(order[:, 2:], axis=-1)
    columns = np.concatenate([zero_b, one_b], axis=-1).reshape(-1, 2, 4) + _BRANCH_OFFSET
    return columns.reshape(pops.shape[:-1])


def eigensystems(h: np.ndarray) -> tuple:
    """Diagonalize and label a stack of manifold Hamiltonians.

    Returns ``(energies, states, columns)`` of shapes (n, 8), (n, 8, 8)
    and (n, 8): point i has eigenvector ``states[i, :, k]`` at
    ``energies[i, k]``, and ``columns[i, j]`` is the column of
    ``LABELS[j]``.  This is the stacked path of :func:`eigensystem`: one
    stacked ``eigh`` takes every point, each ``h`` that couples no two Fz
    sectors in the sector order, and the labeling rule runs on the whole
    stack with the same stable sorts.  Each point comes out bitwise as
    :func:`eigensystem` gives it alone.

    :param h: (n, 8, 8) finite Hermitian matrices in the fixed product
        basis (Hz).
    """
    h = np.asarray(h)
    if h.ndim != 3 or h.shape[1:] != (8, 8):
        raise ValueError(f"expected a stack of 8x8 matrices, got shape {h.shape}")
    _check(h)
    sector = ~h[:, _CROSS_SECTOR].any(axis=1)
    if sector.any():  # reorder a copy, never the caller's array
        h = h.copy()
        h[sector] = h[sector][_SECTOR_BLOCK]
    energies, states = np.linalg.eigh(h)
    states[sector] = states[sector][:, _BASIS_ORDER]
    mags = np.abs(states)
    columns = _label_columns(mags ** 2)
    # gauge: the largest-magnitude component of each column real positive
    pivots = states[np.arange(len(h))[:, None], mags.argmax(axis=-2), _COLUMNS]
    return energies, states * (np.abs(pivots) / pivots)[:, None, :], columns


def eigensystem(h: np.ndarray) -> EigenSystem:
    """Diagonalize a manifold Hamiltonian and attach branch/qubit labels.

    This is the one-point path: it works on the 8x8 matrix itself, and
    :func:`eigensystems` gives each point of a stack bitwise as this
    does.  When ``h`` couples no two Fz sectors (no transverse field),
    ``eigh`` takes it in the sector order, where it is block diagonal and
    its tridiagonal form has exact zeros at the block ends.  So every
    eigenvector has a definite Fz even inside a degenerate level: the
    aligned pair splits into |up,Up> (1B0M) and |down,Down> (1B1M), in the
    column order ``eigh`` gives.  Any other ``h`` goes to ``eigh`` as it is,
    whose ~1e-3 Hz resolution limits the labels at bz = 0 with bx below
    about 1 uT: there the excited 1B gap (0.02 Hz at 1 uT, growing as bx^2)
    nears it, and rounding sets lambda_f0 (2.0-5.6 for 10-400 nT).

    In each branch (columns 0-3 lower, 4-7 upper) the two most aligned
    states are 1B, 1B0M the one with more nuclear-up weight (the more
    aligned one on a tie, the lower one on a tie of both); the other two
    are 0B0M and 0B1M in energy order.  The largest-magnitude component
    of each column is made real positive.

    :param h: 8x8 finite Hermitian matrix in the fixed product basis (Hz).
    """
    h = np.asarray(h)
    if h.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got shape {h.shape}")
    _check(h)
    if np.count_nonzero(h[_CROSS_SECTOR]):
        energies, states = np.linalg.eigh(h)
    else:
        energies, states = np.linalg.eigh(h[_SECTOR_BLOCK])
        states = states[_BASIS_ORDER]
    mags = np.abs(states)
    pops = mags ** 2
    aligned, up = (_ALIGNED @ pops).tolist(), (_NUCLEAR_UP @ pops).tolist()
    labels = [""] * 8
    for columns, names in _BRANCH_COLUMNS:
        # a stable sort: equal weights keep their energy order
        one_0, one_1, zero_0, zero_1 = sorted(columns, key=aligned.__getitem__, reverse=True)
        if up[one_1] > up[one_0]:
            one_0, one_1 = one_1, one_0
        if zero_1 < zero_0:
            zero_0, zero_1 = zero_1, zero_0
        labels[zero_0], labels[zero_1], labels[one_0], labels[one_1] = names
    pivots = states[mags.argmax(axis=0), _COLUMNS]
    return EigenSystem(energies=energies, states=states * (np.abs(pivots) / pivots),
                       labels=tuple(labels))


def manifold_eigensystem(params: ManifoldParams, field: MagneticField) -> EigenSystem:
    """Build and diagonalize one manifold at the given field."""
    return eigensystem(build_hamiltonian(params, field))


def manifold_eigensystems(params: ManifoldParams, bx, by, bz) -> tuple:
    """:func:`eigensystems` of one manifold at the n fields (bx[i], by[i],
    bz[i]) in T; a float component holds at every point."""
    return eigensystems(_hamiltonian(
        params, *(np.asarray(b, dtype=float)[..., None, None] for b in (bx, by, bz))))


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
    "BRANCHES", "QUBIT_LABELS", "LOWER_LABELS", "LABELS", "TRANSITIONS",
    "zeeman_operator", "build_hamiltonian",
    "EigenSystem", "eigensystem", "eigensystems", "manifold_eigensystem",
    "manifold_eigensystems", "closed_form_energies",
]
