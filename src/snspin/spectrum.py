"""Transition tables, PLE spectra and the cross-manifold memory detuning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinmodel import LOWER_LABELS, TRANSITIONS, EigenSystem
from .optics import spin_conserving_pairs
from .params import OPTICAL_LINEWIDTH_HZ


@dataclass(frozen=True)
class TransitionEntry:
    from_label: str
    to_label: str
    frequency_hz: float
    kind: str       # "microwave" | "optical"
    peak_id: str    # "f0" | "f1" | "f2" | "other"


@dataclass(frozen=True)
class TransitionTable:
    entries: tuple

    def by_peak(self, peak_id: str) -> list:
        return [e for e in self.entries if e.peak_id == peak_id]

    def frequency(self, peak_id: str) -> float:
        """Mean frequency of the lines forming one peak."""
        lines = self.by_peak(peak_id)
        if not lines:
            raise KeyError(f"no transition with peak id {peak_id!r}")
        return float(np.mean([e.frequency_hz for e in lines]))


@dataclass(frozen=True)
class SpectrumTrace:
    detuning_hz: np.ndarray
    intensity: np.ndarray


def mw_transitions(ground: EigenSystem) -> TransitionTable:
    """The three lower-branch microwave transitions of ``spinmodel.TRANSITIONS``."""
    entries = tuple(
        TransitionEntry(a, b, abs(ground.transition(b, a)), "microwave", key)
        for key, (a, b) in TRANSITIONS.items()
    )
    return TransitionTable(entries=entries)


def optical_transitions(ground: EigenSystem, excited: EigenSystem,
                        zpl: float = 0.0) -> TransitionTable:
    """Lower-branch optical lines between the two manifolds.

    Spin-conserving lines (between dipole-matched partners) carry the
    peak ids: ``f0`` for the two broker-1 lines (degenerate at zero
    field), ``f1`` for the line out of the 0B0M ground state and ``f2``
    for the line out of 0B1M.  All other ground/excited combinations are
    listed as ``other``; they are the weak spin-flipping lines whose
    strength the cyclicity quantifies.

    Note the dipole-based pairing: the 0B ground states pair with the
    excited state of matching flip-flop symmetry, which the opposite
    signs of the two manifolds' couplings can order differently from the
    energy-based labels.
    """
    pairs = spin_conserving_pairs(ground, excited)
    peak_of = {
        "lower.1B0M": "f0",
        "lower.1B1M": "f0",
        "lower.0B0M": "f1",
        "lower.0B1M": "f2",
    }
    entries = []
    for g_label in LOWER_LABELS:
        partner = pairs[g_label]
        for e_label in LOWER_LABELS:
            freq = zpl + excited.energy(e_label) - ground.energy(g_label)
            peak = peak_of[g_label] if e_label == partner else "other"
            entries.append(TransitionEntry(g_label, e_label, freq, "optical", peak))
    return TransitionTable(entries=tuple(entries))


def ple_spectrum(table: TransitionTable, linewidth: float = OPTICAL_LINEWIDTH_HZ,
                 grid: np.ndarray | None = None) -> SpectrumTrace:
    """Photoluminescence-excitation trace: a sum of Lorentzian lines.

    Each named peak's line (f0/f1/f2) is a unit-peak Lorentzian of FWHM
    ``linewidth``; the spin-flipping ``other`` lines add nothing.
    """
    if linewidth <= 0:
        raise ValueError("linewidth must be positive")
    optical = [e for e in table.entries if e.kind == "optical"]
    centers = np.array([e.frequency_hz for e in optical])
    weights = np.array([1.0 if e.peak_id != "other" else 0.0 for e in optical])
    if centers.size == 0:
        grid = np.array([]) if grid is None else np.asarray(grid, dtype=float)
        return SpectrumTrace(grid, np.zeros_like(grid))
    if grid is None:
        lo = centers.min() - 10 * linewidth
        hi = centers.max() + 10 * linewidth
        grid = np.linspace(lo, hi, 2001)
    grid = np.asarray(grid, dtype=float)
    delta = grid[:, None] - centers[None, :]
    lines = weights / (1.0 + (2.0 * delta / linewidth) ** 2)
    return SpectrumTrace(grid, lines.sum(axis=1))


def memory_detuning(ground: EigenSystem, excited: EigenSystem) -> float:
    """Change of the memory splitting under optical excitation, Hz.

    [E_exc(1B1M) - E_exc(1B0M)] - [E_gnd(1B1M) - E_gnd(1B0M)]; zero at
    zero field in this model for any parameters, which is the working
    point where optical cycling leaves the memory qubit untouched.
    """
    exc = excited.transition("lower.1B1M", "lower.1B0M")
    gnd = ground.transition("lower.1B1M", "lower.1B0M")
    return exc - gnd


__all__ = [
    "TransitionEntry", "TransitionTable", "SpectrumTrace",
    "mw_transitions", "optical_transitions", "ple_spectrum", "memory_detuning",
]
