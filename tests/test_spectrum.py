"""Microwave/optical transition tables, PLE traces, memory detuning."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snspin.csvio import save_csv, table_lines
from snspin.params import MagneticField, ManifoldParams
from snspin.spinmodel import manifold_eigensystem
from snspin.optics import spin_conserving_pairs
from snspin.spectrum import (
    TransitionEntry,
    memory_detuning,
    mw_transitions,
    optical_transitions,
    ple_spectrum,
)

# Lower-branch microwave lines at the reference field (Hz).
BROKER_HZ = 644.0462e6
MEMORY_HZ = 612.3066e6
BROKER_M1_HZ = 30.28611e6

F1_MINUS_F2_HZ = 675.9347e6


def test_mw_transitions_reference_values(ground_system):
    table = mw_transitions(ground_system)
    assert table.frequency("broker") == pytest.approx(BROKER_HZ, rel=1e-6)
    assert table.frequency("memory") == pytest.approx(MEMORY_HZ, rel=1e-6)
    assert table.frequency("broker_m1") == pytest.approx(BROKER_M1_HZ, rel=1e-6)
    assert all(e.kind == "microwave" for e in table.entries)


def test_mw_transitions_level_arithmetic(ground_system):
    """broker + 1B splitting = memory + broker_m1 (shared level structure)."""
    table = mw_transitions(ground_system)
    split_1b = ground_system.transition("lower.1B1M", "lower.1B0M")
    lhs = table.frequency("broker") + split_1b
    rhs = table.frequency("memory") + table.frequency("broker_m1")
    assert lhs == pytest.approx(rhs, abs=1.0)


def test_mw_brokers_merge_at_zero_field(ground):
    system = manifold_eigensystem(ground, MagneticField())
    table = mw_transitions(system)
    assert table.frequency("broker") == pytest.approx(
        table.frequency("broker_m1") + table.frequency("memory"), abs=1.0
    )
    # the aligned pair is degenerate, so both broker flips cost the same
    split_1b = system.transition("lower.1B1M", "lower.1B0M")
    assert abs(split_1b) < 1.0


def test_unknown_peak_id(ground_system):
    with pytest.raises(KeyError, match="f9"):
        mw_transitions(ground_system).frequency("f9")


def test_optical_pairing_is_dipole_based(ground_system, excited_system):
    """Opposite-sign excited couplings swap the flip-flop partners."""
    pairs = spin_conserving_pairs(ground_system, excited_system)
    assert pairs["lower.1B0M"] == "lower.1B0M"
    assert pairs["lower.1B1M"] == "lower.1B1M"
    assert pairs["lower.0B0M"] == "lower.0B1M"
    assert pairs["lower.0B1M"] == "lower.0B0M"


def test_optical_transitions_reference_values(ground_system, excited_system):
    table = optical_transitions(ground_system, excited_system)
    f1 = table.frequency("f1")
    f2 = table.frequency("f2")
    assert f1 - f2 == pytest.approx(F1_MINUS_F2_HZ, rel=1e-6)
    # two nearly degenerate cycling lines
    f0_lines = table.by_peak("f0")
    assert len(f0_lines) == 2
    spread = abs(f0_lines[0].frequency_hz - f0_lines[1].frequency_hz)
    assert spread < 1e6
    # 4x4 ground/excited combinations in total
    assert len(table.entries) == 16
    assert len(table.by_peak("other")) == 12


def test_optical_zpl_offsets_all_lines(ground_system, excited_system):
    base = optical_transitions(ground_system, excited_system, zpl=0.0)
    shifted = optical_transitions(ground_system, excited_system, zpl=484.3e12)
    for a, b in zip(base.entries, shifted.entries):
        assert b.frequency_hz - a.frequency_hz == pytest.approx(484.3e12, abs=1.0)


def test_ple_spectrum_integral(ground_system, excited_system):
    """Unit-peak Lorentzians of FWHM G integrate to pi*G/2 each."""
    table = optical_transitions(ground_system, excited_system)
    linewidth = 61.859e6
    trace = ple_spectrum(table, linewidth=linewidth)
    integral = np.trapezoid(trace.intensity, trace.detuning_hz)
    n_lines = 4  # f0 (twice), f1, f2 carry weight 1, "other" weight 0
    expected = n_lines * np.pi * linewidth / 2
    # the default grid truncates the Lorentzian tails at 10 linewidths
    assert integral == pytest.approx(expected, rel=0.05)
    assert integral < expected


def test_ple_spectrum_peaks_at_lines(ground_system, excited_system):
    table = optical_transitions(ground_system, excited_system)
    f1 = table.frequency("f1")
    grid = np.linspace(f1 - 5e6, f1 + 5e6, 101)
    trace = ple_spectrum(table, grid=grid)
    peak = trace.detuning_hz[np.argmax(trace.intensity)]
    assert peak == pytest.approx(f1, abs=2e5)


def test_ple_spectrum_refuses_zero_linewidth(ground_system, excited_system):
    table = optical_transitions(ground_system, excited_system)
    with pytest.raises(ValueError, match="linewidth"):
        ple_spectrum(table, linewidth=0.0)


def test_memory_detuning_reference_value(ground_system, excited_system):
    assert memory_detuning(ground_system, excited_system) == pytest.approx(
        1.669814e5, rel=1e-5
    )


@settings(max_examples=25, deadline=None)
@given(
    lam_g=st.floats(1e11, 2e12),
    lam_e=st.floats(1e12, 5e12),
    a_par=st.floats(-1e9, 1e9),
    a_perp=st.floats(1e6, 1e9),
    strain=st.floats(-1e12, 1e12),
)
def test_memory_detuning_vanishes_at_zero_field(lam_g, lam_e, a_par, a_perp, strain):
    g = ManifoldParams(lambda_soc=lam_g, a_par=a_par, a_perp=a_perp,
                       strain_egx=strain)
    e = ManifoldParams(lambda_soc=lam_e, a_par=-0.3 * a_par, a_perp=0.7 * a_perp,
                       strain_egx=-0.2 * strain)
    sys_g = manifold_eigensystem(g, MagneticField())
    sys_e = manifold_eigensystem(e, MagneticField())
    scale = max(g.delta_total, e.delta_total)
    assert abs(memory_detuning(sys_g, sys_e)) < 1e-8 * scale


def test_memory_detuning_nonzero_at_field(ground_system, excited_system):
    assert abs(memory_detuning(ground_system, excited_system)) > 1e4


def test_table_csv_rows(ground_system, tmp_path):
    entries = mw_transitions(ground_system).entries
    header = [f.name for f in fields(TransitionEntry)]
    path = tmp_path / "transitions.csv"
    save_csv(path, header, table_lines(*([getattr(e, n) for e in entries] for n in header)))
    lines = path.read_text().splitlines()
    assert lines[0] == "from_label,to_label,frequency_hz,kind,peak_id"
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][:2] == [entries[0].from_label, entries[0].to_label]
    # frequencies survive a text round trip exactly
    assert float(rows[0][2]) == entries[0].frequency_hz
