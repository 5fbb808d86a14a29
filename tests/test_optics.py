"""Dipole strengths, cyclicity, optical pumping and the excitation budget."""

import math

import numpy as np
import pytest

from snspin.params import MagneticField, reference_field
from snspin.spinmodel import manifold_eigensystem
from snspin.optics import (
    collection_efficiency,
    cyclicity,
    cyclicity_from_lifetimes,
    DIPOLE,
    dipole_strengths,
    excitation_fidelity,
    excitation_fidelity_mc,
    max_excitations,
    pump_dynamics,
    spin_conserving_pairs,
)

LINEWIDTH_HZ = 61.859e6

# Cyclicity of the f0 line at 200 uT transverse field (axial bias kept).
LAMBDA_200UT = 123.9054


def systems_at(ground, excited, bx, bz):
    fld = MagneticField(bx=bx, bz=bz)
    return manifold_eigensystem(ground, fld), manifold_eigensystem(excited, fld)


def test_dipole_strengths_shape_and_sign(ground_system, excited_system):
    s = dipole_strengths(ground_system, excited_system)
    assert s.shape == (4, 4)
    assert np.all(s >= 0)


def test_spin_conserving_pairs_bijection(ground, excited):
    for bx in (0.0, 2e-4, 8e-4):
        sg, se = systems_at(ground, excited, bx, reference_field().bz)
        pairs = spin_conserving_pairs(sg, se)
        assert len(pairs) == 4
        assert len(set(pairs.values())) == 4


def test_branching_rows_sum_to_one(ground, excited):
    for bx, bz in ((0.0, 0.0), (2e-4, 5.5e-5), (1e-3, -2e-4)):
        sg, se = systems_at(ground, excited, bx, bz)
        res = cyclicity(sg, se)
        sums = res.branching.sum(axis=1)
        emitting = sums > 0
        assert np.allclose(sums[emitting], 1.0, atol=1e-12)


def test_cyclicity_perfect_at_zero_field(ground, excited):
    sg, se = systems_at(ground, excited, 0.0, 0.0)
    res = cyclicity(sg, se)
    assert res.lambda_f0 == math.inf
    for label in ("lower.1B0M", "lower.1B1M"):
        i = res.excited_labels.index(label)
        assert 1.0 - res.branching[i].max() < 1e-12


def test_cyclicity_at_200ut(ground, excited):
    sg, se = systems_at(ground, excited, 200e-6, reference_field().bz)
    assert cyclicity(sg, se).lambda_f0 == pytest.approx(LAMBDA_200UT, rel=1e-4)
    assert 85 < cyclicity(sg, se).lambda_f0 < 180


def test_cyclicity_decreases_with_transverse_field(ground, excited):
    bz = reference_field().bz
    values = []
    for bx in (1e-4, 3e-4, 6e-4, 1e-3):
        sg, se = systems_at(ground, excited, bx, bz)
        values.append(cyclicity(sg, se).lambda_f0)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 1.0


def test_cyclicity_smooth_in_transverse_field_without_bias(ground, excited):
    """At bz = 0 lambda_f0 falls smoothly with bx: no degeneracy threshold
    switches the 1B basis and makes it jump."""
    values = np.array([cyclicity(*systems_at(ground, excited, bx, 0.0)).lambda_f0
                       for bx in np.linspace(0.0, 1e-3, 50)[1:]])
    steps = np.diff(values)
    assert np.all(steps < 0)
    assert np.all(np.abs(steps) < 0.05 * values[:-1])


def test_cyclicity_from_lifetimes():
    assert cyclicity_from_lifetimes(2e-5, 6e-9) == pytest.approx(2e-5 / 1.2e-8)
    with pytest.raises(ValueError):
        cyclicity_from_lifetimes(0.0, 6e-9)
    with pytest.raises(ValueError):
        cyclicity_from_lifetimes(1e-5, -1.0)


def test_pump_polarizes_into_0b0m(ground, excited):
    """Driving the f2 line empties 0B1M and collects population in 0B0M."""
    sg, se = systems_at(ground, excited, 200e-6, reference_field().bz)
    res = pump_dynamics(sg, se, "f2", rabi_hz=25e6,
                        linewidth_hz=LINEWIDTH_HZ, duration_s=50e-6)
    assert res.converged
    assert res.target == "lower.0B0M"
    assert res.steady_state["lower.0B0M"] > 0.9
    assert sum(res.populations.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(res.steady_state.values()) == pytest.approx(1.0, abs=1e-9)


def test_pump_on_cycling_line_drains_broker(ground, excited):
    sg, se = systems_at(ground, excited, 200e-6, reference_field().bz)
    res = pump_dynamics(sg, se, "f0", rabi_hz=30e6,
                        linewidth_hz=LINEWIDTH_HZ, duration_s=50e-6)
    assert res.steady_state["lower.1B0M"] < 0.05
    assert res.steady_state["lower.1B1M"] < 0.05
    assert res.tau_pol_s == pytest.approx(2.01e-5, rel=0.05)
    # the polarization time grows with cyclicity: weaker field, slower pump
    sg2, se2 = systems_at(ground, excited, 100e-6, reference_field().bz)
    res2 = pump_dynamics(sg2, se2, "f0", rabi_hz=30e6,
                         linewidth_hz=LINEWIDTH_HZ, duration_s=400e-6)
    assert res2.tau_pol_s > 2 * res.tau_pol_s


def test_pump_off_resonant_reports_no_polarization(ground_system, excited_system):
    res = pump_dynamics(ground_system, excited_system, 1e15,
                        rabi_hz=10e6, linewidth_hz=LINEWIDTH_HZ,
                        duration_s=10e-6)
    assert not res.converged
    assert "off-resonant" in res.message
    assert all(v == pytest.approx(0.25) for v in res.populations.values())


def test_pump_rejects_bad_input(ground_system, excited_system):
    for line in ("f7", "other"):  # "other" names the spin-flipping lines, no peak
        with pytest.raises(ValueError, match=line):
            pump_dynamics(ground_system, excited_system, line,
                          rabi_hz=1e6, linewidth_hz=LINEWIDTH_HZ, duration_s=1e-6)
    with pytest.raises(ValueError):
        pump_dynamics(ground_system, excited_system, "f0",
                      rabi_hz=1e6, linewidth_hz=-1.0, duration_s=1e-6)


def test_excitation_fidelity_limits():
    assert excitation_fidelity(0.0, 6e-9, 1e9) == 1.0
    assert excitation_fidelity(1e6, 6e-9, 0) == 1.0
    f = [excitation_fidelity(1e5, 6e-9, n) for n in (1e4, 1e5, 1e6, 1e8)]
    assert all(a > b for a, b in zip(f, f[1:]))
    assert f[-1] == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ValueError):
        excitation_fidelity(1e5, 6e-9, -1)
    with pytest.raises(ValueError, match="lifetime"):
        excitation_fidelity(1e5, -6e-9, 10)
    assert excitation_fidelity(1e5, 0.0, 10) == 1.0


def test_excitation_fidelity_value():
    # F = (1 + (1 + x^2)^(-n/2)) / 2 at x = 6e-4, n = 1e6
    assert excitation_fidelity(1e5, 6e-9, 1e6) == pytest.approx(0.9176351, abs=1e-6)


def test_excitation_fidelity_mc_agrees_with_closed_form():
    f_mc, stderr = excitation_fidelity_mc(5e7, 6e-9, 10, trials=20000, seed=7)
    f_cf = excitation_fidelity(5e7, 6e-9, 10)
    assert abs(f_mc - f_cf) < 3 * stderr
    assert stderr < 0.01


def test_excitation_fidelity_mc_seeded():
    a = excitation_fidelity_mc(5e7, 6e-9, 5, trials=2000, seed=3)
    b = excitation_fidelity_mc(5e7, 6e-9, 5, trials=2000, seed=3)
    c = excitation_fidelity_mc(5e7, 6e-9, 5, trials=2000, seed=4)
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        excitation_fidelity_mc(5e7, 6e-9, 5, trials=10)


def test_max_excitations_budget():
    n = max_excitations(2 * math.pi * 10.4e3, 6e-9, 0.95)
    assert n == 1370815.0
    # the budget must actually satisfy the threshold, the next count not
    assert excitation_fidelity(2 * math.pi * 10.4e3, 6e-9, n) >= 0.95
    assert excitation_fidelity(2 * math.pi * 10.4e3, 6e-9, n + 1) < 0.95
    assert max_excitations(0.0, 6e-9, 0.95) == math.inf
    with pytest.raises(ValueError):
        max_excitations(1e5, 6e-9, 0.4)
    with pytest.raises(ValueError):
        max_excitations(1e5, 6e-9, 1.0)
    # the squared phase (delta_omega tau)^2 would hide the sign of tau
    with pytest.raises(ValueError, match="lifetime"):
        max_excitations(1e5, -6e-9, 0.95)
    assert max_excitations(1e5, 0.0, 0.95) == math.inf


def test_collection_efficiency():
    assert collection_efficiency(23.25e3, 6e-9) == pytest.approx(2.79e-4)
    with pytest.raises(ValueError):
        collection_efficiency(-1.0, 6e-9)


def test_default_dipoles_orbital_only():
    from snspin.spinmodel import SX_L, SX_I, SX_S, SY_I, SY_L, SY_S, SZ_I, SZ_S

    # px + py swap the circular orbital state, pz keeps it (identity here)
    assert np.array_equal(DIPOLE, SX_L + SY_L + np.eye(8))
    for op in (SX_S, SY_S, SZ_S, SX_I, SY_I, SZ_I):
        assert np.array_equal(DIPOLE @ op, op @ DIPOLE)
