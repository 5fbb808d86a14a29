"""Driven dynamics: propagators, chevron/Ramsey maps, decoupling, RB."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from snspin import dynamics as dyn
from snspin.csvio import save_signal_csv
from snspin.dynamics import (
    DriveSegment,
    ExperimentSpec,
    NoiseModel,
    PulseProgram,
    SignalMap,
    clifford_adjust,
    decoupling_scan,
    propagate,
    rabi_map,
    ramsey_map,
    rb_simulate,
)
from snspin.params import MagneticField

# Reference microwave drive amplitudes (electron drive strengths, Hz).
AX = 8.92e6
AZ = 5.00e6

# Transition frequencies at the reference bias field (Hz).
F_BROKER = 6.440462e8
F_MEMORY = 6.123066e8
F_BROKER_M1 = 3.028611e7

# Calibrated on-resonance Rabi rates and pi times for (AX, AZ).
RABI_HZ = {"broker": 4.084616e6, "memory": 2.308349e6, "broker_m1": 4.016539e6}
PI_S = {"broker": 1.224105e-7, "memory": 2.166051e-7, "broker_m1": 1.244853e-7}

BROKER_PI_BRIGHT = 0.946652        # 1B population after a broker pi pulse
MEMORY_PI_TARGET = 0.992141        # 0B1M population after a memory pi pulse
MEMORY_ROUTED_BRIGHT = 0.933345    # with the broker_m1 readout mapping pulse
BROKER_M1_DARK_LEAK = 4.7e-5       # starting from 0B0M the line is dark


@pytest.fixture(scope="module")
def engine(ground, field):
    return dyn._Engine(ground, field)


def test_transition_frequencies(engine):
    assert engine.transition_frequency("broker") == pytest.approx(F_BROKER, rel=1e-6)
    assert engine.transition_frequency("memory") == pytest.approx(F_MEMORY, rel=1e-6)
    assert engine.transition_frequency("broker_m1") == pytest.approx(F_BROKER_M1, rel=1e-6)


def test_rabi_rates_and_pi_times(engine):
    for name in dyn.TRANSITIONS:
        rate = engine.rabi_rate(name, AX, AZ)
        assert rate == pytest.approx(RABI_HZ[name], rel=1e-6)
        assert engine.pi_time(name, AX, AZ) == pytest.approx(PI_S[name], rel=1e-6)
        assert engine.pi_time(name, AX, AZ) == pytest.approx(1 / (2 * rate))


def test_pi_time_requires_coupling(engine):
    with pytest.raises(ValueError, match="does not couple"):
        engine.pi_time("broker", 0.0, 0.0)


def pi_segment(engine, name):
    return DriveSegment(engine.transition_frequency(name), AX, AZ, 0.0,
                        engine.pi_time(name, AX, AZ))


def engine_state(engine, prog):
    """Final state of ``prog`` in the static eigenbasis, as the one row of
    a ``_sweep`` plan: a program of drives at (AX, AZ) and phase 0 from
    0B0M, which is what the engine runs."""
    assert prog.init_label == "lower.0B0M"
    assert all(seg.is_gap or (seg.amplitude_x_hz, seg.amplitude_z_hz, seg.phase_rad)
               == (AX, AZ, 0.0) for seg in prog.segments)
    layers = [(None if seg.is_gap else [seg.frequency_hz], 0, seg.duration_s)
              for seg in prog.segments]
    return engine._sweep(AX, AZ, [(1, layers)])[0]


def test_broker_pi_transfer(engine):
    psi = engine_state(engine, PulseProgram((pi_segment(engine, "broker"),)))
    assert engine.bright_population(psi) == pytest.approx(BROKER_PI_BRIGHT, abs=1e-4)


def test_memory_pi_transfer(engine):
    psi = engine_state(engine, PulseProgram((pi_segment(engine, "memory"),)))
    pops = np.abs(psi) ** 2
    assert pops[engine.system.index("lower.0B1M")] == pytest.approx(
        MEMORY_PI_TARGET, abs=1e-4)
    # nuclear flip leaves the state dark until the mapping pulse
    assert engine.bright_population(psi) < 0.01


def test_broker_m1_dark_without_memory_pulse(engine):
    psi = engine_state(engine, PulseProgram((pi_segment(engine, "broker_m1"),)))
    assert engine.bright_population(psi) < 3 * BROKER_M1_DARK_LEAK


def test_memory_readout_routing(ground, field, engine):
    sm = rabi_map(ground, field, AX, AZ, [F_MEMORY], [PI_S["memory"]],
                  transition="memory")
    assert sm.signal[0, 0] == pytest.approx(MEMORY_ROUTED_BRIGHT, abs=1e-3)


def test_propagate_matches_engine(ground, field, engine):
    prog = PulseProgram((
        DriveSegment(F_BROKER, AX, AZ, 0.0, PI_S["broker"]),
        DriveSegment(0.0, 0.0, 0.0, 0.0, 50e-9),
        DriveSegment(F_MEMORY, AX, AZ, 0.0, 100e-9),
    ))
    psi_ref, u = propagate(engine.h0, ground, prog, return_unitary=True)
    psi_eng = engine.system.states @ engine_state(engine, prog)
    overlap = abs(np.vdot(psi_ref, psi_eng))
    assert overlap > 1 - 1e-6
    pops = np.abs(psi_ref) ** 2 - np.abs(psi_eng) ** 2
    assert np.max(np.abs(pops)) < 1e-4
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-11


SKEW_FIELD = MagneticField(bx=2.2e-4, by=1e-4, bz=5.5e-5)   # by != 0: H is complex


@pytest.mark.parametrize("levels", [4, 8])
def test_complex_drive_operators_match_propagate(request, ground, levels):
    """With a static field along y, H and the drive operators are complex
    in the product basis.  A routed memory chevron pixel and a broker
    Ramsey pixel are their programs' bright populations.  The Ramsey
    state matches ``propagate`` as in ``test_propagate_matches_engine``.
    The memory pixel's 30 MHz broker_m1 readout pulse carries the
    engine's own substep error (8e-4, as with real operators), so it
    matches the converged propagation as in
    ``test_routed_chevron_pixel_matches_converged_propagation``."""
    if levels == 8:
        request.getfixturevalue("eight_levels")
    engine = dyn._Engine(ground, SKEW_FIELD)
    assert np.iscomplexobj(engine.vx) and np.iscomplexobj(engine.vz)
    f_memory, t_memory = engine.transition_frequency("memory"), engine.pi_time("memory", AX, AZ)
    chevron = rabi_map(ground, SKEW_FIELD, AX, AZ, [f_memory], [t_memory], transition="memory")
    prog = routed_program(engine, "memory", [DriveSegment(f_memory, AX, AZ, 0.0, t_memory)])
    pixel = engine.bright_population(engine_state(engine, prog))
    assert abs(chevron.signal[0, 0] - pixel) < 1e-12
    psi = propagate(engine.h0, ground, prog, timestep=1.0 / (128 * f_memory))
    reference = engine.bright_population(engine.system.states.conj().T @ psi)
    assert abs(chevron.signal[0, 0] - reference) < 2e-3

    f_broker, delay = engine.transition_frequency("broker") + 2e6, 0.4137e-6
    half = 0.5 * engine.pi_time("broker", AX, AZ)
    fringe = ramsey_map(ground, SKEW_FIELD, AX, AZ, [f_broker], [delay], transition="broker",
                        pi_half_s=half)
    prog = routed_program(engine, "broker", [DriveSegment(f_broker, AX, AZ, 0.0, half),
                                             DriveSegment(0.0, 0.0, 0.0, 0.0, delay),
                                             DriveSegment(f_broker, AX, AZ, 0.0, half)])
    psi_eng = engine_state(engine, prog)
    assert abs(fringe.signal[0, 0] - engine.bright_population(psi_eng)) < 1e-12
    psi_ref, psi_eng = propagate(engine.h0, ground, prog), engine.system.states @ psi_eng
    assert abs(np.vdot(psi_ref, psi_eng)) > 1 - 1e-6
    assert np.max(np.abs(np.abs(psi_ref) ** 2 - np.abs(psi_eng) ** 2)) < 1e-4
    report = engine.report()
    assert report[f"sweeps_{levels}_levels"] == 2 and report["sweeps_real_operators"] == 0


def test_rephased_basis_runs_complex_operators_to_the_same_pixels(ground, field):
    """Rephasing the static eigenstates, |a> -> exp(i phi_a) |a>, makes the
    reference's real drive operators complex and moves no population, so
    a chevron and a Ramsey map on the complex path give the real path's
    pixels to rounding: the complex and the real eigh round the levels'
    1e12 Hz energies apart, which moves pixels by about 1e-10."""
    real, rephased = dyn._Engine(ground, field), dyn._Engine(ground, field)
    gauge = np.exp(1j * np.arange(8))
    rephased.vx, rephased.vz = (gauge.conj()[:, None] * v * gauge for v in (real.vx, real.vz))
    freqs, times = F_MEMORY + np.array([-1.3e6, 0.4e6]), np.array([37e-9, 151e-9, 263e-9])
    delays = np.array([0.0, 0.4137e-6, 1.2931e-6])
    specs = [dyn.ExperimentSpec("rabi", "memory", freqs, times),
             dyn.ExperimentSpec("ramsey", "memory", freqs + 2e6, delays, 0.5 * PI_S["memory"])]
    signals = [e.signals(AX, AZ, specs) for e in (real, rephased)]
    for a, b in zip(*signals):
        assert np.max(np.abs(a - b)) < 1e-9
    assert real.report()["sweeps_real_operators"] == 1
    assert rephased.report()["sweeps_real_operators"] == 0


def test_propagate_timestep_guard(ground, engine):
    prog = PulseProgram((DriveSegment(F_BROKER, AX, AZ, 0.0, 10e-9),))
    required = 1.0 / (20.0 * F_BROKER)
    with pytest.raises(ValueError, match=f"{required:g}"):
        propagate(engine.h0, ground, prog, timestep=10 * required)


def test_gap_is_exact_free_evolution(ground, engine):
    """A gap is exact free evolution, in ``propagate`` from any start and
    in the engine, whose rows start in 0B0M."""
    dur = 123.4e-9
    gap = (DriveSegment(0.0, 0.0, 0.0, 0.0, dur),)
    for label in ("lower.1B0M", "lower.0B0M"):
        prog = PulseProgram(gap, init_label=label)
        idx = engine.system.index(label)
        phase = np.exp(-2j * math.pi * engine.energies[idx] * dur)
        expected = engine.system.states[:, idx] * phase
        assert np.allclose(propagate(engine.h0, ground, prog), expected, atol=1e-14)
        if label == "lower.0B0M":
            psi = engine.system.states @ engine_state(engine, prog)
            assert np.allclose(psi, expected, atol=1e-14)


@pytest.mark.parametrize("freqs, phase, periods, eigensystems", [
    ((2.0 ** 29, 2.0 ** 25), 0.0, (40, 3), 1),        # two frequencies, one drive
])
def test_tables_match_propagation_over_whole_periods(ground, field, eight_levels, freqs,
                                                     phase, periods, eigensystems):
    """A pulse of whole periods from t = 0 is a power of its tone's period
    propagator, so it matches ``propagate`` at the table's own substeps:
    the tones of one call share the eigensystem of their substep
    Hamiltonians whatever their frequency.  Powers of two make the
    periods and substeps exact.  All pulses run in one call, so the
    shared eigensystems are counted within it.  The states are compared
    on all 8 levels, so the lower-branch reduction is refused: it drops
    upper-branch amplitudes of order 1e-6."""
    engine = dyn._Engine(ground, field)
    programs, references = [], []
    for freq, n in zip(freqs, periods):
        period = 1.0 / freq
        programs.append((1, [([freq], 0, n * period)]))
        prog = PulseProgram((DriveSegment(freq, AX, AZ, phase, n * period),))
        references.append(propagate(engine.h0, ground, prog,
                                    timestep=period / dyn._SUBSTEPS))
    for psi, reference in zip(engine._sweep(AX, AZ, programs), references):
        assert np.max(np.abs(engine.system.states @ psi - reference)) < 1e-9
    assert engine.report()["substep_eigensystems"] == eigensystems
    assert engine.report()["tone_tables"] == len(freqs)
    assert engine.report()["sweeps_8_levels"] == 1


@pytest.mark.parametrize("levels, zero_field, drive", [
    pytest.param(4, False, (AX, AZ), id="4"),
    pytest.param(8, False, (AX, AZ), id="8"),
    pytest.param(4, True, (AX, AZ), id="4-zero-field"),
    pytest.param(8, True, (AX, AZ), id="8-zero-field"),
    pytest.param(4, False, (0.0, 0.0), id="4-zero-drive"),
    pytest.param(8, True, (0.0, 0.0), id="8-zero-field-zero-drive"),
])
def test_tables_are_sequential_substep_products(ground, field, levels, zero_field, drive):
    """Every P[k] (k = 0 .. _SUBSTEPS) and theta of ``_tables`` for three
    tones of one drive against products of the substep exponentials built
    here one tone and one substep at a time.  A table holds P[k] Q, so Q is its row k = 0,
    and the period propagator P[_SUBSTEPS] is Q diag(exp(i theta))
    Q^dagger.  The drive is sampled as the engine samples it, so that the
    static phases E dt (up to 6e3 rad a substep) agree to the bit.  At
    zero field the period propagator has degenerate eigenphases, driven
    or not, where Q must still be unitary; with no drive it is diagonal."""
    engine = dyn._Engine(ground, MagneticField(0.0, 0.0, 0.0) if zero_field else field)
    v = (drive[0] * engine.vx + drive[1] * engine.vz)[:levels, :levels]
    energies = engine.energies[:levels]
    freqs = np.array([F_BROKER, F_MEMORY, F_BROKER_M1])
    pq, theta = engine._tables(freqs, (energies, v))
    assert engine.report()["substep_eigensystems"] == 1
    assert engine.report()["tone_tables"] == len(freqs)
    c = np.cos(2.0 * math.pi * (np.arange(dyn._SUBSTEPS) + 0.5) / dyn._SUBSTEPS)
    for freq, table, angles in zip(freqs, pq, theta):
        dt = 1.0 / freq / dyn._SUBSTEPS
        q = table[0]
        assert np.max(np.abs(q.conj().T @ q - np.eye(levels))) < 1e-12
        p = np.eye(levels)
        for k in range(dyn._SUBSTEPS + 1):
            assert np.max(np.abs(table[k] @ q.conj().T - p)) < 1e-12
            if k < dyn._SUBSTEPS:
                vals, vecs = np.linalg.eigh(np.diag(energies) + c[k] * v)
                p = (vecs * np.exp(-2j * math.pi * vals * dt)) @ vecs.conj().T @ p
        assert np.max(np.abs(q @ np.diag(np.exp(1j * angles)) @ q.conj().T - p)) < 1e-12


@pytest.mark.parametrize("transition", list(dyn.TRANSITIONS))
def test_engine_report_counts_what_a_chevron_builds(ground, field, transition):
    """A routed chevron builds one substep eigensystem for all its tones,
    one table per drive frequency and routing tone, and end steps, on
    the four lower-branch levels: at the reference the upper branch is
    out of the drive's reach by orders of magnitude."""
    engine = dyn._Engine(ground, field)
    freqs = engine.transition_frequency(transition) + np.array([-2.1e6, -0.3e6, 1.7e6])
    engine.signals(AX, AZ, [dyn.ExperimentSpec("rabi", transition, freqs, [40e-9, 150e-9])])
    report = engine.report()
    routing = set(sum(dyn.ROUTING[transition], ()))
    assert report["substep_eigensystems"] == 1
    assert report["tone_tables"] == len(freqs) + len(routing)
    assert report["end_steps"] > 0
    assert (report["sweeps_4_levels"], report["sweeps_8_levels"]) == (1, 0)
    assert report["sweeps_real_operators"] == 1
    assert 0.0 < report["max_leakage_4_levels"] < 1e-3 * dyn._LEAKAGE_MAX
    assert 0.0 < report["max_shift_spread_cycles_4_levels"] < 0.1 * dyn._SHIFT_SPREAD_MAX
    assert report["max_leakage_8_levels"] == report["max_shift_spread_cycles_8_levels"] == 0.0
    report["tone_tables"] = 0
    assert engine.report()["tone_tables"] == len(freqs) + len(routing)


def test_small_orbital_gap_keeps_8_levels(request, ground, field):
    """With a 10 GHz spin-orbit splitting and no strain the drive shifts
    the lower levels apart by tens of Hz, so a broker chevron keeps all 8
    levels: its pixels are bitwise those with the reduction refused."""
    near = dataclasses.replace(ground, lambda_soc=1e10, strain_egx=0.0)
    engine = dyn._Engine(near, field)
    freqs = engine.transition_frequency("broker") + np.array([-2.1e6, 0.0, 1.7e6])
    times = np.array([40e-9, 150e-9, 400e-9])
    signal = engine.signals(AX, AZ, [dyn.ExperimentSpec("rabi", "broker", freqs, times)])[0]
    report = engine.report()
    assert (report["sweeps_4_levels"], report["sweeps_8_levels"]) == (0, 1)
    assert report["max_shift_spread_cycles_8_levels"] > dyn._SHIFT_SPREAD_MAX
    request.getfixturevalue("eight_levels")
    assert rabi_map(near, field, AX, AZ, freqs, times,
                    transition="broker").signal.tobytes() == signal.tobytes()


def test_each_sweep_builds_its_own_tables(ground, field):
    """Tables live for one call: a second identical call on the same
    engine builds them again and gives bitwise the same signals."""
    engine = dyn._Engine(ground, field)
    freqs = F_MEMORY + np.array([-1.3e6, 0.0, 2.2e6])
    specs = [dyn.ExperimentSpec("rabi", "memory", freqs, [30e-9, 170e-9]),
             dyn.ExperimentSpec("ramsey", "broker", [F_BROKER], [0.0, 1e-6], 40e-9)]
    first = engine.signals(AX, AZ, specs)
    once = engine.report()
    second = engine.signals(AX, AZ, specs)
    twice = engine.report()
    assert [s.tobytes() for s in second] == [s.tobytes() for s in first]
    assert once["tone_tables"] > 0 and once["substep_eigensystems"] == 1
    for key in ("tone_tables", "substep_eigensystems"):
        assert twice[key] == 2 * once[key]


def test_rabi_map_resonant_column(ground, field, engine):
    times = np.linspace(0.0, 3 * PI_S["broker"], 61)
    sm = rabi_map(ground, field, AX, AZ, [F_BROKER], times)
    col = sm.signal[0]
    assert col[0] == pytest.approx(0.0, abs=1e-9)
    assert col.max() > 0.9
    # oscillation period ~ 2 t_pi: the first maximum sits near t_pi
    t_peak = times[np.argmax(col[:30])]
    assert t_peak == pytest.approx(PI_S["broker"], rel=0.15)


def routed_program(engine, transition, drive):
    """The measurement sequence of one map pixel around its drive segments."""
    pre, post = dyn.ROUTING[transition]
    return PulseProgram(tuple(pi_segment(engine, k) for k in pre) + tuple(drive)
                        + tuple(pi_segment(engine, k) for k in post))


@pytest.mark.parametrize("transition", list(dyn.TRANSITIONS))
def test_maps_match_engine_programs(ground, field, engine, transition):
    """Every map pixel is the bright population of its own pulse program."""
    nu0 = engine.transition_frequency(transition)
    freqs = nu0 + np.array([-1.3e6, 0.4e6])
    times = np.array([37e-9, 151e-9, 263e-9])
    chevron = rabi_map(ground, field, AX, AZ, freqs, times, transition=transition)
    for i, f in enumerate(freqs):
        for j, t in enumerate(times):
            prog = routed_program(engine, transition, [DriveSegment(f, AX, AZ, 0.0, t)])
            expected = engine.bright_population(engine_state(engine, prog))
            assert abs(chevron.signal[i, j] - expected) < 1e-12

    noise = NoiseModel(kind="quasi-static-gaussian", sigma_hz=0.2e6, samples=3)
    shifts = noise.sigma_hz * dyn._gaussian_quantiles(noise.samples)
    delays = np.array([0.0, 0.4137e-6, 1.2931e-6])   # not period-aligned
    half = 0.5 * engine.pi_time(transition, AX, AZ)
    fringe = ramsey_map(ground, field, AX, AZ, freqs + 2e6, delays, noise=noise,
                        transition=transition)
    for i, f in enumerate(freqs + 2e6):
        for j, d in enumerate(delays):
            expected = np.mean([engine.bright_population(engine_state(engine, routed_program(
                engine, transition, [DriveSegment(f + s, AX, AZ, 0.0, half),
                                     DriveSegment(0.0, 0.0, 0.0, 0.0, d),
                                     DriveSegment(f + s, AX, AZ, 0.0, half)])))
                for s in shifts])
            assert abs(fringe.signal[i, j] - expected) < 1e-12


def test_routed_chevron_pixel_matches_converged_propagation(ground, field, engine):
    """A memory chevron pixel (with its broker_m1 readout pulse) against
    ``propagate`` at 128 steps per period of the fastest tone."""
    sm = rabi_map(ground, field, AX, AZ, [F_MEMORY], [PI_S["memory"]],
                  transition="memory")
    prog = routed_program(engine, "memory",
                          [DriveSegment(F_MEMORY, AX, AZ, 0.0, PI_S["memory"])])
    psi = propagate(engine.h0, ground, prog, timestep=1.0 / (128 * F_MEMORY))
    reference = engine.bright_population(engine.system.states.conj().T @ psi)
    assert abs(sm.signal[0, 0] - reference) < 2e-3


def test_rabi_map_off_resonant_is_flat(ground, field):
    times = np.linspace(0.0, 3 * PI_S["broker"], 31)
    sm = rabi_map(ground, field, AX, AZ, [F_BROKER + 60e6], times,
                  transition="broker")
    assert sm.signal.max() < 0.05


def test_ramsey_fringe_at_detuning(ground, field):
    """Isolated nuclear transition: fringe frequency equals the drive detuning."""
    det = 3.0e6
    n_t, t_max = 161, 6e-6
    delays = np.linspace(0.0, t_max, n_t)
    sm = ramsey_map(ground, field, AX, AZ, [F_MEMORY + det], delays,
                    transition="memory")
    sig = sm.signal[0] - sm.signal[0].mean()
    freqs = np.fft.rfftfreq(n_t, t_max / (n_t - 1))
    amp = np.abs(np.fft.rfft(sig * np.hanning(n_t)))
    assert abs(freqs[np.argmax(amp)] - det) < 2 * freqs[1]
    # no beat: nothing significant away from the main lobe
    away = amp[np.abs(freqs - det) > 4 * freqs[1]]
    assert away.max() < 0.15 * amp.max()


def test_ramsey_broker_beat_comb(ground, field):
    """Electron fringe beats at the 1B-pair splitting (three-peak comb)."""
    det = 3.0e6
    n_t, t_max = 161, 6e-6
    delays = np.linspace(0.0, t_max, n_t)
    sm = ramsey_map(ground, field, AX, AZ, [F_BROKER + det], delays,
                    transition="broker")
    sig = sm.signal[0] - sm.signal[0].mean()
    freqs = np.fft.rfftfreq(n_t, t_max / (n_t - 1))
    amp = np.abs(np.fft.rfft(sig * np.hanning(n_t)))
    peaks = [i for i in range(1, len(amp) - 1)
             if amp[i] > amp[i - 1] and amp[i] >= amp[i + 1]
             and amp[i] > 0.15 * amp.max()]
    peak_freqs = freqs[peaks]
    assert len(peak_freqs) >= 2
    spacings = np.diff(peak_freqs)
    beat = spacings.mean()
    assert abs(beat - 1.45e6) < 0.3 * 1.45e6
    # the comb straddles the detuning
    assert peak_freqs.min() < det < peak_freqs.max() + freqs[1]


def test_ramsey_quasistatic_t2star(ground, field):
    """Gaussian quasi-static detuning noise: T2* = sqrt(2)/(2 pi sigma)."""
    sigma = 8.5e3
    noise = NoiseModel(kind="quasi-static-gaussian", sigma_hz=sigma, samples=41)
    delays = np.linspace(0.0, 60e-6, 41)
    sm = ramsey_map(ground, field, AX, AZ, [F_BROKER], delays, noise=noise,
                    transition="broker")
    from scipy.optimize import curve_fit

    def envelope(t, t2):
        return 0.5 + 0.5 * np.exp(-((t / t2) ** 2))

    fit, _ = curve_fit(envelope, delays, sm.signal[0], p0=[2e-5])
    assert fit[0] == pytest.approx(math.sqrt(2) / (2 * math.pi * sigma), rel=0.05)


def test_ramsey_rejects_ou_noise(ground, field):
    noise = NoiseModel(kind="ornstein-uhlenbeck", sigma_hz=1e3,
                       correlation_time_s=1e-4)
    with pytest.raises(ValueError, match="quasi-static"):
        ramsey_map(ground, field, AX, AZ, [F_BROKER], [1e-6], noise=noise)


def test_decoupling_curve_matches_path_integration():
    """The exact curve vs explicit OU paths whose phase flips sign at the
    CPMG times, for n = 0, 1 and 4."""
    sigma, tau, total = 20e3, 30e-6, 40e-6
    n_paths, n_sub = 20000, 800
    counts = np.array([0, 1, 4])
    noise = NoiseModel(kind="ornstein-uhlenbeck", sigma_hz=sigma, correlation_time_s=tau)

    # oracle: exact OU updates on a fine grid, trapezoid-rule integral; the
    # CPMG times (j + 1/2) total / n fall on grid points for these n
    rng = np.random.default_rng(17)
    h = total / n_sub
    a = math.exp(-h / tau)
    kick = sigma * math.sqrt(1.0 - a * a)
    signs = (-1.0) ** np.floor(np.outer(counts, (np.arange(n_sub) + 0.5) / n_sub) + 0.5)
    x = sigma * rng.standard_normal(n_paths)
    phase = np.zeros((counts.size, n_paths))
    for i in range(n_sub):
        x_new = a * x + kick * rng.standard_normal(n_paths)
        phase += signs[:, i, None] * (0.5 * (x + x_new) * h)
        x = x_new

    contrast = np.cos(2.0 * math.pi * phase)
    for row, n in enumerate(counts):
        exact = decoupling_scan(int(n), [total], noise).coherence[0]
        se = contrast[row].std() / math.sqrt(n_paths)
        assert abs(exact - contrast[row].mean()) < 5 * se


def test_decoupling_static_noise_limit():
    """At the default correlation time (static noise) the free curve is the
    quasi-static Gaussian decay, an echo pair refocuses fully, and
    neither warns."""
    sigma = 20e3
    noise = NoiseModel(kind="ornstein-uhlenbeck", sigma_hz=sigma)
    delays = np.linspace(0, 30e-6, 25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        free = decoupling_scan(0, delays, noise)
        echo = decoupling_scan(2, delays, noise)
    np.testing.assert_allclose(free.coherence, np.exp(-2.0 * (math.pi * sigma * delays) ** 2),
                               rtol=1e-12)
    assert np.all(echo.coherence == 1.0)


@pytest.mark.parametrize("n_pulses", [0, 2])
def test_decoupling_long_correlation_times_reach_the_static_limit(n_pulses):
    """Far beyond the total time the curve is the static-noise curve: finite,
    within 1e-8, with no warning and no overflow, up to tau = 1e300 s."""
    delays = np.linspace(0, 10e-6, 11)
    static = decoupling_scan(n_pulses, delays,
                             NoiseModel(kind="ornstein-uhlenbeck", sigma_hz=20e3)).coherence
    for tau in (1e4, 1e12, 1e160, 1e300):
        noise = NoiseModel(kind="ornstein-uhlenbeck", sigma_hz=20e3, correlation_time_s=tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coherence = decoupling_scan(n_pulses, delays, noise).coherence
        assert np.all(np.isfinite(coherence))
        np.testing.assert_allclose(coherence, static, rtol=0, atol=1e-8)


def test_decoupling_flat_curve_sets_no_t2():
    """Static noise under an echo pair refocuses at every time, so the curve
    does not decay and no stretched exponential is fit to it."""
    noise = NoiseModel(kind="ornstein-uhlenbeck", sigma_hz=20e3)
    res = decoupling_scan(2, np.linspace(0, 30e-6, 25), noise)
    assert np.all(res.coherence == 1.0)
    assert not res.fit_ok
    assert "does not decay" in res.message
    assert not math.isfinite(res.t2_s)


def test_decoupling_fit_of_a_small_decay():
    """A curve that falls below 1 by only 1e-5 fits as well as a deep one.
    At tau = 1 s the 9 times to 40 us are slow noise, where the echo
    curves are exp(-(t/T2)^3) with T2 = (3 n^2 tau / (pi sigma)^2)^(1/3)."""
    sigma, tau = 20e3, 1.0
    noise = NoiseModel(kind="ornstein-uhlenbeck", sigma_hz=sigma, correlation_time_s=tau)
    for n_pulses in (1, 2, 4):
        res = decoupling_scan(n_pulses, np.linspace(0, 40e-6, 9), noise)
        assert 0 < 1.0 - res.coherence[-1] < 1e-4
        assert res.fit_ok and res.message == ""
        assert res.stretch == pytest.approx(3.0, abs=1e-3)
        slow = (3.0 * n_pulses ** 2 * tau / (math.pi * sigma) ** 2) ** (1 / 3)
        assert res.t2_s == pytest.approx(slow, rel=1e-3)


def test_decoupling_scan_extends_coherence():
    noise = NoiseModel(kind="ornstein-uhlenbeck", sigma_hz=20e3,
                       correlation_time_s=100e-6)
    results = {}
    for n_p, t_end in ((1, 40e-6), (4, 120e-6), (16, 200e-6)):
        res = decoupling_scan(n_p, np.linspace(0, t_end, 25), noise)
        assert res.fit_ok
        assert res.coherence[0] == 1.0
        results[n_p] = res
    t1, t4, t16 = (results[n].t2_s for n in (1, 4, 16))
    assert t1 == pytest.approx(44.6e-6, rel=0.05)
    assert t4 == pytest.approx(108.4e-6, rel=0.05)
    assert t16 == pytest.approx(263.7e-6, rel=0.05)
    # slow-noise decoupling scales like n^(2/3)
    assert t4 / t1 == pytest.approx(4 ** (2 / 3), rel=0.20)
    assert t16 / t1 == pytest.approx(16 ** (2 / 3), rel=0.20)
    for res in results.values():
        assert 2.5 < res.stretch < 3.5


def test_decoupling_free_evolution_limit():
    """n = 0 with tau_c >> t reproduces the quasi-static Gaussian T2*."""
    sigma = 20e3
    noise = NoiseModel(kind="ornstein-uhlenbeck", sigma_hz=sigma,
                       correlation_time_s=1.0)
    res = decoupling_scan(0, np.linspace(0, 30e-6, 25), noise)
    assert res.fit_ok
    assert res.t2_s == pytest.approx(math.sqrt(2) / (2 * math.pi * sigma), rel=0.08)
    assert res.stretch == pytest.approx(2.0, abs=0.25)


def test_decoupling_validation():
    quasi = NoiseModel(kind="quasi-static-gaussian", sigma_hz=1e3)
    with pytest.raises(ValueError, match="Ornstein"):
        decoupling_scan(1, [1e-6], quasi)
    ou = NoiseModel(kind="ornstein-uhlenbeck", sigma_hz=1e3,
                    correlation_time_s=1e-4)
    with pytest.raises(ValueError, match="non-negative"):
        decoupling_scan(-1, [1e-6], ou)
    for delays in ([-5e-6, 1e-5, 2e-5], [1e-5, float("inf")], [float("nan")]):
        with pytest.raises(ValueError, match="total times"):
            decoupling_scan(1, delays, ou)


def test_decoupling_fit_needs_two_distinct_positive_times():
    """Fewer than two distinct positive total times, or fewer than two at
    which 0 < coherence < 1, leave the stretched exponential unfit, with a
    message and no warning; two fit exactly."""
    ou = NoiseModel(kind="ornstein-uhlenbeck", sigma_hz=20e3,
                    correlation_time_s=1e-4)
    for delays in ([0.0, 1e-5], [1e-5, 1e-5], [0.0, 0.0]):
        res = decoupling_scan(1, delays, ou)
        assert not res.fit_ok
        assert "two distinct positive total times" in res.message
        assert math.isnan(res.t2_s) and math.isnan(res.stretch)
    res = decoupling_scan(1, [0.0, 1e-5, 3e-5], ou)
    assert res.fit_ok and res.message == ""
    assert res.t2_s > 0
    # a curve that has fallen to 0 at every time but one leaves one time to fit
    fast = NoiseModel(kind="ornstein-uhlenbeck", sigma_hz=1e9)
    res = decoupling_scan(0, [0.0, 1e-12, 1e-5, 2e-5], fast)
    assert 0 < res.coherence[1] < 1 and np.all(res.coherence[2:] == 0)
    assert not res.fit_ok
    assert "two distinct positive total times" in res.message
    assert math.isnan(res.t2_s) and math.isnan(res.stretch)


def test_rb_recovers_gate_fidelity():
    for gf, expect in ((0.923, 0.924752), (0.978, 0.978030)):
        res = rb_simulate(gf, sequences_per_length=150, seed=7)
        assert res.fit_ok
        assert res.fidelity == pytest.approx(expect, abs=1e-4)
        assert abs(res.fidelity - gf) < 0.007


def test_rb_spam_insensitive():
    clean = rb_simulate(0.978, sequences_per_length=150, seed=7)
    spam = rb_simulate(0.978, sequences_per_length=150, seed=7,
                       spam=(0.92, 0.06))
    assert spam.fidelity == pytest.approx(clean.fidelity, abs=2e-4)
    # imperfection is absorbed by amplitude/offset, not the decay
    assert spam.amplitude < clean.amplitude
    assert spam.decay == pytest.approx(clean.decay, abs=2e-4)


def _rb_searched_survivals(gate_fidelity, lengths, sequences_per_length, seed):
    """Survivals of ``rb_simulate``'s sequences, drawn alike, with each
    recovery found by searching no gate, the 8 gates and the 64 gate
    pairs for the shortest one back to the bright pole."""
    rng = np.random.default_rng(seed)
    gates = dyn._rb_gates()
    candidates = np.array([np.eye(2)] + list(gates) + [b @ a for a in gates for b in gates])
    n_extra = np.array([0] + [1] * 8 + [2] * 64)
    lam = 2.0 * gate_fidelity - 1.0
    out = []
    for n in lengths:
        survivals = []
        for seq in rng.integers(0, 8, size=(sequences_per_length, n)):
            u = np.eye(2, dtype=complex)
            for g in seq:
                u = gates[g] @ u
            fid = np.abs((candidates @ u)[:, 0, 0]) ** 2
            best = int(np.argmax(fid - 1e-9 * n_extra))
            survivals.append(lam ** (n + n_extra[best]) * (fid[best] - 0.5) + 0.5)
        out.append(survivals)
    return np.array(out)


def test_rb_recovery_rule_matches_the_searched_recovery():
    """The one-gate-off-the-pole recovery is the shortest one a search
    over up to two gates finds, and the survivals agree to rounding."""
    lengths = [0, 1, 2, 3, 5, 8, 13]
    ref = _rb_searched_survivals(0.97, lengths, 60, seed=4)
    res = rb_simulate(0.97, lengths=lengths, sequences_per_length=60, seed=4)
    np.testing.assert_allclose(res.mean_survival, ref.mean(axis=1), rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.stderr, ref.std(axis=1, ddof=1) / math.sqrt(60),
                               rtol=0, atol=1e-12)


def test_rb_perfect_gates_survive_exactly():
    """Perfect gates leave every sequence at the bright pole: each mean
    survival is exactly 1 and each standard error exactly 0."""
    res = rb_simulate(1.0, sequences_per_length=40, seed=3)
    assert np.all(res.mean_survival == 1.0)
    assert np.all(res.stderr == 0.0)


def test_rb_three_lengths_fit_exactly_with_no_error():
    """Three distinct lengths fit the three-parameter decay exactly: the
    fit holds, with a NaN error and a message instead of a warning; a
    fourth point at a repeated length gives a finite error again."""
    res = rb_simulate(0.95, lengths=[1, 4, 16], sequences_per_length=5)
    assert res.fit_ok
    assert abs(res.fidelity - 0.95) < 0.02
    assert math.isnan(res.fidelity_err)
    assert "no fidelity error" in res.message
    res = rb_simulate(0.95, lengths=[1, 4, 16, 16], sequences_per_length=5)
    assert res.fit_ok and res.message == ""
    assert math.isfinite(res.fidelity_err)


def test_rb_validation():
    with pytest.raises(ValueError, match="fidelity"):
        rb_simulate(1.2)
    for lengths in ([1.5, 4.7, 16.2], [-1, 4, 16], [1, 4, float("inf")]):
        with pytest.raises(ValueError, match="whole numbers"):
            rb_simulate(0.95, lengths=lengths, sequences_per_length=5)
    # one sequence per length leaves no standard error to report
    with pytest.raises(ValueError, match="two sequences per length"):
        rb_simulate(0.95, lengths=[1, 4, 16], sequences_per_length=1)
    res = rb_simulate(0.95, lengths=[1, 4, 16, 64], sequences_per_length=30, seed=0)
    assert res.lengths.tolist() == [1, 4, 16, 64]
    assert res.mean_survival.shape == res.stderr.shape == (4,)


def test_rb_rejects_fewer_than_three_lengths():
    """The three-parameter decay cannot be fit to two distinct lengths."""
    for lengths in ([1, 8], [1, 8, 8, 1]):
        with pytest.raises(ValueError, match="three distinct lengths"):
            rb_simulate(0.95, lengths=lengths, sequences_per_length=5, seed=2)


def test_clifford_adjust():
    assert clifford_adjust(0.978) == pytest.approx(0.98646, abs=5e-6)
    assert clifford_adjust(0.923) == pytest.approx(0.952615, abs=5e-6)
    assert clifford_adjust(1.0) == 1.0
    with pytest.raises(ValueError):
        clifford_adjust(-0.1)


def test_noise_model_validation():
    with pytest.raises(ValueError, match="noise kind"):
        NoiseModel(kind="pink")
    with pytest.raises(ValueError):
        NoiseModel(sigma_hz=-1.0)
    with pytest.raises(ValueError):
        NoiseModel(samples=0)
    # a sigma under the default kind "none" would be dropped unseen
    with pytest.raises(ValueError, match="kind"):
        NoiseModel(sigma_hz=3e5)
    assert NoiseModel(sigma_hz=0.0).kind == "none"


def test_segment_and_program_validation():
    with pytest.raises(ValueError, match="non-negative"):
        DriveSegment(1e6, 1e6, 0.0, 0.0, -1e-9)
    with pytest.raises(ValueError, match="segment"):
        PulseProgram(())
    assert DriveSegment(1e6, 0.0, 0.0, 0.0, 1e-9).is_gap


def test_maps_reject_negative_times_and_non_finite_grids(ground, field):
    """A map runs no pulse backwards in time and takes no NaN or infinite
    grid value."""
    times = [0.0, 50e-9]
    with pytest.raises(ValueError, match="non-negative"):
        rabi_map(ground, field, AX, AZ, [F_BROKER], [-1e-7, 0.0])
    with pytest.raises(ValueError, match="non-negative"):
        ramsey_map(ground, field, AX, AZ, [F_BROKER], [-1e-6, 0.0])
    with pytest.raises(ValueError, match="pi_half_s"):
        ramsey_map(ground, field, AX, AZ, [F_BROKER], times, pi_half_s=-1e-8)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            rabi_map(ground, field, AX, AZ, [F_BROKER, bad], times)
        with pytest.raises(ValueError, match="finite"):
            rabi_map(ground, field, AX, AZ, [F_BROKER], [0.0, bad])
        with pytest.raises(ValueError, match="pi_half_s"):
            ramsey_map(ground, field, AX, AZ, [F_BROKER], times, pi_half_s=bad)


def test_spec_grids_are_positive_frequencies_and_distinct_values():
    """A spec drives positive frequencies only, and repeats no grid value,
    which its artifact could not be read back from."""
    times = [0.0, 50e-9]
    for freqs in ([0.0, F_BROKER], [-F_BROKER], [F_BROKER, -0.0]):
        with pytest.raises(ValueError, match="positive"):
            ExperimentSpec("rabi", "broker", freqs, times)
    with pytest.raises(ValueError, match="repeat"):
        ExperimentSpec("rabi", "broker", [F_BROKER, F_BROKER], times)
    with pytest.raises(ValueError, match="repeat"):
        ExperimentSpec("ramsey", "broker", [F_BROKER], [0.0, 1e-7, 1e-7], 40e-9)


@pytest.mark.parametrize("n", [1, 2, 12, 100])
def test_gaussian_quantiles_match_scipy(n):
    """The standard-library midpoint quantiles agree with scipy's inverse
    normal CDF within 4 ulps."""
    from scipy.special import ndtri

    reference = ndtri((np.arange(n) + 0.5) / n)
    quantiles = dyn._gaussian_quantiles(n)
    assert quantiles.shape == (n,)
    assert np.all(np.abs(quantiles - reference) <= 4 * np.spacing(np.abs(reference)))


def test_ramsey_noise_that_takes_a_tone_to_zero_is_refused(ground, field):
    """The outermost quasi-static quantile (-1.15 sigma of 4 samples) takes
    a 30 MHz tone below 0 Hz at sigma = 30 MHz, and the map is refused;
    at sigma = 20 MHz every tone stays positive."""
    noise = NoiseModel(kind="quasi-static-gaussian", sigma_hz=30e6, samples=4)
    with pytest.raises(ValueError, match="positive"):
        ramsey_map(ground, field, AX, AZ, [F_BROKER_M1], [0.0, 1e-7], noise=noise,
                   transition="broker_m1")
    noise = dataclasses.replace(noise, sigma_hz=20e6)
    assert ramsey_map(ground, field, AX, AZ, [F_BROKER_M1], [0.0, 1e-7], noise=noise,
                      transition="broker_m1").signal.shape == (1, 2)


def test_signal_map_csv_and_shape(tmp_path):
    with pytest.raises(ValueError, match="shape"):
        SignalMap(ExperimentSpec("rabi", "broker", np.arange(1.0, 4.0), np.arange(2.0)),
                  np.zeros((2, 3)))
    sm = SignalMap(ExperimentSpec("rabi", "broker", np.array([1.0, 2.0]), np.array([0.5])),
                   np.array([[0.25], [0.75]]))
    save_signal_csv(tmp_path / "map.csv", sm, {"kind": "rabi"})
    lines = (tmp_path / "map.csv").read_text().splitlines()
    assert lines == ["# kind=rabi", "freq_hz,duration_s,signal",
                     "1.0,0.5,0.25", "2.0,0.5,0.75"]
    assert float(lines[3].split(",")[2]) == 0.75
