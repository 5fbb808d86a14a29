"""End-to-end checks of the published device numbers and model invariants.

Each test verifies one headline result at its quoted tolerance and is
expected to run within its stated wall-clock budget on a single core.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from snspin.params import (
    GAMMA_PHONON_1P7K,
    MagneticField,
    ManifoldParams,
    excited_defaults,
    ground_defaults,
    reference_field,
)
from snspin.spinmodel import manifold_eigensystem
from snspin.spectrum import memory_detuning, mw_transitions, optical_transitions

EPS = np.finfo(float).eps


def _timer():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


def _random_manifold(rng):
    """A coupling draw wide enough to cover both manifolds' fitted ranges."""
    return ManifoldParams(
        lambda_soc=10 ** rng.uniform(10.0, 12.7),
        upsilon_ioc=rng.uniform(-5e6, 5e6),
        a_par=rng.uniform(-1e9, 1e9),
        a_perp=rng.uniform(-1e9, 1e9),
        strain_egx=rng.uniform(-2e12, 2e12),
        strain_egy=rng.uniform(-2e12, 2e12),
    )


def test_01_zero_field_degeneracy_and_memory_invariance():
    """At B=0 the aligned pair is degenerate in every manifold, so the
    memory splitting cannot change under optical excitation."""
    elapsed = _timer()
    rng = np.random.default_rng(2026)
    b0 = MagneticField()
    previous = None
    for _ in range(10_000):
        system = manifold_eigensystem(_random_manifold(rng), b0)
        scale = float(np.abs(system.energies).max())
        for branch in ("lower", "upper"):
            gap = system.transition(f"{branch}.1B1M", f"{branch}.1B0M")
            assert abs(gap) <= 100 * EPS * scale
        if previous is not None:
            prev_system, prev_scale = previous
            shift = memory_detuning(prev_system, system)
            assert abs(shift) <= 100 * EPS * (scale + prev_scale)
        previous = (system, scale)
    assert elapsed() < 10.0


def test_02_microwave_transition_frequencies():
    """Fitted parameters reproduce the measured microwave spectrum."""
    elapsed = _timer()
    system = manifold_eigensystem(ground_defaults(), reference_field())
    table = mw_transitions(system)
    measured = {"broker": 643.3e6, "memory": 612.4e6, "broker_m1": 31.3e6}
    for key, value in measured.items():
        assert abs(table.frequency(key) - value) <= 1.5e6
    assert elapsed() < 1.0


def test_03_optical_hyperfine_splitting():
    """Opposite-sign parallel hyperfine makes the optical splitting the
    average of the two magnitudes; strain then opens the f1/f2 gap."""
    elapsed = _timer()
    ground, excited = ground_defaults(), excited_defaults()
    a_opt = 0.5 * (ground.a_par + abs(excited.a_par))
    assert a_opt == pytest.approx(452.9e6, abs=1.0)
    assert abs(a_opt - 453e6) < 1e6

    b0 = MagneticField()
    table = optical_transitions(
        manifold_eigensystem(dataclasses.replace(ground, strain_egx=0.0), b0),
        manifold_eigensystem(dataclasses.replace(excited, strain_egx=0.0), b0),
    )
    # f1 and f2 collapse onto one line separated from f0 by a_opt
    assert table.frequency("f1") == pytest.approx(table.frequency("f2"), abs=1.0)
    assert table.frequency("f1") - table.frequency("f0") == pytest.approx(
        a_opt, abs=0.5e6)

    field = reference_field()
    table = optical_transitions(manifold_eigensystem(ground, field),
                                manifold_eigensystem(excited, field))
    assert abs(table.frequency("f1") - table.frequency("f2")) == pytest.approx(
        675.9e6, abs=2e6)
    assert elapsed() < 1.0


def test_04_fidelity_formula_against_monte_carlo():
    """Closed-form excitation fidelity tracks dwell-time sampling within
    three standard errors across the (splitting x count) plane."""
    from oracles import excitation_fidelity_mc
    from snspin.optics import excitation_fidelity

    elapsed = _timer()
    tau = 6e-9
    for i, x in enumerate(np.geomspace(0.01, 1.0, 7)):
        delta = x / tau
        for j, n in enumerate((1, 3, 10, 32, 100, 316, 1000)):
            closed = excitation_fidelity(delta, tau, n)
            sampled, stderr = excitation_fidelity_mc(
                delta, tau, n, trials=10_000, seed=7 * i + j)
            assert abs(closed - sampled) <= 3.0 * max(stderr, 1e-6)
    assert elapsed() < 120.0


def test_05_excitation_budget():
    """A 10.4 kHz residual splitting still allows ~1.4 million optical
    cycles before the memory fidelity drops below 0.95."""
    from snspin.optics import max_excitations

    n_max = max_excitations(2 * math.pi * 10.4e3, 6e-9, 0.95)
    assert n_max == pytest.approx(1.37e6, rel=5e-3)
    assert abs(n_max - 1.5e6) <= 0.10 * 1.5e6


def test_06_cyclicity_versus_field():
    """f0 cycles perfectly at zero field, reaches ~130 at the working
    transverse field and degrades monotonically beyond it."""
    from snspin.optics import cyclicity

    elapsed = _timer()
    ground, excited = ground_defaults(), excited_defaults()

    def lambda_f0(field):
        return cyclicity(manifold_eigensystem(ground, field),
                         manifold_eigensystem(excited, field))

    result = lambda_f0(MagneticField())
    for label in ("lower.1B0M", "lower.1B1M"):
        row = result.branching[result.excited_labels.index(label)]
        assert 1.0 - row.max() < 1e-12
    assert math.isinf(result.lambda_f0)

    bz = reference_field().bz
    at_200ut = lambda_f0(MagneticField(bx=200e-6, bz=bz)).lambda_f0
    assert 85.0 <= at_200ut <= 180.0

    sweep = [lambda_f0(MagneticField(bx=bx, bz=bz)).lambda_f0
             for bx in np.linspace(0.0, 1e-3, 26)]
    assert all(a > b for a, b in zip(sweep, sweep[1:]))

    # full field map at figure resolution stays in budget
    for bx in np.linspace(0.0, 1e-3, 50):
        for bz_v in np.linspace(0.0, 2e-4, 50):
            lambda_f0(MagneticField(bx=bx, bz=bz_v))
    assert elapsed() < 30.0


def test_07_clifford_conversion():
    """Physical-gate fidelities map onto the quoted Clifford numbers."""
    from snspin.dynamics import clifford_adjust

    assert clifford_adjust(0.978) * 100 == pytest.approx(98.6, abs=0.1)
    assert clifford_adjust(0.923) * 100 == pytest.approx(95.2, abs=0.1)


def test_08_randomized_benchmarking_round_trip():
    """Injected physical fidelities are recovered by the RB analysis."""
    from snspin.dynamics import rb_simulate

    elapsed = _timer()
    for injected in (0.923, 0.978):
        result = rb_simulate(injected, sequences_per_length=150, seed=7)
        assert result.fit_ok
        assert abs(result.fidelity - injected) <= 0.007
    assert elapsed() < 60.0


def _fringe_peaks(signal, delays):
    """Frequencies of FFT peaks above 15% of the strongest component."""
    centered = signal - signal.mean()
    spectrum = np.abs(np.fft.rfft(centered * np.hanning(centered.size)))
    freqs = np.fft.rfftfreq(centered.size, delays[1] - delays[0])
    idx = np.where(spectrum > 0.15 * spectrum.max())[0]
    groups = np.split(idx, np.where(np.diff(idx) > 1)[0] + 1)
    return [freqs[g[np.argmax(spectrum[g])]] for g in groups]


def test_09_ramsey_beat_on_broker_transitions():
    """Both broker-flip fringes beat at the aligned-pair splitting; the
    memory fringe does not."""
    from snspin.dynamics import ramsey_map

    elapsed = _timer()
    ground = ground_defaults()
    field = reference_field()
    system = manifold_eigensystem(ground, field)
    split_1b = abs(system.transition("lower.1B1M", "lower.1B0M"))
    assert abs(split_1b - 1.4e6) <= 0.3 * 1.4e6

    table = mw_transitions(system)
    delays = np.linspace(0.0, 6e-6, 161)
    bin_hz = 1.0 / delays[-1]
    detuning = 3.0e6
    for key in ("broker", "broker_m1"):
        m = ramsey_map(ground, field, 8.92e6, 5.00e6,
                       [table.frequency(key) + detuning], delays,
                       transition=key)
        peaks = _fringe_peaks(m.signal[0], delays)
        assert len(peaks) >= 2, key
        spacing = np.mean(np.diff(peaks))
        assert abs(spacing - split_1b) <= 2 * bin_hz, key

    m = ramsey_map(ground, field, 8.92e6, 5.00e6,
                   [table.frequency("memory") + detuning], delays,
                   transition="memory")
    assert len(_fringe_peaks(m.signal[0], delays)) == 1
    assert elapsed() < 120.0


def test_10_fit_round_trip():
    """The six parameters the maps determine come back from +/-5%
    perturbed starts: within 1% on clean data and 5% at a 5% noise floor,
    at a loss no worse than the truth's.

    The strain is held at its reference value, like the spin-orbit
    splitting and the quenching factor.  In the lower orbital branch it
    enters only through the mixing angle, sin(theta) = 2 alpha / Delta,
    and the transverse couplings only as coupling x sin(theta), so a
    matching rescale of the transverse field, drive and hyperfine terms
    leaves the lower-branch Hamiltonian unchanged to first order: the
    maps fit almost exactly at a strain 7% off.  What pins the strain
    physically is the optical ground-state splitting Delta, which no
    microwave map probes.

    The descent is staged: the smooth chevrons and short fringes first
    (any point in their shallow valley pins the transition frequencies
    to well inside the long-fringe capture range), then the full set
    including the 40 us fringes.  The loss check keeps a pass from
    coming out of a wrong basin that happens to lie inside the budgets.
    """
    from snspin.fitkit import (FIT_PARAM_NAMES, FitParams, FitProblem,
                               calibrate_initial, fit_parameters,
                               reference_problem)

    elapsed = _timer()
    truth = FitParams.reference()
    free = tuple(n for n in FIT_PARAM_NAMES if n != "alpha_hz")
    signs = np.array([1, -1, 1, -1, 1, -1], dtype=float)
    start = truth.with_free_values(
        np.array(truth.free_values(free)) * (1 + 0.05 * signs), free)

    for noise_rel, budget in ((0.0, 0.01), (0.05, 0.05)):
        full = reference_problem(noise_rel=noise_rel, seed=3)
        smooth_idx = [i for i, s in enumerate(full.specs)
                      if not s.label.endswith("-long")]
        calibrated = calibrate_initial(
            FitProblem(full.specs, full.data, start, free=free))
        smooth = FitProblem(
            tuple(full.specs[i] for i in smooth_idx),
            tuple(full.data[i] for i in smooth_idx),
            calibrated, free=free)
        stage_a = fit_parameters(smooth, seed=1, max_eval=1100,
                                 with_errors=False)
        final = fit_parameters(
            FitProblem(full.specs, full.data, stage_a.params, free=free),
            seed=2, max_eval=1400, with_errors=False)
        assert final.loss <= full.loss(truth) + 1e-8, (
            f"loss above the truth's at noise {noise_rel}")
        for name in free:
            recovered = getattr(final.params, name)
            assert abs(recovered / getattr(truth, name) - 1.0) < budget, (
                f"{name} at noise {noise_rel}")
    assert elapsed() < 600.0


def test_11_coherence_formulas():
    """Closed-form dephasing matches diagonalization and shows the
    strain-compensated ridge."""
    from snspin.coherence import (coherence_map, lambda_eff, ridge_upsilon,
                                  t2_phonon)

    elapsed = _timer()
    ground = ground_defaults()

    def branch_difference(params, pair):
        system = manifold_eigensystem(params, MagneticField())
        a, b = pair
        return ((system.energy(f"upper.{b}") - system.energy(f"upper.{a}"))
                - (system.energy(f"lower.{b}") - system.energy(f"lower.{a}")))

    # memory stays branch-independent for any couplings
    rng = np.random.default_rng(11)
    for _ in range(25):
        params = _random_manifold(rng)
        assert lambda_eff(params)[1] == 0.0

    # broker formula vs full diagonalization deep in the dispersive regime
    assert ground.delta_total / ground.a_perp > 500
    lam_b, lam_m = lambda_eff(ground)
    diff_b = branch_difference(ground, ("0B0M", "1B0M"))
    assert abs(abs(diff_b) - abs(lam_b)) / abs(diff_b) < 0.10
    assert lam_m == 0.0

    # T2 limits: static dephasing and motional narrowing
    assert t2_phonon(0.1) == pytest.approx(4 * math.pi / 0.1, rel=0.01)
    assert t2_phonon(1e7) == pytest.approx(2 * GAMMA_PHONON_1P7K, rel=0.01)

    # ridge location and the resulting T2 maximum
    delta_sq = ground.lambda_soc ** 2 + 4 * ground.strain_egx ** 2
    ridge = ridge_upsilon(ground.lambda_soc, ground.a_perp, ground.strain_egx)
    assert ridge == pytest.approx(
        -ground.a_perp ** 2 * ground.lambda_soc / (4 * delta_sq), rel=1e-12)
    assert ridge * ground.lambda_soc < 0

    ups_grid = np.linspace(0.0, 3 * abs(ridge), 31)
    ups_grid[10] = abs(ridge)
    m = coherence_map(ground, ups_grid, [ground.strain_egx],
                      sign_convention="opposite")
    assert int(np.argmax(m.t2_s[:, 0])) == 10
    assert m.t2_s[10, 0] > 1e3 * m.t2_s[0, 0]
    assert elapsed() < 30.0
