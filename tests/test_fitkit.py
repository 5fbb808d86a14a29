"""Fit workflow: specs, problems, loss, calibration, CSV I/O, small fits."""

import dataclasses
import math
import multiprocessing
import os
import threading

import numpy as np
import pytest
import scipy.optimize

from snspin import dynamics, fitkit
from snspin.fitkit import (
    DEFAULT_FREE,
    FIT_PARAM_NAMES,
    ExperimentSpec,
    FitParams,
    FitProblem,
    calibrate_initial,
    derived_transitions,
    estimate_transition_frequency,
    fit_parameters,
    load_signal_csv,
    reference_problem,
    save_signal_csv,
    simulate_experiment,
)
from snspin.fitkit import _curriculum, _rabi_rate_read, _simulate_all

F_BROKER = 6.440462e8
F_MEMORY = 6.123066e8
F_BROKER_M1 = 3.028611e7


def small_chevron_spec(n_freq=5, n_time=10):
    freqs = tuple(F_BROKER + np.linspace(-6e6, 6e6, n_freq))
    times = tuple(np.linspace(20e-9, 620e-9, n_time))
    return ExperimentSpec("rabi", "broker", freqs, times, label="broker")


def small_problem(**kwargs):
    truth = FitParams.reference()
    spec = small_chevron_spec()
    data = simulate_experiment(truth, spec).signal
    kwargs.setdefault("initial", truth)
    return FitProblem((spec,), (data,), **kwargs)


def test_fit_params_round_trip():
    theta = FitParams.reference()
    d = dataclasses.asdict(theta)
    assert d["a_par_hz"] == 673.8e6
    assert d["lambda_soc_hz"] == 830.0e9
    vals = theta.free_values(("b_x_dc_hz", "alpha_hz"))
    assert vals.tolist() == [6.03e6, 928.4e9]
    theta2 = theta.with_free_values([6.1e6, 9.0e11], ("b_x_dc_hz", "alpha_hz"))
    assert theta2.b_x_dc_hz == 6.1e6
    assert theta2.alpha_hz == 9.0e11
    assert theta2.a_par_hz == theta.a_par_hz


def test_fit_params_to_model_matches_reference_field():
    from snspin.params import ground_defaults, reference_field

    model = FitParams.reference().to_model()
    assert model[:2] == (ground_defaults(), reference_field())
    assert model[2] == (8.92e6, 5.00e6)
    assert model[0].strain_egx == 928.4e9


def test_spec_validation():
    assert fitkit.ExperimentSpec is dynamics.ExperimentSpec
    with pytest.raises(ValueError, match="kind"):
        ExperimentSpec("hahn", "broker", (1.0,), (1.0,))
    with pytest.raises(ValueError, match="transition"):
        ExperimentSpec("rabi", "blue", (1.0,), (1.0,))
    with pytest.raises(ValueError, match="non-empty"):
        ExperimentSpec("rabi", "broker", (), (1.0,))
    with pytest.raises(ValueError, match="pi_half"):
        ExperimentSpec("ramsey", "broker", (1.0,), (1.0,))
    with pytest.raises(ValueError, match="non-negative"):
        ExperimentSpec("rabi", "broker", (1.0,), (-1e-7, 0.0))
    with pytest.raises(ValueError, match="finite"):
        ExperimentSpec("rabi", "broker", (math.nan,), (1.0,))
    with pytest.raises(ValueError, match="pi_half_s"):
        ExperimentSpec("ramsey", "broker", (1.0,), (1.0,), pi_half_s=-1e-8)
    spec = ExperimentSpec("ramsey", "memory", (1.0, 2.0), (1.0, 2.0, 3.0),
                          pi_half_s=50e-9, label="scan")
    assert spec.size == 6
    meta = spec.metadata()
    assert meta["kind"] == "ramsey"
    assert meta["transition"] == "memory"
    assert float(meta["pi_half_s"]) == 50e-9
    assert meta["label"] == "scan"


def test_simulate_experiment_delegates():
    theta = FitParams.reference()
    params, field, (ax, az) = theta.to_model()
    spec = small_chevron_spec(n_freq=3, n_time=5)
    direct = dynamics.rabi_map(params, field, ax, az, spec.freq_hz, spec.time_s,
                               transition="broker")
    via = simulate_experiment(theta, spec)
    np.testing.assert_array_equal(via.signal, direct.signal)

    rspec = ExperimentSpec("ramsey", "broker", (F_BROKER + 2e6,),
                           tuple(np.linspace(0, 2e-6, 11)), pi_half_s=61e-9)
    direct = dynamics.ramsey_map(params, field, ax, az, rspec.freq_hz,
                                 rspec.time_s, transition="broker",
                                 pi_half_s=61e-9)
    via = simulate_experiment(theta, rspec)
    np.testing.assert_array_equal(via.signal, direct.signal)


def _alternating(theta, sign):
    """``theta`` with the default free parameters moved by +-5%, alternating."""
    signs = sign * np.where(np.arange(len(DEFAULT_FREE)) % 2 == 0, 1.0, -1.0)
    return theta.with_free_values(theta.free_values(DEFAULT_FREE) * (1 + 0.05 * signs),
                                  DEFAULT_FREE)


@pytest.mark.parametrize("block_rows", [None, 37])
def test_planned_specs_equal_their_own_maps(monkeypatch, block_rows):
    """All specs of a parameter point planned and run together give each
    spec's own map bit for bit, also when a spec spans several row
    groups and a group holds rows of several specs."""
    if block_rows is not None:
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", block_rows)
    prob = reference_problem(noise_rel=0.05)
    sizes = [s.size for s in prob.specs]
    assert np.any(np.cumsum(sizes)[:-1] % dynamics._BLOCK_ROWS)
    assert block_rows is None or max(sizes) > block_rows
    truth = FitParams.reference()
    for theta in (truth, _alternating(truth, 1.0)):
        planned = _simulate_all(theta, prob.specs)
        for spec, signal in zip(prob.specs, planned):
            assert signal.tobytes() == simulate_experiment(theta, spec).signal.tobytes()


def test_lower_branch_pixels_match_the_8_level_path(request):
    """At the truth and at the +-5% start the engine propagates only the
    lower orbital branch, and every pixel of the full-size problem stays
    within 1e-8 of the 8-level propagation."""
    prob = reference_problem()
    points = (prob.initial, _alternating(prob.initial, 1.0))
    reduced = [_simulate_all(theta, prob.specs) for theta in points]
    request.getfixturevalue("eight_levels")
    for theta, maps in zip(points, reduced):
        full = _simulate_all(theta, prob.specs)
        deviation = max(np.max(np.abs(a - b)) for a, b in zip(maps, full))
        assert 0.0 < deviation < 1e-8


@pytest.mark.parametrize("block_rows", [None, 37])
def test_one_loss_plans_its_pulses_at_once(monkeypatch, block_rows):
    """One residual evaluation builds one system, its one substep
    eigensystem and each distinct tone table once, and takes the pulse
    ends of each group of rows in one stacked end-step pass; the group
    size does not change a bit of the residuals."""
    prob = reference_problem()
    theta = _alternating(FitParams.reference(), -1.0)
    expected = prob.residuals(theta)
    if block_rows is not None:
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", block_rows)
    engines = []

    class Recorded(dynamics._Engine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(dynamics, "_Engine", Recorded)
    assert prob.residuals(theta).tobytes() == expected.tobytes()
    assert len(engines) == 1
    engine = engines[0]
    tones = {f for s in prob.specs for f in s.freq_hz} | {
        engine.transition_frequency(k) for s in prob.specs
        for k in sum(dynamics.ROUTING[s.transition], ())}
    report = engine.report()
    assert report["substep_eigensystems"] == 1
    assert report["tone_tables"] == len(tones)
    rows = sum(len(s.freq_hz) * len(s.time_s) for s in prob.specs)
    assert rows == 506
    groups = 1 if block_rows is None else math.ceil(rows / block_rows)
    assert report["end_step_passes"] == groups


def test_problem_validation():
    truth = FitParams.reference()
    spec = small_chevron_spec(3, 5)
    good = simulate_experiment(truth, spec).signal
    with pytest.raises(ValueError, match="one data array per spec"):
        FitProblem((spec,), (), initial=truth)
    with pytest.raises(ValueError, match="shape"):
        FitProblem((spec,), (good.T,), initial=truth)
    with pytest.raises(ValueError, match="unknown free"):
        FitProblem((spec,), (good,), initial=truth, free=("lambda_soc_hz",))
    with pytest.raises(ValueError, match="ordered"):
        FitProblem((spec,), (good,), initial=truth,
                   bounds={"a_par_hz": (7e8, 6e8)})
    with pytest.raises(ValueError, match="outside bounds"):
        FitProblem((spec,), (good,), initial=truth,
                   bounds={"a_par_hz": (1e6, 2e6)})
    with pytest.raises(ValueError, match="unknown parameter"):
        FitProblem((spec,), (good,), initial=truth,
                   bounds={"tau_s": (0.0, 1.0)})


def test_loss_zero_at_truth_and_reorder_invariant():
    truth = FitParams.reference()
    specs = (small_chevron_spec(3, 6),
             ExperimentSpec("rabi", "memory",
                            tuple(F_MEMORY + np.linspace(-4e6, 4e6, 3)),
                            tuple(np.linspace(20e-9, 900e-9, 6))))
    data = tuple(simulate_experiment(truth, s).signal for s in specs)
    prob = FitProblem(specs, data, initial=truth)
    assert prob.loss(truth) == 0.0
    assert prob.residuals(truth).size == 36
    swapped = FitProblem(specs[::-1], data[::-1], initial=truth)
    off = truth.with_free_values([6.8e8], ("a_perp_hz",))
    assert prob.loss(off) == pytest.approx(swapped.loss(off), rel=1e-12)
    maps = prob.residual_maps(off)
    assert len(maps) == 2 and maps[0].shape == (3, 6)


def test_nuisance_rescale_absorbs_gain_and_offset():
    truth = FitParams.reference()
    spec = small_chevron_spec(3, 8)
    clean = simulate_experiment(truth, spec).signal
    prob = FitProblem((spec,), (0.8 * clean + 0.1,), initial=truth,
                      nuisance=True)
    assert prob.loss(truth) < 1e-20
    # without the nuisance pair the same data is far from the model
    bare = FitProblem((spec,), (0.8 * clean + 0.1,), initial=truth)
    assert bare.loss(truth) > 0.1


def test_nuisance_rescale_of_a_constant_map_is_the_data_mean():
    """A constant map fits by its offset alone: the data's mean.  A
    constant 0.4 map has a variance of rounding noise (3e-33), not 0."""
    data = np.array([[0.1, 0.2, 0.3]])
    for level in (0.5, 0.4):
        fitted = fitkit._nuisance_rescale(np.full((1, 3), level), data)
        assert fitted == pytest.approx(np.full((1, 3), 0.2), abs=1e-15)


def test_derived_transitions_anchors():
    trans = derived_transitions(FitParams.reference())
    assert trans["broker"] == pytest.approx(F_BROKER, rel=1e-6)
    assert trans["memory"] == pytest.approx(F_MEMORY, rel=1e-6)
    assert trans["broker_m1"] == pytest.approx(F_BROKER_M1, rel=1e-6)


def test_estimate_transition_frequency():
    truth = FitParams.reference()
    spec = small_chevron_spec(7, 10)
    data = simulate_experiment(truth, spec).signal
    f_hat = estimate_transition_frequency(spec, data)
    assert abs(f_hat - F_BROKER) < 1.5e6
    with pytest.raises(ValueError, match="shape"):
        estimate_transition_frequency(spec, data.T)
    with pytest.raises(ValueError, match="contrast"):
        estimate_transition_frequency(spec, np.zeros_like(data))


def test_calibrate_initial_passthrough():
    truth = FitParams.reference()
    rspec = ExperimentSpec("ramsey", "broker", (F_BROKER + 2e6,),
                           tuple(np.linspace(0, 2e-6, 8)), pi_half_s=61e-9)
    data = simulate_experiment(truth, rspec).signal
    prob = FitProblem((rspec,), (data,), initial=truth)
    assert calibrate_initial(prob) is truth  # no chevron to calibrate on
    chev = small_chevron_spec(3, 6)
    prob2 = FitProblem((chev,), (simulate_experiment(truth, chev).signal,),
                       initial=truth, free=("b_x_dc_hz",))
    assert calibrate_initial(prob2) is truth  # no calibratable free params


@pytest.mark.parametrize("kwargs", [{}, {"noise_rel": 0.05, "seed": 3}, {"n_time": 7}])
def test_calibration_reads_closed_forms(monkeypatch, kwargs):
    """From the +-5% start the calibration brings the hyperfine constants
    within 0.2% and the z drive within 1% without simulating a map, and
    leaves the x drive and the DC fields exactly at their start."""
    truth = FitParams.reference()
    full = reference_problem(**kwargs)
    start = _alternating(truth, 1.0)

    def no_maps(*args, **kw):
        raise AssertionError("the calibration simulated a map")

    monkeypatch.setattr(fitkit, "_simulate_all", no_maps)
    cal = calibrate_initial(FitProblem(full.specs, full.data, start))
    assert cal.a_par_hz == pytest.approx(truth.a_par_hz, rel=2e-3)
    assert cal.a_perp_hz == pytest.approx(truth.a_perp_hz, rel=2e-3)
    assert cal.b_z_ac_hz == pytest.approx(truth.b_z_ac_hz, rel=1e-2)
    for name in ("b_x_ac_hz", "b_x_dc_hz", "b_z_dc_hz", "alpha_hz"):
        assert getattr(cal, name) == getattr(start, name)


def test_calibration_from_the_mirrored_start_finds_every_chevron_line():
    """From the mirror of the +-5% start (a_par_hz 5% low, a_perp_hz 5%
    high) the 30 MHz broker_m1 line sits at 5.7 MHz: relative to its
    frequency, an error twenty times what the same MHz would be on the
    600 MHz lines.  With each line's error weighed in MHz, every chevron
    transition of the calibrated point is within 1 MHz of the truth's."""
    truth = FitParams.reference()
    full = reference_problem()
    cal = calibrate_initial(FitProblem(full.specs, full.data, _alternating(truth, -1.0)))
    expected, found = derived_transitions(truth), derived_transitions(cal)
    for spec in full.specs[:3]:
        assert abs(found[spec.transition] - expected[spec.transition]) < 1e6


def test_calibration_keeps_the_sign_of_every_parameter():
    """A Rabi rate reads the same for either sign of the z drive, so an
    unbounded calibration may land on -b_z_ac_hz (on this problem, from
    the mirrored start, at -198%).  Every calibrated parameter comes back
    within 5%, the z drive with its sign."""
    truth = FitParams.reference()
    full = reference_problem(noise_rel=0.05, seed=3)
    cal = calibrate_initial(FitProblem(full.specs, full.data, _alternating(truth, -1.0)))
    for name in fitkit._CALIBRATION_NAMES:
        assert getattr(cal, name) == pytest.approx(getattr(truth, name), rel=0.05)


@pytest.mark.parametrize("n_time", [14, 7])
def test_memory_rate_read_matches_the_engine(n_time):
    """The cosine read of the memory chevron's resonant column is within
    1% of the engine's Rabi rate, also at 7 samples over 900 ns, whose
    Nyquist frequency (3.4 MHz) is not far above the 2.3 MHz rate."""
    truth = FitParams.reference()
    params, field, (ax, az) = truth.to_model()
    prob = reference_problem(n_time=n_time)
    spec, data = prob.specs[1], prob.data[1]
    assert spec.transition == "memory"
    f_hat = estimate_transition_frequency(spec, data)
    freqs = np.asarray(spec.freq_hz)
    col = int(np.argmin(np.abs(freqs - f_hat)))
    rate = _rabi_rate_read(spec.time_s, data[col], freqs[col] - f_hat)
    expected = dynamics._Engine(params, field).rabi_rate("memory", ax, az)
    assert rate == pytest.approx(expected, rel=1e-2)


def test_rate_read_stays_below_nyquist():
    """A scan above the Nyquist frequency aliases (a 30 MHz scan read a
    4.0 MHz rate at 26 MHz): a cosine faster than the samples resolve
    reads at or below their Nyquist frequency, never at its own rate."""
    times = np.linspace(20e-9, 900e-9, 7)
    nyquist = 0.5 / (times[1] - times[0])
    assert nyquist < 3.5e6
    for w in (2.3e6, 5e6, 9e6):
        rate = _rabi_rate_read(times, np.cos(2 * math.pi * w * times), 0.0)
        assert 0.5e6 <= rate < nyquist
    # on resonance the read is the cosine's own rate
    assert _rabi_rate_read(times, np.cos(2 * math.pi * 2.3e6 * times), 0.0) == \
        pytest.approx(2.3e6, rel=1e-3)
    # off resonance the detuning comes out of the generalized rate
    assert _rabi_rate_read(times, np.cos(2 * math.pi * 2.5e6 * times), 1.0e6) == \
        pytest.approx(math.sqrt(2.5e6 ** 2 - 1.0e6 ** 2), rel=1e-3)


def test_fit_no_free_parameters():
    prob = small_problem(free=())
    res = fit_parameters(prob)
    assert res.success
    assert res.n_eval == 1
    assert res.loss == 0.0
    assert res.params is prob.initial
    assert "no free parameters" in res.message


def test_fit_rejects_zero_scale_start():
    truth = FitParams.reference()
    spec = small_chevron_spec(3, 5)
    data = simulate_experiment(truth, spec).signal
    zero = truth.with_free_values([0.0], ("b_z_dc_hz",))
    prob = FitProblem((spec,), (data,), initial=zero, free=("b_z_dc_hz",))
    with pytest.raises(ValueError, match="non-zero"):
        fit_parameters(prob)


def two_parameter_problem(**kwargs):
    """The broker chevron from b_x_ac_hz 3% high and a_par_hz 3% low."""
    truth = FitParams.reference()
    names = ("b_x_ac_hz", "a_par_hz")
    start = truth.with_free_values(truth.free_values(names) * [1.03, 0.97], names)
    return small_problem(initial=start, free=names, **kwargs)


def test_dense_ramsey_grid_keeps_one_delay_per_period():
    """400 short-Ramsey delays over 6 us are closer than the 33 ns period
    of the broker_m1 tone.  The problem still builds, with each whole
    period of the span once."""
    prob = reference_problem(n_freq=3, n_time=4, n_delay=400, n_long=10)
    (spec,) = [s for s in prob.specs if s.label == "broker_m1-ramsey"]
    counts = np.asarray(spec.time_s) * spec.freq_hz[0]
    assert np.allclose(counts, np.round(counts), rtol=0.0, atol=1e-6)
    assert np.all(np.diff(np.round(counts)) == 1)
    assert counts[0] == 0.0 and counts[-1] == np.round(6e-6 * spec.freq_hz[0])
    assert prob.data[prob.specs.index(spec)].shape == (1, len(counts))


def six_parameter_problem():
    """A small reference problem from the +-5% alternating start."""
    prob = reference_problem(n_freq=3, n_time=5, n_delay=7, n_long=9)
    return FitProblem(prob.specs, prob.data, _alternating(prob.initial, 1.0))


def test_small_fit_recovers_two_parameters():
    truth = FitParams.reference()
    prob = two_parameter_problem()
    res = fit_parameters(prob, max_eval=400)
    assert res.success
    assert res.loss < 1e-6
    assert res.params.b_x_ac_hz == pytest.approx(truth.b_x_ac_hz, rel=2e-3)
    assert res.params.a_par_hz == pytest.approx(truth.a_par_hz, rel=2e-3)
    # curvature errors exist for exactly the free names
    assert set(res.errors_rel) == {"b_x_ac_hz", "a_par_hz"}
    assert all(0 <= v < 0.05 for v in res.errors_rel.values())
    assert set(res.transitions_hz) == {"broker", "memory", "broker_m1"}
    d = dataclasses.asdict(res)
    assert d["params"]["a_par_hz"] == res.params.a_par_hz
    assert d["success"] is True


def test_fit_does_not_depend_on_seed():
    prob = two_parameter_problem()
    a = fit_parameters(prob, seed=0, max_eval=400)
    b = fit_parameters(prob, seed=7, max_eval=400)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


@pytest.fixture
def shared_list():
    """A list that the fit's forked Jacobian workers append to as well as
    the calling process (compare it through ``list()``)."""
    with multiprocessing.Manager() as manager:
        yield manager.list()


def _recorded_thetas(monkeypatch, thetas):
    """Every parameter point ``FitProblem.residuals`` is called at, in
    ``thetas``."""
    residuals = FitProblem.residuals
    monkeypatch.setattr(
        FitProblem, "residuals",
        lambda self, theta: thetas.append(theta) or residuals(self, theta))
    return thetas


def test_calibrated_candidate_costs_one_evaluation(monkeypatch, shared_list):
    """The first stage scores a calibrated candidate that differs from the
    caller's start once and, when it scores worse than that start, starts
    no descent from it.  A calibration equal to the start is not scored."""
    prob = two_parameter_problem()
    names = prob.free
    # a candidate worse than the start (one at x1.04 would score better)
    worse = prob.initial.with_free_values(prob.initial.free_values(names) * [1.04, 0.96],
                                          names)
    assert prob.loss(worse) > prob.loss(prob.initial)
    monkeypatch.setattr(fitkit, "_calibrated", lambda problem: worse)
    thetas = _recorded_thetas(monkeypatch, shared_list)
    res = fit_parameters(prob, max_eval=400)
    at_candidate = [t for t in thetas
                    if np.allclose(t.free_values(names), worse.free_values(names),
                                   rtol=1e-12, atol=0)]
    assert len(at_candidate) == 1
    assert res.n_eval == len(thetas)
    monkeypatch.setattr(fitkit, "_calibrated", lambda problem: problem.initial)
    assert fit_parameters(prob, max_eval=400).n_eval == res.n_eval - 2


@pytest.mark.parametrize("make", [two_parameter_problem, six_parameter_problem])
def test_each_stage_runs_one_descent_from_its_best_candidate(monkeypatch, make):
    """One trust-region descent per stage, the first one from the
    lower-scoring of the caller's start and its calibration."""
    prob = make()
    starts = []

    def recorded(fun, x0, **kwargs):
        if callable(kwargs.get("jac")):
            starts.append(np.array(x0))
        return least_squares(fun, x0, **kwargs)

    least_squares = scipy.optimize.least_squares
    monkeypatch.setattr(scipy.optimize, "least_squares", recorded)
    res = fit_parameters(prob, max_eval=2000)
    assert res.success
    assert len(starts) == len(_curriculum(prob))
    names, stage = prob.free, _curriculum(prob)[0]
    scale = prob.initial.free_values(names)
    cal = fitkit._calibrated(prob)
    best = min((prob.initial, cal), key=stage.loss)
    assert starts[0].tobytes() == (best.free_values(names) / scale).tobytes()


def test_refit_from_an_optimum_ends_no_higher():
    """A fit started at an earlier fit's optimum ends at or below that
    optimum's loss.  Here the refit's last stage must keep the caller's
    start as a candidate: the earlier stages lead away from it."""
    small = reference_problem(noise_rel=0.02, seed=5, n_time=7, n_delay=20, n_long=22)
    start = calibrate_initial(FitProblem(small.specs, small.data,
                                         _alternating(small.initial, 1.0)))
    first = fit_parameters(FitProblem(small.specs, small.data, start), with_errors=False)
    refit = fit_parameters(FitProblem(small.specs, small.data, first.params),
                           with_errors=False)
    assert first.success and refit.success
    assert refit.loss <= first.loss


def _round_trip(full, start):
    """``test_10``'s two calls: the calibrated start fitted to every map
    but the long fringes, then that optimum fitted to all of them."""
    cal = calibrate_initial(FitProblem(full.specs, full.data, start))
    short = [i for i, s in enumerate(full.specs) if not s.label.endswith("-long")]
    first = fit_parameters(FitProblem(tuple(full.specs[i] for i in short),
                                      tuple(full.data[i] for i in short), cal),
                           max_eval=1100, with_errors=False)
    return fit_parameters(FitProblem(full.specs, full.data, first.params),
                          max_eval=1400, with_errors=False)


def test_round_trip_from_the_mirrored_start():
    """The clean round trip from the mirrored +-5% start recovers all six
    parameters within 1%, as ``test_10`` does from its own start."""
    truth = FitParams.reference()
    final = _round_trip(reference_problem(), _alternating(truth, -1.0))
    for name in DEFAULT_FREE:
        assert getattr(final.params, name) == pytest.approx(getattr(truth, name), rel=0.01)


def test_one_fit_call_needs_its_middle_stage():
    """One fit call on the 5% noise problem of seed 3, from the calibrated
    +-5% start, recovers all six parameters within 5% at a loss no higher
    than the truth's.  Its short fringes are the middle stage of
    ``_curriculum``: the chevrons' optimum lies outside the capture range
    of the long fringes, which alone take the fit 18.9% off, to a loss of
    7.03 (the truth's is 1.27)."""
    truth = FitParams.reference()
    full = reference_problem(noise_rel=0.05, seed=3)
    cal = calibrate_initial(FitProblem(full.specs, full.data, _alternating(truth, 1.0)))
    res = fit_parameters(FitProblem(full.specs, full.data, cal), max_eval=2000,
                         with_errors=False)
    assert res.loss <= full.loss(truth)
    for name in DEFAULT_FREE:
        assert getattr(res.params, name) == pytest.approx(getattr(truth, name), rel=0.05)


def test_calibrated_candidate_is_clipped_into_bounds(monkeypatch, shared_list):
    """A calibration that lands outside the bounds gives a candidate on
    them, not the calibrated point itself."""
    truth = FitParams.reference()
    lo, hi = truth.a_par_hz * 0.96, truth.a_par_hz * 0.98
    prob = two_parameter_problem(bounds={"a_par_hz": (lo, hi)})
    cal = fitkit._calibrated(prob)
    assert cal.a_par_hz > hi
    thetas = _recorded_thetas(monkeypatch, shared_list)
    res = fit_parameters(prob, max_eval=400)
    assert any(t.a_par_hz == pytest.approx(hi, rel=1e-12)
               and t.b_x_ac_hz == pytest.approx(cal.b_x_ac_hz, rel=1e-12) for t in thetas)
    assert not any(t.a_par_hz > hi * (1 + 1e-5) for t in thetas)
    assert lo <= res.params.a_par_hz <= hi


def test_fit_respects_bounds():
    truth = FitParams.reference()
    spec = small_chevron_spec(3, 6)
    data = simulate_experiment(truth, spec).signal
    start = truth.with_free_values([truth.b_x_ac_hz * 1.03], ("b_x_ac_hz",))
    lo, hi = truth.b_x_ac_hz * 1.01, truth.b_x_ac_hz * 1.06
    prob = FitProblem((spec,), (data,), initial=start, free=("b_x_ac_hz",),
                      bounds={"b_x_ac_hz": (lo, hi)})
    res = fit_parameters(prob, max_eval=150)
    assert lo <= res.params.b_x_ac_hz <= hi
    # truth sits below the window: the fit pins the lower bound
    assert res.params.b_x_ac_hz == pytest.approx(lo, rel=1e-4)


def test_fit_budget_counts_every_evaluation(monkeypatch, shared_list):
    calls = shared_list
    residuals = FitProblem.residuals
    monkeypatch.setattr(
        FitProblem, "residuals",
        lambda self, theta: calls.append(len(self.specs)) or residuals(self, theta))
    truth = FitParams.reference()
    specs = (small_chevron_spec(3, 6),
             ExperimentSpec("ramsey", "broker", (F_BROKER + 2e6,),
                            tuple(np.linspace(0, 2e-6, 8)), pi_half_s=61e-9))
    data = tuple(simulate_experiment(truth, s).signal for s in specs)
    start = truth.with_free_values([truth.b_x_ac_hz * 1.03], ("b_x_ac_hz",))
    prob = FitProblem(specs, data, initial=start, free=("b_x_ac_hz",))
    res = fit_parameters(prob, max_eval=5)
    calls = list(calls)
    # Jacobian columns count; the budget runs out in the chevron stage,
    # which leaves the last evaluation for the full problem
    assert res.n_eval == len(calls) == 5
    assert calls == [1, 1, 1, 1, 2]
    assert not res.success
    assert "budget of 5 exhausted" in res.message
    assert res.loss == prob.loss(res.params)


@pytest.mark.parametrize("free, max_eval", [(("b_x_ac_hz",), 60), ((), 2000)])
def test_n_eval_counts_every_simulation(monkeypatch, shared_list, free, max_eval):
    """Every simulation of the problem's maps is one counted evaluation,
    the final scoring and the no-free-parameter branch included."""
    calls = shared_list
    residual_maps = FitProblem.residual_maps
    monkeypatch.setattr(
        FitProblem, "residual_maps",
        lambda self, theta: calls.append(theta) or residual_maps(self, theta))
    truth = FitParams.reference()
    start = truth.with_free_values([truth.b_x_ac_hz * 1.03], ("b_x_ac_hz",))
    prob = small_problem(initial=start, free=free)
    res = fit_parameters(prob, max_eval=max_eval)
    assert len(calls) == res.n_eval


def _seeing_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("make, workers", [(two_parameter_problem, 3),
                                           (six_parameter_problem, 11)])
def test_fit_forks_no_more_workers_than_a_jacobian_has_points(monkeypatch, make, workers):
    """On 64 CPUs a fit of n parameters asks for 2n - 1 workers, one per
    Jacobian point beyond the caller's; none is forked here, the pool
    evaluating inline."""
    _seeing_cpus(monkeypatch, 64)
    asked = []

    class Inline:
        def __init__(self, fn, n_workers):
            self.fn = fn
            asked.append(n_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def map(self, key, points):
            return [self.fn(key, p) for p in points]

    monkeypatch.setattr(fitkit, "_Pool", Inline)
    fit_parameters(make(), max_eval=20)
    assert asked == [workers]


@pytest.mark.parametrize("make, max_eval", [
    (two_parameter_problem, 400),
    (six_parameter_problem, 60),
    (six_parameter_problem, 8),  # runs out inside the first Jacobian
])
def test_fit_is_the_same_on_one_and_two_cpus(monkeypatch, shared_list, make, max_eval):
    """The Jacobian's points run in a forked worker when the process may
    use two CPUs, and the fit comes out the same bit for bit."""
    prob = make()
    residuals = FitProblem.residuals
    monkeypatch.setattr(
        FitProblem, "residuals",
        lambda self, theta: shared_list.append(os.getpid()) or residuals(self, theta))
    outcomes, pids = [], []
    for count in (1, 2):
        _seeing_cpus(monkeypatch, count)
        # as repr, since a budget that runs out leaves NaN errors
        outcomes.append(repr(dataclasses.asdict(fit_parameters(prob, max_eval=max_eval))))
        pids.append(set(shared_list))
        shared_list[:] = []
    assert outcomes[0] == outcomes[1]
    assert pids[0] == {os.getpid()}
    assert os.getpid() in pids[1] and len(pids[1]) == 2
    if max_eval == 8:
        assert "'n_eval': 8," in outcomes[0]
        assert "budget of 8 exhausted" in outcomes[0]


def test_fit_leaves_no_worker_behind(monkeypatch):
    """The fit's worker is gone when it returns, also when a residual
    evaluation in the worker raised, which reaches the caller."""
    _seeing_cpus(monkeypatch, 2)
    fit_parameters(two_parameter_problem(), max_eval=40)
    assert multiprocessing.active_children() == []
    residuals = FitProblem.residuals

    def fails_in_a_worker(self, theta):
        if multiprocessing.parent_process() is not None:
            raise ValueError("residuals failed in a worker")
        return residuals(self, theta)

    monkeypatch.setattr(FitProblem, "residuals", fails_in_a_worker)
    with pytest.raises(ValueError, match="failed in a worker"):
        fit_parameters(two_parameter_problem(), max_eval=40)
    assert multiprocessing.active_children() == []


def test_fit_raises_when_a_worker_exits_without_replying(monkeypatch):
    """A worker that dies mid-Jacobian is a RuntimeError in the caller,
    and no child outlives the fit."""
    _seeing_cpus(monkeypatch, 2)
    residuals = FitProblem.residuals

    def exits_in_a_worker(self, theta):
        if multiprocessing.parent_process() is not None:
            os._exit(3)
        return residuals(self, theta)

    monkeypatch.setattr(FitProblem, "residuals", exits_in_a_worker)
    with pytest.raises(RuntimeError):
        fit_parameters(two_parameter_problem(), max_eval=40)
    assert multiprocessing.active_children() == []


def test_fits_in_a_row_each_run_a_worker(monkeypatch, shared_list):
    """Each of two fits in one process runs a worker and leaves only the
    main thread behind, which the next fit needs to fork one again."""
    _seeing_cpus(monkeypatch, 2)
    residuals = FitProblem.residuals
    monkeypatch.setattr(
        FitProblem, "residuals",
        lambda self, theta: shared_list.append(os.getpid()) or residuals(self, theta))
    for _ in range(2):
        fit_parameters(two_parameter_problem(), max_eval=40)
        assert os.getpid() in shared_list and len(set(shared_list)) == 2
        assert threading.enumerate() == [threading.main_thread()]
        shared_list[:] = []


def test_curriculum_stages_by_delay_reach():
    prob = reference_problem(n_freq=3, n_time=5, n_delay=7, n_long=9)
    assert prob.free == DEFAULT_FREE
    assert "alpha_hz" not in prob.free
    stages = _curriculum(prob)
    assert [len(s.specs) for s in stages] == [3, 5, 8]
    assert [s.kind for s in stages[0].specs] == ["rabi"] * 3
    assert {s.label for s in stages[1].specs} == {
        "broker", "memory", "broker_m1", "broker-ramsey", "broker_m1-ramsey"}
    assert stages[-1] is prob
    assert all(s.free == prob.free and s.initial == prob.initial for s in stages)


def test_csv_round_trip(tmp_path):
    truth = FitParams.reference()
    spec = small_chevron_spec(3, 4)
    sm = simulate_experiment(truth, spec)
    path = tmp_path / "map.csv"
    save_signal_csv(path, sm, metadata=spec.metadata())
    meta, back = load_signal_csv(path)
    assert meta["kind"] == "rabi"
    assert meta["transition"] == "broker"
    np.testing.assert_array_equal(back.freq_hz, np.sort(sm.freq_hz))
    np.testing.assert_array_equal(back.duration_s, np.sort(sm.duration_s))
    np.testing.assert_array_equal(back.signal, sm.signal)


def test_csv_loader_errors(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return p

    header = "freq_hz,duration_s,signal\n"
    with pytest.raises(ValueError, match="header"):
        load_signal_csv(write("h.csv", "a,b,c\n1,2,3\n"))
    with pytest.raises(ValueError, match="line 2.*3 fields"):
        load_signal_csv(write("f.csv", header + "1,2\n"))
    with pytest.raises(ValueError, match="line 2.*non-numeric"):
        load_signal_csv(write("n.csv", header + "1,2,x\n"))
    with pytest.raises(ValueError, match="line 3.*non-finite"):
        load_signal_csv(write("i.csv", header + "1,2,3\n1,3,inf\n"))
    with pytest.raises(ValueError, match="no data rows"):
        load_signal_csv(write("e.csv", header))
    with pytest.raises(ValueError, match="grid"):
        load_signal_csv(write("g.csv", header + "1,1,0\n1,2,0\n2,1,0\n"))
    with pytest.raises(ValueError, match="duplicate"):
        load_signal_csv(
            write("d.csv", header + "1,1,0\n1,1,0.5\n1,2,0\n2,1,0\n"))
    meta, sm = load_signal_csv(
        write("ok.csv", "# kind=rabi\n" + header + "1,1,0.25\n"), transition="broker")
    assert meta == {"kind": "rabi"}
    assert sm.signal[0, 0] == 0.25


def test_reference_problem_layout():
    prob = reference_problem(n_freq=3, n_time=5, n_delay=7, n_long=9)
    assert len(prob.specs) == 8
    kinds = [s.kind for s in prob.specs]
    assert kinds == ["rabi"] * 3 + ["ramsey"] * 5
    assert prob.specs[0].size == 15
    assert prob.specs[3].size == 7
    assert prob.specs[5].size == 9
    # long-delay fringes are part of the standard input
    assert max(prob.specs[5].time_s) > 5 * max(prob.specs[3].time_s)
    # delays are period-aligned to the drive tone
    nu = prob.specs[5].freq_hz[0]
    frac = np.asarray(prob.specs[5].time_s) * nu
    assert np.allclose(frac, np.round(frac), atol=1e-6)
    assert prob.initial == FitParams.reference()
    assert prob.loss(prob.initial) == 0.0
    # noise is seeded and reproducible
    kw = dict(n_freq=3, n_time=5, n_delay=7, n_long=9)
    a = reference_problem(noise_rel=0.02, seed=9, **kw)
    b = reference_problem(noise_rel=0.02, seed=9, **kw)
    for da, db in zip(a.data, b.data):
        np.testing.assert_array_equal(da, db)
    assert a.loss(a.initial) > 0.0
