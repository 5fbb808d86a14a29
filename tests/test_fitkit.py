"""Fit workflow: specs, problems, loss, calibration, CSV I/O, small fits."""

import math

import numpy as np
import pytest

from snspin import dynamics
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
from snspin.fitkit import _curriculum

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
    d = theta.to_dict()
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
    with pytest.raises(ValueError, match="kind"):
        ExperimentSpec("hahn", "broker", (1.0,), (1.0,))
    with pytest.raises(ValueError, match="transition"):
        ExperimentSpec("rabi", "blue", (1.0,), (1.0,))
    with pytest.raises(ValueError, match="non-empty"):
        ExperimentSpec("rabi", "broker", (), (1.0,))
    with pytest.raises(ValueError, match="pi_half"):
        ExperimentSpec("ramsey", "broker", (1.0,), (1.0,))
    spec = ExperimentSpec("ramsey", "memory", (1.0, 2.0), (1.0,) * 3,
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


def test_fit_no_free_parameters():
    prob = small_problem(free=())
    res = fit_parameters(prob)
    assert res.success
    assert res.n_eval == 1
    assert res.loss == 0.0
    assert res.params is prob.initial
    assert "no free parameters" in res.message
    assert res.acceptance_log == ((1, 0.0),)


def test_fit_rejects_zero_scale_start():
    truth = FitParams.reference()
    spec = small_chevron_spec(3, 5)
    data = simulate_experiment(truth, spec).signal
    zero = truth.with_free_values([0.0], ("b_z_dc_hz",))
    prob = FitProblem((spec,), (data,), initial=zero, free=("b_z_dc_hz",))
    with pytest.raises(ValueError, match="non-zero"):
        fit_parameters(prob)


def test_small_fit_recovers_two_parameters():
    truth = FitParams.reference()
    spec = small_chevron_spec()
    data = simulate_experiment(truth, spec).signal
    start = truth.with_free_values(
        [truth.b_x_ac_hz * 1.03, truth.a_par_hz * 0.97],
        ("b_x_ac_hz", "a_par_hz"))
    prob = FitProblem((spec,), (data,), initial=start,
                      free=("b_x_ac_hz", "a_par_hz"))
    res = fit_parameters(prob, max_eval=400)
    assert res.success
    assert res.loss < 1e-6
    assert res.params.b_x_ac_hz == pytest.approx(truth.b_x_ac_hz, rel=2e-3)
    assert res.params.a_par_hz == pytest.approx(truth.a_par_hz, rel=2e-3)
    # curvature errors exist for exactly the free names
    assert set(res.errors_rel) == {"b_x_ac_hz", "a_par_hz"}
    assert all(0 <= v < 0.05 for v in res.errors_rel.values())
    # the acceptance log is monotone in both fields
    evals = [i for i, _ in res.acceptance_log]
    losses = [v for _, v in res.acceptance_log]
    assert evals == sorted(evals)
    assert all(a >= b for a, b in zip(losses, losses[1:]))
    assert res.n_eval >= evals[-1]
    assert set(res.transitions_hz) == {"broker", "memory", "broker_m1"}
    d = res.to_dict()
    assert d["params"]["a_par_hz"] == res.params.a_par_hz
    assert d["success"] is True


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


def test_fit_budget_counts_every_evaluation(monkeypatch):
    calls = []
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
    # Jacobian columns count; the budget runs out in the chevron stage,
    # which leaves the last evaluation for the full problem
    assert res.n_eval == len(calls) == 5
    assert calls == [1, 1, 1, 1, 2]
    assert not res.success
    assert "budget of 5 exhausted" in res.message
    assert res.acceptance_log == ((5, res.loss),)
    assert res.loss == prob.loss(res.params)


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
        write("ok.csv", "# kind=rabi\n" + header + "1,1,0.25\n"))
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
