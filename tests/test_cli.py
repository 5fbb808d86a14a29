"""Command-line runner: artifacts, provenance, determinism, error paths."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import snspin
from snspin import cli
from snspin.params import (
    MagneticField,
    excited_defaults,
    field_for_larmor,
    ground_defaults,
    reference_field,
)
from snspin.spinmodel import manifold_eigensystem


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run_command(tmp_path, cfg, **kwargs):
    """Write the config, run it, return (artifact path, config bytes)."""
    out = cfg.setdefault("output", str(tmp_path / "artifact.out"))
    path = write_config(tmp_path, cfg)
    written = cli.run(str(path), **kwargs)
    return written, path.read_bytes()


def load_json_artifact(path):
    with open(path) as fh:
        return json.load(fh)


def load_csv_artifact(path):
    """Split a CSV artifact into (comment dict, data lines)."""
    comments, lines = {}, []
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                comments[key] = val
            else:
                lines.append(line)
    return comments, lines


# A small config of every command and the artifact format it writes.
SMALL_CONFIGS = {
    "levels": ({"options": {"manifold": "both"}}, "json"),
    "transitions": ({}, "csv"),
    "ple": ({"options": {"detuning_hz": {"start": -1e9, "stop": 1e9,
                                         "points": 21}}}, "csv"),
    "cyclicity-map": ({"options": {"bx_t": [0.0, 2.0e-4],
                                   "bz_t": [5.537199046e-5]}}, "csv"),
    "pump": ({"options": {"line": "f2", "rabi_hz": 30e6,
                          "duration_s": 3e-6}}, "json"),
    "fidelity-budget": ({"options": {"n_list": [1, 1000]}}, "json"),
    "rabi": ({"options": {"freq_hz": {"start": 6.40e8, "stop": 6.48e8, "points": 3},
                          "duration_s": {"start": 0.0, "stop": 2.4e-7,
                                         "points": 5}}}, "csv"),
    "ramsey": ({"options": {"transition": "memory", "freq_hz": [6.143066e8],
                            "delay_s": {"start": 0.0, "stop": 2e-6, "points": 9},
                            "pi_half_s": 108e-9}}, "csv"),
    "decouple": ({"seed": 4, "options": {
        "n_pulses": 1,
        "total_time_s": {"start": 5e-6, "stop": 6e-5, "points": 6},
        "noise": {"kind": "ornstein-uhlenbeck", "sigma_hz": 2e4,
                  "correlation_time_s": 1e-4}}}, "json"),
    "rb": ({"seed": 9, "options": {"gate_fidelity": 0.9, "lengths": [1, 4, 16, 64],
                                   "sequences_per_length": 20}}, "json"),
    "coherence-map": ({"options": {"upsilon_hz": [0.0, 1.0e6],
                                   "alpha_hz": [928.4e9]}}, "csv"),
    "fit": (None, "json"),  # built by small_config: it needs a data file
}


def small_config(command, tmp_path):
    """The small config of ``command``; ``fit`` gets the tiny chevron of
    test_fit_command_round_trip, written next to the config."""
    if command != "fit":
        return dict(SMALL_CONFIGS[command][0], command=command)
    from snspin.fitkit import (ExperimentSpec, FitParams, save_signal_csv,
                               simulate_experiment)

    truth = FitParams.reference()
    spec = ExperimentSpec(
        "rabi", "broker",
        tuple(6.440462e8 + np.linspace(-6e6, 6e6, 5)),
        tuple(np.linspace(2e-8, 6.2e-7, 8)),
    )
    save_signal_csv(tmp_path / "chevron.csv", simulate_experiment(truth, spec),
                    metadata=spec.metadata())
    initial = dataclasses.asdict(truth)
    initial["b_x_ac_hz"] *= 1.02
    return {"command": "fit", "seed": 1,
            "options": {"datasets": [{"path": "chevron.csv"}], "initial": initial,
                        "free": ["b_x_ac_hz"], "max_eval": 200}}


def test_levels_matches_library(tmp_path):
    cfg = {"command": "levels", "options": {"manifold": "both"}}
    written, raw = run_command(tmp_path, cfg)
    doc = load_json_artifact(written)
    prov = doc["_provenance"]
    assert prov["config_sha256"] == hashlib.sha256(raw).hexdigest()
    assert prov["version"] == snspin.__version__
    assert prov["seed"] == 0
    for key, params in (("ground", ground_defaults()),
                        ("excited", excited_defaults())):
        expected = manifold_eigensystem(params, reference_field()).level_dict()
        assert doc[key] == {k: float(v) for k, v in expected.items()}
        assert len(doc[key]) == 8


def test_field_block_hz_equals_tesla(tmp_path):
    hz = {"command": "levels",
          "field": {"b_x_hz": 6.03e6, "b_z_hz": 1.55e6},
          "output": str(tmp_path / "hz.json")}
    tesla = {"command": "levels",
             "field": {"bx_t": field_for_larmor(6.03e6),
                       "bz_t": field_for_larmor(1.55e6)},
             "output": str(tmp_path / "t.json")}
    a = load_json_artifact(cli.run(str(write_config(tmp_path, hz, "a.json"))))
    b = load_json_artifact(cli.run(str(write_config(tmp_path, tesla, "b.json"))))
    assert a["ground"] == b["ground"]

    both = {"command": "levels", "field": {"bx_t": 1e-4, "b_x_hz": 2.8e6}}
    with pytest.raises(cli.ConfigError, match="not both"):
        cli.run(str(write_config(tmp_path, both, "c.json")))


def test_transitions_csv(tmp_path):
    cfg = {"command": "transitions"}
    written, _ = run_command(tmp_path, cfg)
    comments, lines = load_csv_artifact(written)
    assert set(comments) >= {"config_sha256", "version", "seed"}
    assert lines[0] == "from_label,to_label,frequency_hz,kind,peak_id"
    kinds = [line.split(",")[3] for line in lines[1:]]
    assert kinds.count("microwave") == 3
    assert kinds.count("optical") == 16
    rows = {line.split(",")[4]: float(line.split(",")[2])
            for line in lines[1:] if line.split(",")[3] == "microwave"}
    assert rows["broker"] == pytest.approx(644.05e6, rel=1e-3)
    assert rows["memory"] == pytest.approx(612.31e6, rel=1e-3)

    cfg = {"command": "transitions", "output": str(tmp_path / "mw.csv"),
           "options": {"include_optical": False}}
    _, mw_lines = load_csv_artifact(cli.run(str(write_config(tmp_path, cfg, "mw.json"))))
    assert mw_lines == lines[:4]


def test_ple_csv(tmp_path):
    cfg = {"command": "ple"}  # default grid spans the named lines
    written, _ = run_command(tmp_path, cfg)
    _, lines = load_csv_artifact(written)
    assert lines[0] == "detuning_hz,intensity"
    assert len(lines) == 2002
    peak = max(float(line.split(",")[1]) for line in lines[1:])
    assert peak > 0.9


def test_cyclicity_map_matches_library(tmp_path):
    """Every point of a map larger than one stacked block, with the
    bx = 0 line and B = 0 among them, is the library's one-point value."""
    from snspin.optics import _BLOCK_POINTS, cyclicity

    bx_list = np.linspace(0.0, 1e-3, 26).tolist()
    bz_list = [0.0, 5.537199046e-5, -2e-5, 1e-6, 4e-6, 2e-5, 1e-4, 2e-4, -1e-3, 3e-4]
    assert len(bx_list) * len(bz_list) > _BLOCK_POINTS
    cfg = {"command": "cyclicity-map",
           "options": {"bx_t": bx_list, "bz_t": bz_list}}
    written, _ = run_command(tmp_path, cfg)
    _, lines = load_csv_artifact(written)
    assert lines[0] == "bx_t,bz_t,lambda_f0"
    points = [(bx, bz) for bx in bx_list for bz in bz_list]
    assert len(lines) == 1 + len(points)
    for line, (bx, bz) in zip(lines[1:], points):
        ground = manifold_eigensystem(ground_defaults(), MagneticField(bx=bx, bz=bz))
        excited = manifold_eigensystem(excited_defaults(), MagneticField(bx=bx, bz=bz))
        assert float(line.split(",")[2]) == cyclicity(ground, excited).lambda_f0


def test_pump_json(tmp_path):
    cfg = {"command": "pump",
           "options": {"line": "f2", "rabi_hz": 30e6, "duration_s": 3e-6}}
    written, _ = run_command(tmp_path, cfg)
    doc = load_json_artifact(written)
    assert doc["target"] in doc["populations"]
    assert doc["tau_pol_s"] > 0
    assert doc["populations"][doc["target"]] > 0.5
    assert abs(sum(doc["steady_state"].values()) - 1.0) < 1e-6


def test_fidelity_budget_matches_library(tmp_path):
    from snspin.optics import excitation_fidelity, max_excitations

    delta = 2.0 * np.pi * 10.4e3
    cfg = {"command": "fidelity-budget",
           "options": {"delta_omega_rad_s": delta, "tau_s": 6e-9,
                       "n_list": [1, 1000], "f_min": 0.95}}
    written, _ = run_command(tmp_path, cfg)
    doc = load_json_artifact(written)
    for entry in doc["budget"]:
        assert entry["fidelity"] == excitation_fidelity(delta, 6e-9, entry["n"])
    assert doc["n_max"] == max_excitations(delta, 6e-9, 0.95)


def test_rabi_map_thin_adapter(tmp_path):
    from snspin.dynamics import rabi_map

    freq = {"start": 6.40e8, "stop": 6.48e8, "points": 3}
    dur = {"start": 0.0, "stop": 2.4e-7, "points": 5}
    cfg = {"command": "rabi",
           "options": {"freq_hz": freq, "duration_s": dur}}
    written, _ = run_command(tmp_path, cfg)
    comments, lines = load_csv_artifact(written)
    assert comments["kind"] == "rabi"
    assert comments["transition"] == "broker"  # the one the map resolved
    assert "pi_half_s" not in comments
    expected = rabi_map(
        ground_defaults(), reference_field(), 8.92e6, 5.00e6,
        np.linspace(freq["start"], freq["stop"], freq["points"]),
        np.linspace(dur["start"], dur["stop"], dur["points"]),
    )
    assert lines[0] == "freq_hz,duration_s,signal"
    assert len(lines) == 1 + 3 * 5
    # frequency outer, every number as the repr of its float
    assert lines[1:] == [f"{f!r},{t!r},{s!r}"
                         for f, row in zip(expected.freq_hz.tolist(), expected.signal.tolist())
                         for t, s in zip(expected.duration_s.tolist(), row)]
    assert float(lines[-1].split(",")[2]) == expected.signal[-1, -1]


def test_ramsey_csv(tmp_path):
    cfg = {"command": "ramsey",
           "options": {"transition": "memory",
                       "freq_hz": [6.123066e8 + 2e6],
                       "delay_s": {"start": 0.0, "stop": 2e-6, "points": 17},
                       "pi_half_s": 108e-9}}
    written, _ = run_command(tmp_path, cfg)
    comments, lines = load_csv_artifact(written)
    assert comments["kind"] == "ramsey"
    assert comments["transition"] == "memory"
    assert len(lines) == 18
    signal = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert signal.max() - signal.min() > 0.5  # detuned fringe oscillates


def test_decouple_json(tmp_path):
    cfg = {"command": "decouple", "seed": 4,
           "options": {"n_pulses": 1,
                       "total_time_s": {"start": 5e-6, "stop": 6e-5,
                                        "points": 6},
                       "noise": {"kind": "ornstein-uhlenbeck",
                                 "sigma_hz": 2e4,
                                 "correlation_time_s": 1e-4}}}
    written, _ = run_command(tmp_path, cfg)
    doc = load_json_artifact(written)
    assert doc["fit_ok"]
    assert 1e-5 < doc["t2_s"] < 1e-3
    assert len(doc["coherence"]) == 6

    missing = {"command": "decouple", "options": {"n_pulses": 1,
               "total_time_s": [1e-5]}}
    with pytest.raises(cli.ConfigError, match="noise"):
        cli.run(str(write_config(tmp_path, missing, "m.json")))


@pytest.mark.parametrize("cfg, key, spelled", [
    ({"command": "fidelity-budget", "field": {"bx_t": 0}}, "n_max", "Infinity"),
    ({"command": "pump", "options": {"line": 5e10, "rabi_hz": 30e6, "duration_s": 3e-6}},
     "tau_pol_s", "Infinity"),
    ({"command": "rb", "options": {"gate_fidelity": 0.95, "lengths": [1, 4, 16],
                                   "sequences_per_length": 5}}, "fidelity_err", "NaN"),
])
def test_json_artifact_spells_non_finite_numbers(tmp_path, cfg, key, spelled):
    """A non-finite result is a JSON string that float() reads back, never
    a bare NaN or Infinity token, which strict parsers refuse."""
    def refuse(token):
        raise ValueError(f"bare {token} in a JSON artifact")

    written, _ = run_command(tmp_path, cfg)
    doc = json.loads(Path(written).read_text(), parse_constant=refuse)
    assert doc[key] == spelled
    value = float(doc[key])
    assert math.isnan(value) if spelled == "NaN" else value == math.inf


def test_rb_json_matches_library(tmp_path):
    from snspin.dynamics import clifford_adjust, rb_simulate

    lengths = [1, 4, 16, 64]
    cfg = {"command": "rb", "seed": 5,
           "options": {"gate_fidelity": 0.978, "lengths": lengths,
                       "sequences_per_length": 40}}
    written, _ = run_command(tmp_path, cfg)
    doc = load_json_artifact(written)
    expected = rb_simulate(0.978, lengths=lengths, sequences_per_length=40,
                           seed=5)
    assert doc["fidelity"] == expected.fidelity
    assert doc["mean_survival"] == [float(x) for x in expected.mean_survival]
    assert doc["clifford_fidelity"] == clifford_adjust(expected.fidelity)


def test_coherence_map_csv(tmp_path):
    from snspin.coherence import coherence_map

    ups, alpha = [0.0, 1.0e6], [928.4e9]
    cfg = {"command": "coherence-map",
           "options": {"upsilon_hz": ups, "alpha_hz": alpha}}
    written, _ = run_command(tmp_path, cfg)
    _, lines = load_csv_artifact(written)
    assert lines[0] == "upsilon_hz,alpha_hz,t2_s"
    expected = coherence_map(ground_defaults(), ups, alpha)
    assert [float(line.split(",")[2]) for line in lines[1:]] == [
        float(t) for t in expected.t2_s[:, 0]]


def test_fit_command_round_trip(tmp_path):
    from snspin.fitkit import (FIT_PARAM_NAMES, ExperimentSpec, FitParams,
                               save_signal_csv, simulate_experiment)

    truth = FitParams.reference()
    spec = ExperimentSpec(
        "rabi", "broker",
        tuple(6.440462e8 + np.linspace(-6e6, 6e6, 5)),
        tuple(np.linspace(2e-8, 6.2e-7, 8)),
    )
    save_signal_csv(tmp_path / "chevron.csv", simulate_experiment(truth, spec),
                    metadata=spec.metadata())
    initial = dataclasses.asdict(truth)
    initial["b_x_ac_hz"] *= 1.02
    cfg = {"command": "fit", "seed": 1,
           "options": {"datasets": [{"path": "chevron.csv"}],
                       "initial": initial,
                       "free": ["b_x_ac_hz"],
                       "max_eval": 200}}
    written, _ = run_command(tmp_path, cfg)
    doc = load_json_artifact(written)
    assert doc["success"]
    assert doc["loss"] < 1e-8
    assert doc["params"]["b_x_ac_hz"] == pytest.approx(truth.b_x_ac_hz, rel=1e-3)
    assert set(doc["params"]) >= set(FIT_PARAM_NAMES)

    # missing kind/transition metadata is a config error, not a crash
    save_signal_csv(tmp_path / "bare.csv", simulate_experiment(truth, spec))
    bad = dict(cfg, options=dict(cfg["options"], datasets=[{"path": "bare.csv"}]))
    bad["output"] = str(tmp_path / "bad.json")
    with pytest.raises(cli.ConfigError, match="kind and transition"):
        cli.run(str(write_config(tmp_path, bad, "bad.json")))


@pytest.mark.parametrize("command, axis", [("rabi", "duration_s"), ("ramsey", "delay_s")])
def test_map_artifact_fits_back_from_its_path_alone(tmp_path, command, axis):
    """A map run with no transition, and a Ramsey map with no pi_half_s, name
    the transition and pi/2 they ran with, so a fit needs only the path."""
    from snspin.dynamics import _Engine
    from snspin.fitkit import FitParams

    cfg = {"command": command, "output": str(tmp_path / "map.csv"),
           "options": {"freq_hz": [6.17e8],
                       axis: {"start": 0, "stop": 2e-7, "points": 5}}}
    run_command(tmp_path, cfg)
    comments, _ = load_csv_artifact(tmp_path / "map.csv")
    assert comments["kind"] == command
    assert comments["transition"] == "memory"  # nearest to 617 MHz
    if command == "ramsey":
        pi_time = _Engine(ground_defaults(), reference_field()).pi_time("memory", 8.92e6, 5.00e6)
        assert float(comments["pi_half_s"]) == 0.5 * pi_time
    else:
        assert "pi_half_s" not in comments
    fit = {"command": "fit", "output": str(tmp_path / "fit-out.json"),
           "options": {"datasets": [{"path": "map.csv"}],
                       "initial": dataclasses.asdict(FitParams.reference()), "max_eval": 3}}
    doc = load_json_artifact(cli.run(str(write_config(tmp_path, fit, "fit.json"))))
    assert math.isfinite(doc["loss"])


@pytest.mark.parametrize("command, axis", [("rabi", "duration_s"), ("ramsey", "delay_s")])
def test_map_artifact_reads_back_to_its_spec(tmp_path, command, axis):
    """A map run with no transition, and a Ramsey map with no pi_half_s,
    read back to the spec the map ran: its kind, transition, pi/2 (bit for
    bit) and grids."""
    from snspin.dynamics import rabi_map, ramsey_map
    from snspin.fitkit import load_signal_csv

    freqs, times = [6.16e8, 6.17e8], np.linspace(0.0, 2e-7, 5)
    cfg = {"command": command, "options": {"freq_hz": freqs, axis: times.tolist()}}
    written, _ = run_command(tmp_path, cfg)
    _, m = load_signal_csv(written)
    library = {"rabi": rabi_map, "ramsey": ramsey_map}[command]
    expected = library(ground_defaults(), reference_field(), 8.92e6, 5.00e6,
                       freqs, times).spec
    assert (m.spec.kind, m.spec.transition) == (command, "memory")
    assert (m.spec.pi_half_s is None) == (command == "rabi")
    assert m.spec == expected  # pi/2 bit for bit, and the grids
    np.testing.assert_array_equal(m.freq_hz, freqs)
    np.testing.assert_array_equal(m.duration_s, times)


def test_fit_reads_the_header_label(tmp_path, monkeypatch):
    """A dataset's kind, transition, pi_half_s and label come from its
    block, else from the CSV header."""
    from snspin import fitkit

    spec = fitkit.ExperimentSpec("ramsey", "broker", (6.44e8,), (0.0, 1e-7),
                                 pi_half_s=5e-8, label="chevron")
    fitkit.save_signal_csv(tmp_path / "map.csv", fitkit.simulate_experiment(
        fitkit.FitParams.reference(), spec), metadata=spec.metadata())
    header = {"kind": "ramsey", "transition": "broker", "pi_half_s": 5e-8,
              "label": "chevron"}
    read = []

    class Stop(Exception):
        pass

    def capture(problem, **kwargs):
        read.extend(problem.specs)
        raise Stop

    monkeypatch.setattr(fitkit, "fit_parameters", capture)
    for block in ({}, {"kind": "rabi"}, {"transition": "memory"}, {"pi_half_s": 6e-8},
                  {"label": "own"}):
        cfg = {"command": "fit", "output": str(tmp_path / "fit-out.json"),
               "options": {"datasets": [{"path": "map.csv", **block}],
                           "initial": dataclasses.asdict(fitkit.FitParams.reference())}}
        with pytest.raises(Stop):
            cli.run(str(write_config(tmp_path, cfg, "fit.json")))
        got = read.pop()
        assert {key: getattr(got, key) for key in header} == {**header, **block}
        assert got.freq_hz == spec.freq_hz and got.time_s == spec.time_s


@pytest.mark.parametrize("name, text, message", [
    ("absent.csv", None, "No such file"),
    ("bad.csv", "# kind=rabi\n# transition=broker\nfreq_hz,duration_s,signal\n1,2,x\n",
     "line 4: non-numeric"),
])
def test_unreadable_dataset_is_config_error(tmp_path, capsys, name, text, message):
    """A dataset file the fit cannot open or parse is a config error at
    its block (exit 2), like a header that lacks the kind."""
    from snspin.fitkit import FitParams

    if text is not None:
        (tmp_path / name).write_text(text)
    cfg = {"command": "fit", "output": str(tmp_path / "fit-out.json"),
           "options": {"datasets": [{"path": name}],
                       "initial": dataclasses.asdict(FitParams.reference())}}
    assert cli.main(["--config", str(write_config(tmp_path, cfg, "fit.json"))]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config"
    assert err["path"] == "options.datasets[0]"
    assert name in err["message"] and message in err["message"]


@pytest.mark.parametrize("command", list(SMALL_CONFIGS))
def test_rerun_is_byte_identical(tmp_path, command):
    cfg = small_config(command, tmp_path)
    first, _ = run_command(tmp_path, cfg)
    blob = Path(first).read_bytes()
    path = tmp_path / "run.json"
    again = cli.run(str(path), out_override=str(tmp_path / "again.json"))
    assert Path(again).read_bytes() == blob


def test_seed_override_changes_result(tmp_path):
    cfg = {"command": "rb", "seed": 9, "output": str(tmp_path / "a.json"),
           "options": {"gate_fidelity": 0.9, "lengths": [1, 4, 16, 64],
                       "sequences_per_length": 20}}
    path = write_config(tmp_path, cfg)
    base = load_json_artifact(cli.run(str(path)))
    other = load_json_artifact(
        cli.run(str(path), out_override=str(tmp_path / "b.json"),
                seed_override=10))
    assert base["_provenance"]["seed"] == 9
    assert other["_provenance"]["seed"] == 10
    assert base["mean_survival"] != other["mean_survival"]


@pytest.mark.parametrize("command", list(SMALL_CONFIGS))
def test_default_output_and_env_dir(tmp_path, monkeypatch, command):
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path))
    cfg = small_config(command, tmp_path)  # no "output" key
    written = cli.run(str(write_config(tmp_path, cfg)))
    ext = SMALL_CONFIGS[command][1]
    assert written == str(tmp_path / f"{command}.{ext}")
    if ext == "json":
        assert "_provenance" in load_json_artifact(written)
    else:
        comments, lines = load_csv_artifact(written)
        assert set(comments) >= {"config_sha256", "version", "seed"}
        assert len(lines) >= 2 and "," in lines[0]

    # the unknown-command error lists exactly the commands tested here
    unknown = write_config(tmp_path, {"command": "teleport"}, "u.json")
    with pytest.raises(cli.ConfigError) as err:
        cli.run(str(unknown))
    listed = str(err.value).split("expected one of ")[1].split(", ")
    assert sorted(listed) == sorted(SMALL_CONFIGS)


def test_main_exit_codes_and_error_json(tmp_path, capsys):
    # config errors -> exit 2 with machine-readable JSON on stderr
    bad = write_config(tmp_path, {"seed": 1})  # no command
    assert cli.main(["--config", str(bad)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"
    assert err["error"]["path"] == "command"

    unknown = write_config(tmp_path, {"command": "teleport"}, "u.json")
    assert cli.main(["--config", str(unknown)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "teleport" in err["error"]["message"]

    assert cli.main(["--config", str(tmp_path / "absent.json")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "cannot read config" in err["error"]["message"]

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(["--config", str(garbled)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "not valid JSON" in err["error"]["message"]

    # library ValueError -> exit 1 with a runtime error record: quasi-static
    # noise of 30 MHz takes the 30 MHz broker_m1 tone below 0 Hz
    runtime = write_config(
        tmp_path,
        {"command": "ramsey", "output": str(tmp_path / "x.csv"),
         "options": {"transition": "broker_m1", "freq_hz": [3.028611e7],
                     "delay_s": [0.0, 1e-7],
                     "noise": {"kind": "quasi-static-gaussian", "sigma_hz": 30e6,
                               "samples": 4}}},
        "r.json")
    assert cli.main(["--config", str(runtime)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "runtime"
    assert "positive" in err["error"]["message"]

    # a negative seed is refused, in the config (exit 2) and on the command line
    rb = {"command": "rb", "seed": -1, "output": str(tmp_path / "s.json"),
          "options": {"gate_fidelity": 0.9, "lengths": [1, 4, 16],
                      "sequences_per_length": 2}}
    assert cli.main(["--config", str(write_config(tmp_path, rb, "seed.json"))]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["path"] == "seed"
    rb["seed"] = 1
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--config", str(write_config(tmp_path, rb, "seed.json")), "--seed", "-1"])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [
    ("rb", "sequence_per_length"),
    ("coherence-map", "temperature_k"),
    ("decouple", "transition"),
])
def test_unknown_option_key_rejected(tmp_path, command, key):
    cfg = small_config(command, tmp_path)
    cfg["options"] = dict(cfg["options"], **{key: 1})
    with pytest.raises(cli.ConfigError) as err:
        cli.run(str(write_config(tmp_path, cfg)))
    assert err.value.path == f"options.{key}"


@pytest.mark.parametrize("command, key, value, path", [
    ("rb", "options.spam", 0.9, "options.spam"),
    ("ple", "options.detuning_hz", 5, "options.detuning_hz"),
    ("levels", "field", 5, "field"),
    ("pump", "options.line", [1], "options.line"),
    ("fidelity-budget", "options.n_list", 5, "options.n_list"),
    ("fit", "options.datasets", ["x.csv"], "options.datasets[0]"),
    ("fit", "options.initial", 5, "options.initial"),
    ("fit", "options.bounds", {"b_x_ac_hz": 5}, "options.bounds.b_x_ac_hz"),
    ("rabi", "options.transition", "zeta", "options.transition"),
    ("fit", "options.max_eval", 1.5, "options.max_eval"),
    ("rb", "options.sequences_per_length", 1.5, "options.sequences_per_length"),
    ("fidelity-budget", "options.n_list", [1.7, 2.2], "options.n_list[0]"),
    ("ple", "options.detuning_hz", {"start": -1e9, "stop": 1e9, "points": True},
     "options.detuning_hz.points"),
    ("decouple", "options.n_pulses", 1.5, "options.n_pulses"),
    ("decouple", "options.noise", {"kind": "ornstein-uhlenbeck", "sigma_hz": 2e4,
                                   "correlation_time_s": 1e-4, "samples": 2.5},
     "options.noise.samples"),
    ("rb", "seed", 9.5, "seed"),
    ("coherence-map", "options.sign_convention", [1], "options.sign_convention"),
    ("fidelity-budget", "options.n_list", [-3], "options.n_list[0]"),
    ("decouple", "options.noise", {"kind": "ornstein-uhlenbeck", "sigma_hz": True,
                                   "correlation_time_s": 1e-4}, "options.noise.sigma_hz"),
    ("decouple", "options.noise", {"kind": "ornstein-uhlenbeck", "sigma_hz": 2e4,
                                   "correlation_time_s": 0}, "options.noise"),
    ("rabi", "options.duration_s", {"start": -1e-7, "stop": 2.4e-7, "points": 5},
     "options.duration_s"),
    ("ramsey", "options.delay_s", {"start": -1e-6, "stop": 2e-6, "points": 9},
     "options.delay_s"),
    ("ramsey", "options.pi_half_s", -1e-8, "options.pi_half_s"),
    ("rabi", "options.freq_hz", [6.44e8, float("nan")], "options.freq_hz"),
    ("transitions", "options.include_optical", "false", "options.include_optical"),
    ("transitions", "options.include_optical", 0, "options.include_optical"),
    ("transitions", "options.include_optical", None, "options.include_optical"),
    ("fit", "options.nuisance", "false", "options.nuisance"),
    ("fit", "options.nuisance", 1, "options.nuisance"),
    ("fit", "options.datasets", [{"path": "chevron.csv", "transiton": "memory"}],
     "options.datasets[0].transiton"),
    ("fit", "options.datasets", [{"path": "chevron.csv", "transition": ["memory"]}],
     "options.datasets[0].transition"),
    ("fit", "options.datasets", [{"path": "chevron.csv", "pi_half_s": True}],
     "options.datasets[0].pi_half_s"),
    ("transitions", "options.zpl_hz", None, "options.zpl_hz"),
    ("ple", "options.linewidth_hz", None, "options.linewidth_hz"),
    ("fidelity-budget", "options.tau_s", None, "options.tau_s"),
    ("fidelity-budget", "options.f_min", None, "options.f_min"),
    ("pump", "options.duration_s", None, "options.duration_s"),
    ("rabi", "options.amplitude_x_hz", None, "options.amplitude_x_hz"),
    ("ramsey", "options.pi_half_s", None, "options.pi_half_s"),
    ("levels", "options", None, "options"),
    ("ramsey", "options.noise", {"kind": "quasi-static-gaussian", "sigma": 5e5},
     "options.noise.sigma"),
    ("levels", "field", {"bx_t": None}, "field.bx_t"),
    ("levels", "ground", dict(dataclasses.asdict(ground_defaults()), a_par=True), "ground.a_par"),
    ("decouple", "options.total_time_s", [-5e-6, 1e-5, 2e-5], "options.total_time_s"),
    ("rb", "options.lengths", [1.5, 4, 16], "options.lengths[0]"),
    ("levels", "feild", {"bx_t": 1e-3}, "feild"),
    ("decouple", "ground", 5, "ground"),
    ("cyclicity-map", "field", 5, "field"),
    ("transitions", "options.zpl_hz", float("nan"), "options.zpl_hz"),
    ("fidelity-budget", "options.delta_omega_rad_s", float("inf"),
     "options.delta_omega_rad_s"),
    ("levels", "ground", dict(dataclasses.asdict(ground_defaults()), a_par=float("inf")), "ground.a_par"),
    pytest.param("transitions", "options.zpl_hz", 10 ** 400, "options.zpl_hz",
                 id="transitions-options.zpl_hz-huge-integer"),
    pytest.param("levels", "seed", 10 ** 400, "seed", id="levels-seed-huge-integer"),
    ("rb", "options.sequences_per_length", 1, "options.sequences_per_length"),
    ("ramsey", "options.noise", {"kind": "quasi-static-gaussian", "sigma_hz": 5e5,
                                 "correlation_time_s": 1e-4},
     "options.noise.correlation_time_s"),
    ("ramsey", "options.noise", {"kind": "ornstein-uhlenbeck", "sigma_hz": 5e5},
     "options.noise.kind"),
    ("decouple", "options.noise", {"kind": "quasi-static-gaussian", "sigma_hz": 2e4},
     "options.noise.kind"),
    ("pump", "options.line", "other", "options.line"),
    ("pump", "options.line", "f3", "options.line"),
    # a map grid that fit cannot read back (a repeat), or a tone at or below 0 Hz
    ("rabi", "options.freq_hz", [6.44e8, 6.44e8], "options.freq_hz"),
    ("rabi", "options.freq_hz", [0.0, 6.44e8], "options.freq_hz"),
    ("rabi", "options.freq_hz", {"start": -6.44e8, "stop": 6.44e8, "points": 3},
     "options.freq_hz"),
    ("rabi", "options.duration_s", [0.0, 1e-7, 1e-7], "options.duration_s"),
    ("ramsey", "options.delay_s", {"start": 1e-7, "stop": 1e-7, "points": 3},
     "options.delay_s"),
    ("ramsey", "options.freq_hz", [6.143066e8, 6.143066e8], "options.freq_hz"),
    # a noise sigma with no kind to carry it, and a negative lifetime
    pytest.param("ramsey", "options.noise", {"sigma_hz": 3e5, "samples": 12}, "options.noise",
                 id="ramsey-options.noise-sigma-without-kind"),
    pytest.param("decouple", "options.noise", {"sigma_hz": 2e4}, "options.noise",
                 id="decouple-options.noise-sigma-without-kind"),
    ("fidelity-budget", "options.tau_s", -1, "options.tau_s"),
    # a value out of the range the library accepts
    ("pump", "options.lifetime_s", -6e-9, "options.lifetime_s"),
    ("pump", "options.rabi_hz", -30e6, "options.rabi_hz"),
    ("pump", "options.duration_s", 0, "options.duration_s"),
    ("ple", "options.linewidth_hz", -1e8, "options.linewidth_hz"),
    ("rb", "options.gate_fidelity", 1.5, "options.gate_fidelity"),
    ("rb", "options.gate_fidelity", -0.1, "options.gate_fidelity"),
    ("rb", "options.lengths", [1, 1, 4], "options.lengths"),
    ("fidelity-budget", "options.f_min", 1.5, "options.f_min"),
])
def test_malformed_value_is_config_error(tmp_path, capsys, command, key, value, path):
    """A value of the wrong type or an unknown name is a config error at
    its path (exit 2), not a Python exception out of main."""
    cfg = small_config(command, tmp_path)
    cfg["output"] = str(tmp_path / "out")
    if key.startswith("options."):
        cfg["options"] = dict(cfg.get("options", {}), **{key[len("options."):]: value})
    else:
        cfg[key] = value
    assert cli.main(["--config", str(write_config(tmp_path, cfg))]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config"
    assert err["path"] == path


def test_main_success_prints_path(tmp_path, capsys):
    out = tmp_path / "levels.json"
    cfg = write_config(tmp_path, {"command": "levels"})
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out)
    assert out.exists()


def test_console_entry_point(tmp_path):
    out = tmp_path / "levels.json"
    cfg = write_config(tmp_path, {"command": "levels"})
    src = str(Path(snspin.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "snspin.cli",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(out)
    assert "_provenance" in load_json_artifact(out)



# Runs ``cli.main`` on its argv and reports, on stderr, whether numpy was
# loaded at import and when ``run`` starts, and the BLAS variables then.
_THREAD_PROBE = """
import json, os, sys
from snspin import cli

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
seen = {"numpy_at_import": "numpy" in sys.modules}
real_run = cli.run

def spy(*args, **kwargs):
    seen["numpy_at_run"] = "numpy" in sys.modules
    seen["env"] = {v: os.environ.get(v) for v in BLAS_VARS}
    return real_run(*args, **kwargs)

cli.run = spy
seen["code"] = cli.main(sys.argv[1:])
sys.stderr.write(json.dumps(seen) + "\\n")
"""


def test_threads_flag_reaches_blas_before_numpy_loads(tmp_path):
    cfg = write_config(tmp_path, {"command": "levels"})
    src = str(Path(snspin.__file__).resolve().parent.parent)
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {"PATH": "", "PYTHONPATH": src} | {v: "1" for v in blas}
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE, "--config", str(cfg),
         "--out", str(tmp_path / "levels.json"), "--threads", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    seen = json.loads(proc.stderr.strip().splitlines()[-1])
    assert seen["code"] == 0
    assert not seen["numpy_at_import"] and not seen["numpy_at_run"]
    assert seen["env"] == {v: "2" for v in blas}


_IMPORT_PROBE = """
import importlib, json, pkgutil, sys
import snspin

def loaded(*roots):
    return sorted(m for m in sys.modules if m.partition(".")[0] in roots)

names = [info.name for info in pkgutil.iter_modules(snspin.__path__)]
for name in names:
    importlib.import_module(f"snspin.{name}")
seen = {"submodules": names,
        "at_import": loaded("scipy", "multiprocessing", "concurrent"), "runs": []}
from snspin import cli
for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
    seen["runs"].append([cli.main(["--config", config, "--out", out]), loaded("scipy")])
sys.stderr.write(json.dumps(seen) + "\\n")
"""


def test_imports_and_zero_field_commands_load_no_scipy(tmp_path):
    """Every submodule imports scipy and the fit's process pool only inside
    the functions that call them, so importing them all loads none of
    these, and the commands that call no scipy routine never load it."""
    configs = {
        "levels": {},
        "cyclicity-map": {"bx_t": {"start": 0.0, "stop": 1e-3, "points": 3},
                          "bz_t": {"start": 0.0, "stop": 2e-4, "points": 3}},
        "coherence-map": {"upsilon_hz": {"start": 0.0, "stop": 2e5, "points": 3},
                          "alpha_hz": {"start": 0.0, "stop": 1.5e12, "points": 3}},
        "decouple": {"n_pulses": 2, "total_time_s": [1e-5, 2e-5, 4e-5],
                     "noise": {"kind": "ornstein-uhlenbeck", "sigma_hz": 2e4,
                               "correlation_time_s": 1e-4}},
    }
    argv = []
    for command, options in configs.items():
        cfg = write_config(tmp_path, {"command": command, "options": options},
                           f"{command}.json")
        argv += [str(cfg), str(tmp_path / f"{command}.out")]
    src = str(Path(snspin.__file__).resolve().parent.parent)
    env = {"PATH": "", "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    seen = json.loads(proc.stderr.strip().splitlines()[-1])
    assert {"cli", "dynamics", "fitkit", "optics", "spectrum"} <= set(seen["submodules"])
    assert seen["at_import"] == []
    assert seen["runs"] == [[0, []]] * len(configs)


def test_map_commands_load_no_scipy(tmp_path):
    """The map engine calls nothing outside numpy and the standard library,
    so ``rabi`` and ``ramsey`` load no scipy: at the reference field, on
    all 8 levels, on complex drive operators, at zero field, and with
    quasi-static noise."""
    chevron = {"transition": "broker", "freq_hz": [6.40e8, 6.44e8, 6.48e8],
               "duration_s": {"start": 0.0, "stop": 2.4e-7, "points": 5}}
    configs = {
        "rabi": {"options": chevron},
        "rabi-8-levels": {"ground": dict(dataclasses.asdict(ground_defaults()),
                                         lambda_soc=1e10, a_par=673.8e6, a_perp=670.95e6),
                          "options": dict(chevron, freq_hz=[3.45e8, 3.494e8, 3.54e8])},
        "rabi-complex": {"field": {"bx_t": 2.2e-4, "by_t": 1e-4, "bz_t": 5.5e-5},
                         "options": chevron},
        "rabi-zero-field": {"field": {"bx_t": 0.0, "by_t": 0.0, "bz_t": 0.0},
                            "options": chevron},
        "ramsey": {"options": {"freq_hz": [6.17e8], "delay_s": [0.0, 1e-7, 2e-7],
                               "noise": {"kind": "quasi-static-gaussian",
                                         "sigma_hz": 3e5, "samples": 12}}},
    }
    argv = []
    for name, cfg in configs.items():
        cfg = write_config(tmp_path, dict(cfg, command=name.partition("-")[0]),
                           f"{name}.json")
        argv += [str(cfg), str(tmp_path / f"{name}.csv")]
    src = str(Path(snspin.__file__).resolve().parent.parent)
    env = {"PATH": "", "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    seen = json.loads(proc.stderr.strip().splitlines()[-1])
    assert seen["runs"] == [[0, []]] * len(configs)


def test_every_export_resolves():
    """Each public name loads through the package's lazy ``__getattr__``, so
    a name deleted from its submodule cannot linger in the export table."""
    listed = dir(snspin)
    for name in snspin.__all__:
        if name != "__version__":
            assert snspin.__getattr__(name) is getattr(snspin, name)
        assert name in listed
