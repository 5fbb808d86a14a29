"""Command-line surface: one JSON config in, one artifact out.

Every command is a thin adapter over the library modules; the config
file carries the command name, parameter blocks, and command options,
so a run is fully archivable.  Outputs are deterministic for a given
config and seed, and every artifact embeds a provenance header (config
hash and package version, no timestamps) so reruns are byte-identical.

Usage: snspin --config run.json [--out path] [--seed N] [--threads N]

Config layout::

    {
      "command": "rabi",
      "seed": 1,
      "output": "rabi.csv",
      "ground":  { ... ManifoldParams fields, Hz ... },
      "excited": { ... },
      "field":   {"bx_t": 2.2e-4} or {"b_x_hz": 6.03e6},
      "options": { ... per-command options ... }
    }

Grids are {"start": lo, "stop": hi, "points": n} blocks.  Unset
parameter blocks fall back to the package's fitted defaults.

Each command accepts only the option keys its handler reads and rejects
any other; a ``fit`` dataset block likewise takes only ``path``,
``kind``, ``transition``, ``pi_half_s`` and ``label``.  Switches such as
``include_optical`` and ``nuisance`` take JSON ``true`` or ``false``
only.  ``decouple`` models ideal instantaneous pulses against pure
dephasing, so it reads only ``options.noise``, ``options.n_pulses`` and
``options.total_time_s``: no parameter block, field or transition.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

ENV_OUT_DIR = "SNSPIN_OUT_DIR"


class ConfigError(Exception):
    """Config schema violation; ``path`` names the offending entry."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


def _get(cfg: dict, path: str, default=None, required: bool = False):
    node = cfg
    walked = []
    for part in path.split("."):
        walked.append(part)
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing required entry", ".".join(walked))
            return default
        node = node[part]
    return node


def _float(val, path: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"expected a number, got {val!r}", path)
    return float(val)


def _number(cfg: dict, path: str, default=None, required: bool = False) -> float:
    val = _get(cfg, path, default, required)
    return None if val is None else _float(val, path)


def _int(val, path: str, minimum: int = 0) -> int:
    """A count or seed: a whole number of at least ``minimum`` (a float
    with no fractional part counts)."""
    number = _float(val, path)
    if not number.is_integer() or number < minimum:
        raise ConfigError(f"expected a whole number >= {minimum}, got {val!r}", path)
    return int(val)


def _integer(cfg: dict, path: str, default=None, required: bool = False,
             minimum: int = 0) -> int:
    val = _get(cfg, path, default, required)
    return None if val is None else _int(val, path, minimum)


def _positive(cfg: dict, path: str) -> int:
    return _integer(cfg, path, minimum=1)


def _numbers(cfg: dict, path: str, count: int | None = None, default=None,
             read=_float) -> list:
    """The non-empty list at ``path`` (else ``default``), each entry read
    by ``read`` (as a float by default)."""
    val = _get(cfg, path, default)
    if not isinstance(val, list) or not val or count not in (None, len(val)):
        raise ConfigError(f"expected a list of {count or 'one or more'} numbers", path)
    return [read(x, f"{path}[{i}]") for i, x in enumerate(val)]


def _flag(cfg: dict, path: str, default: bool) -> bool:
    """The JSON boolean at ``path`` (else ``default``); nothing else
    stands in for one."""
    val = _get(cfg, path, default)
    if not isinstance(val, bool):
        raise ConfigError(f"expected true or false, got {val!r}", path)
    return val


def _choice(*allowed):
    """A reader of an option that must be one of ``allowed``."""
    def read(cfg: dict, path: str):
        val = _get(cfg, path)
        if val not in allowed:
            raise ConfigError(f"expected one of {', '.join(allowed)}, got {val!r}", path)
        return val
    return read


def _grid(cfg: dict, path: str, required: bool = True, times: bool = False):
    """The grid at ``path``: a list or a start/stop/points block of
    finite values, which must also be non-negative when they are
    ``times``."""
    import numpy as np

    block = _get(cfg, path, required=required)
    if block is None:
        return None
    if isinstance(block, list):
        grid = np.asarray(_numbers(cfg, path))
    elif not isinstance(block, dict):
        raise ConfigError("expected a grid list or a start/stop/points object", path)
    else:
        for key in ("start", "stop", "points"):
            if key not in block:
                raise ConfigError(f"grid needs start/stop/points", f"{path}.{key}")
        n = _int(block["points"], f"{path}.points", minimum=1)
        grid = np.linspace(_number(cfg, f"{path}.start"), _number(cfg, f"{path}.stop"), n)
    if not np.all(np.isfinite(grid)) or (times and np.any(grid < 0)):
        raise ConfigError("expected finite " + ("non-negative times" if times else "values"),
                          path)
    return grid


def _manifold(cfg: dict, key: str):
    """The ``ground`` or ``excited`` parameter block, else its defaults."""
    from .params import ManifoldParams, excited_defaults, ground_defaults

    block = _get(cfg, key)
    if block is None:
        return {"ground": ground_defaults, "excited": excited_defaults}[key]()
    if not isinstance(block, dict):
        raise ConfigError("expected a parameter object", key)
    try:
        return ManifoldParams.from_dict(block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), key)


def _eigensystem(cfg: dict, key: str, field):
    """Labeled eigensystem of the ``key`` parameter block at ``field``."""
    from .spinmodel import manifold_eigensystem

    return manifold_eigensystem(_manifold(cfg, key), field)


def _field(cfg: dict):
    from .params import MagneticField, field_for_larmor, reference_field

    block = _get(cfg, "field")
    if block is None:
        return reference_field()
    if not isinstance(block, dict):
        raise ConfigError("expected a field object", "field")
    components = {}
    for axis in ("x", "y", "z"):
        tesla_key, hz_key = f"b{axis}_t", f"b_{axis}_hz"
        if tesla_key in block and hz_key in block:
            raise ConfigError(f"give either {tesla_key} or {hz_key}, not both",
                              f"field.{tesla_key}")
        if tesla_key in block:
            components[f"b{axis}"] = _number(cfg, f"field.{tesla_key}")
        elif hz_key in block:
            components[f"b{axis}"] = field_for_larmor(_number(cfg, f"field.{hz_key}"))
    unknown = set(block) - {f"b{a}_t" for a in "xyz"} - {f"b_{a}_hz" for a in "xyz"}
    if unknown:
        raise ConfigError(f"unknown field keys {sorted(unknown)}", "field")
    return MagneticField(**components)


def _noise(cfg: dict, path: str):
    from .dynamics import NoiseModel

    block = _get(cfg, path)
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ConfigError("expected a noise object", path)
    readers = {"kind": _get, "sigma_hz": _number, "correlation_time_s": _number,
               "samples": _positive}
    try:
        # keys left out take NoiseModel's defaults
        return NoiseModel(**{k: read(cfg, f"{path}.{k}")
                             for k, read in readers.items() if k in block})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), path)


def _given(cfg: dict, readers: dict) -> dict:
    """Each option named in ``readers`` that the config gives, read by its
    reader; the options left out take the library function's defaults."""
    return {name: read(cfg, f"options.{name}") for name, read in readers.items()
            if _get(cfg, f"options.{name}") is not None}


def _plain(value):
    """A result as JSON-ready values: dataclasses and dicts field by field,
    numpy arrays to lists and numpy scalars to Python numbers."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value.tolist() if hasattr(value, "tolist") else value


# --- command handlers --------------------------------------------------------
# Each returns (payload, flavor): a dict for "json", rows for "csv", or
# (rows, header metadata) for "signal-csv".

def _cmd_levels(cfg, seed):
    field = _field(cfg)
    which = _get(cfg, "options.manifold", "ground")
    out = {key: _eigensystem(cfg, key, field).level_dict()
           for key in ("ground", "excited") if which in (key, "both")}
    if not out:
        raise ConfigError("manifold must be ground, excited, or both",
                          "options.manifold")
    return out, "json"


def _cmd_transitions(cfg, seed):
    from .spectrum import mw_transitions, optical_transitions

    field = _field(cfg)
    ground = _eigensystem(cfg, "ground", field)
    rows = mw_transitions(ground).csv_rows()
    if _flag(cfg, "options.include_optical", True):
        excited = _eigensystem(cfg, "excited", field)
        zpl = _number(cfg, "options.zpl_hz", 0.0)
        rows.extend(optical_transitions(ground, excited, zpl=zpl).csv_rows()[1:])
    return rows, "csv"


def _cmd_ple(cfg, seed):
    from .params import OPTICAL_LINEWIDTH_HZ
    from .spectrum import optical_transitions, ple_spectrum

    field = _field(cfg)
    ground = _eigensystem(cfg, "ground", field)
    excited = _eigensystem(cfg, "excited", field)
    table = optical_transitions(ground, excited, zpl=_number(cfg, "options.zpl_hz", 0.0))
    trace = ple_spectrum(
        table,
        linewidth=_number(cfg, "options.linewidth_hz", OPTICAL_LINEWIDTH_HZ),
        grid=_grid(cfg, "options.detuning_hz", required=False),
    )
    return trace.csv_rows(), "csv"


def _cmd_cyclicity_map(cfg, seed):
    import numpy as np
    from .optics import lambda_f0_map

    gp = _manifold(cfg, "ground")
    ep = _manifold(cfg, "excited")
    bx, bz = (axis.ravel() for axis in np.meshgrid(
        _grid(cfg, "options.bx_t"), _grid(cfg, "options.bz_t"), indexing="ij"))
    rows = [("bx_t", "bz_t", "lambda_f0")]
    rows += [(repr(float(x)), repr(float(z)), repr(float(lam)))
             for x, z, lam in zip(bx, bz, lambda_f0_map(gp, ep, bx, bz))]
    return rows, "csv"


def _cmd_pump(cfg, seed):
    from .params import OPTICAL_LINEWIDTH_HZ
    from .optics import pump_dynamics

    field = _field(cfg)
    ground = _eigensystem(cfg, "ground", field)
    excited = _eigensystem(cfg, "excited", field)
    line = _get(cfg, "options.line", "f2")
    if not isinstance(line, str):
        line = _number(cfg, "options.line")
    result = pump_dynamics(
        ground, excited, pump_line=line,
        rabi_hz=_number(cfg, "options.rabi_hz", required=True),
        linewidth_hz=_number(cfg, "options.linewidth_hz", OPTICAL_LINEWIDTH_HZ),
        duration_s=_number(cfg, "options.duration_s", 10e-6),
        **_given(cfg, {"lifetime_s": _number}),
    )
    return _plain(result), "json"


def _cmd_fidelity_budget(cfg, seed):
    import numpy as np
    from .params import LIFETIME_S
    from .spectrum import memory_detuning
    from .optics import excitation_fidelity, max_excitations

    tau = _number(cfg, "options.tau_s", LIFETIME_S)
    delta = _number(cfg, "options.delta_omega_rad_s")
    if delta is None:
        field = _field(cfg)
        ground = _eigensystem(cfg, "ground", field)
        excited = _eigensystem(cfg, "excited", field)
        delta = 2.0 * np.pi * memory_detuning(ground, excited)
    every_n = np.unique(np.round(np.geomspace(1, 1e7, 29))).tolist()
    ns = _numbers(cfg, "options.n_list", default=every_n, read=_int)
    f_min = _number(cfg, "options.f_min", 0.95)
    return {
        "delta_omega_rad_s": float(delta),
        "tau_s": float(tau),
        "budget": [
            {"n": n, "fidelity": float(excitation_fidelity(delta, tau, n))}
            for n in ns
        ],
        "f_min": float(f_min),
        "n_max": float(max_excitations(delta, tau, f_min)),
    }, "json"


def _map_common(cfg, kind):
    """Model, drive, transition and CSV header of a ``rabi`` or ``ramsey`` map;
    the drive defaults to the reference device's."""
    from .dynamics import TRANSITIONS
    from .fitkit import FitParams

    params = _manifold(cfg, "ground")
    field = _field(cfg)
    reference = FitParams.reference()
    ax = _number(cfg, "options.amplitude_x_hz", reference.b_x_ac_hz)
    az = _number(cfg, "options.amplitude_z_hz", reference.b_z_ac_hz)
    transition = _get(cfg, "options.transition")
    if transition not in (None, *TRANSITIONS):
        raise ConfigError(f"unknown transition {transition!r}", "options.transition")
    meta = {"kind": kind}
    if transition:
        meta["transition"] = transition
    return params, field, ax, az, transition, meta


def _cmd_rabi(cfg, seed):
    from .dynamics import rabi_map

    params, field, ax, az, transition, meta = _map_common(cfg, "rabi")
    m = rabi_map(params, field, ax, az,
                 _grid(cfg, "options.freq_hz"), _grid(cfg, "options.duration_s", times=True),
                 transition=transition)
    return (m.csv_rows(), meta), "signal-csv"


def _cmd_ramsey(cfg, seed):
    from .dynamics import ramsey_map

    params, field, ax, az, transition, meta = _map_common(cfg, "ramsey")
    pi_half = _number(cfg, "options.pi_half_s")
    if pi_half is not None and not 0.0 <= pi_half < float("inf"):
        raise ConfigError(f"expected a finite non-negative time, got {pi_half!r}",
                          "options.pi_half_s")
    m = ramsey_map(params, field, ax, az,
                   _grid(cfg, "options.freq_hz"), _grid(cfg, "options.delay_s", times=True),
                   noise=_noise(cfg, "options.noise"),
                   transition=transition, pi_half_s=pi_half)
    if pi_half is not None:
        meta["pi_half_s"] = repr(float(pi_half))
    return (m.csv_rows(), meta), "signal-csv"


def _cmd_decouple(cfg, seed):
    from .dynamics import decoupling_scan

    noise = _noise(cfg, "options.noise")
    if noise is None:
        raise ConfigError("decouple needs an ornstein-uhlenbeck noise block",
                          "options.noise")
    result = decoupling_scan(
        n_pulses=_integer(cfg, "options.n_pulses", required=True),
        delay_grid=_grid(cfg, "options.total_time_s"),
        noise=noise, seed=seed,
    )
    return _plain(result), "json"


def _cmd_rb(cfg, seed):
    from .dynamics import rb_simulate, clifford_adjust

    result = rb_simulate(
        gate_fidelity=_number(cfg, "options.gate_fidelity", required=True),
        seed=seed,
        **_given(cfg, {"lengths": _numbers, "sequences_per_length": _positive,
                       "spam": lambda cfg, path: _numbers(cfg, path, 2)}),
    )
    out = _plain(result)
    if result.fit_ok:
        out["clifford_fidelity"] = clifford_adjust(result.fidelity)
    return out, "json"


def _cmd_coherence_map(cfg, seed):
    from .coherence import SIGN_CONVENTIONS, coherence_map

    m = coherence_map(
        _manifold(cfg, "ground"),
        _grid(cfg, "options.upsilon_hz"), _grid(cfg, "options.alpha_hz"),
        **_given(cfg, {"gamma_phonon": _number,
                       "sign_convention": _choice(*SIGN_CONVENTIONS)}),
    )
    return m.csv_rows(), "csv"


_DATASET_KEYS = ("path", "kind", "transition", "pi_half_s", "label")


def _cmd_fit(cfg, seed):
    from .fitkit import (
        DEFAULT_FREE, FitParams, ExperimentSpec, FitProblem,
        fit_parameters, load_signal_csv,
    )

    blocks = _get(cfg, "options.datasets", required=True)
    if not isinstance(blocks, list) or not blocks:
        raise ConfigError("datasets must be a non-empty list", "options.datasets")
    specs, data = [], []
    base = os.path.dirname(os.path.abspath(cfg["_config_path"]))
    for i, block in enumerate(blocks):
        if not isinstance(block, dict):
            raise ConfigError("expected a dataset object", f"options.datasets[{i}]")
        unknown = sorted(set(block) - set(_DATASET_KEYS))
        if unknown:
            raise ConfigError(f"unknown dataset keys {unknown}; expected some of "
                              f"{', '.join(_DATASET_KEYS)}",
                              f"options.datasets[{i}].{unknown[0]}")
        for key in ("kind", "transition", "label"):
            if not isinstance(block.get(key, ""), str):
                raise ConfigError("expected a string", f"options.datasets[{i}].{key}")
        if "pi_half_s" in block:
            _float(block["pi_half_s"], f"options.datasets[{i}].pi_half_s")
        path = block.get("path")
        if not isinstance(path, str) or not path:
            raise ConfigError("dataset needs a csv path", f"options.datasets[{i}].path")
        if not os.path.isabs(path):
            path = os.path.join(base, path)
        meta, m = load_signal_csv(path)
        kind = block.get("kind", meta.get("kind"))
        transition = block.get("transition", meta.get("transition"))
        pi_half = block.get("pi_half_s", meta.get("pi_half_s"))
        if kind is None or transition is None:
            raise ConfigError(
                "dataset needs kind and transition (in the block or the csv header)",
                f"options.datasets[{i}]",
            )
        try:
            spec = ExperimentSpec(
                kind=kind, transition=transition,
                freq_hz=tuple(float(f) for f in m.freq_hz),
                time_s=tuple(float(t) for t in m.duration_s),
                pi_half_s=None if pi_half is None else float(pi_half),
                label=block.get("label", ""),
            )
        except ValueError as exc:
            raise ConfigError(str(exc), f"options.datasets[{i}]")
        specs.append(spec)
        data.append(m.signal)

    initial_block = _get(cfg, "options.initial", required=True)
    if not isinstance(initial_block, dict):
        raise ConfigError("expected a parameter object", "options.initial")
    try:
        initial = FitParams(**{k: _float(v, f"options.initial.{k}")
                               for k, v in initial_block.items()})
    except TypeError as exc:
        raise ConfigError(str(exc), "options.initial")
    free = _get(cfg, "options.free", list(DEFAULT_FREE))
    if not isinstance(free, list) or not all(isinstance(n, str) for n in free):
        raise ConfigError("expected a list of parameter names", "options.free")
    bounds_block = _get(cfg, "options.bounds", {}) or {}
    if not isinstance(bounds_block, dict):
        raise ConfigError("expected an object of (low, high) pairs", "options.bounds")
    bounds = {k: tuple(_numbers(cfg, f"options.bounds.{k}", 2)) for k in bounds_block}
    try:
        problem = FitProblem(tuple(specs), tuple(data), initial, free=tuple(free),
                             bounds=bounds or None,
                             nuisance=_flag(cfg, "options.nuisance", False))
    except ValueError as exc:
        raise ConfigError(str(exc), "options")
    result = fit_parameters(problem, **_given(cfg, {"max_eval": _positive}))
    return result.to_dict(), "json"


# Each command's handler and the option keys it reads; run rejects any
# other key under ``options``.
_COMMANDS = {
    "levels": (_cmd_levels, ("manifold",)),
    "transitions": (_cmd_transitions, ("include_optical", "zpl_hz")),
    "ple": (_cmd_ple, ("zpl_hz", "linewidth_hz", "detuning_hz")),
    "cyclicity-map": (_cmd_cyclicity_map, ("bx_t", "bz_t")),
    "pump": (_cmd_pump, ("line", "rabi_hz", "linewidth_hz", "duration_s", "lifetime_s")),
    "fidelity-budget": (_cmd_fidelity_budget,
                        ("tau_s", "delta_omega_rad_s", "n_list", "f_min")),
    "rabi": (_cmd_rabi, ("amplitude_x_hz", "amplitude_z_hz", "transition",
                         "freq_hz", "duration_s")),
    "ramsey": (_cmd_ramsey, ("amplitude_x_hz", "amplitude_z_hz", "transition",
                             "freq_hz", "delay_s", "pi_half_s", "noise")),
    "decouple": (_cmd_decouple, ("noise", "n_pulses", "total_time_s")),
    "rb": (_cmd_rb, ("gate_fidelity", "lengths", "sequences_per_length", "spam")),
    "coherence-map": (_cmd_coherence_map,
                      ("upsilon_hz", "alpha_hz", "gamma_phonon", "sign_convention")),
    "fit": (_cmd_fit, ("datasets", "initial", "free", "bounds", "nuisance", "max_eval")),
}


def _provenance(config_bytes: bytes, seed: int) -> dict:
    from . import __version__

    return {
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "version": __version__,
        "seed": seed,
    }


def _write_output(path: str, payload, flavor: str, provenance: dict):
    if flavor == "json":
        doc = {"_provenance": provenance}
        doc.update(payload)
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    from .csvio import save_csv

    rows, meta = payload if flavor == "signal-csv" else (payload, {})
    save_csv(path, rows, {**provenance, **meta})


def run(config_path: str, out_override: str | None = None,
        seed_override: int | None = None) -> str:
    """Execute one config; returns the written artifact path."""
    try:
        with open(config_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    cfg["_config_path"] = os.path.abspath(config_path)

    command = _get(cfg, "command", required=True)
    if command not in _COMMANDS:
        raise ConfigError(
            f"unknown command {command!r}; expected one of {', '.join(_COMMANDS)}",
            "command",
        )
    handler, option_keys = _COMMANDS[command]
    options = _get(cfg, "options") or {}
    if not isinstance(options, dict):
        raise ConfigError("expected an options object", "options")
    unknown = sorted(set(options) - set(option_keys))
    if unknown:
        raise ConfigError(f"unknown {command} options {unknown}; "
                          f"expected some of {', '.join(option_keys)}",
                          f"options.{unknown[0]}")
    seed = seed_override if seed_override is not None else _integer(cfg, "seed", 0)
    output = out_override or _get(cfg, "output")
    if not isinstance(output, (str, type(None))):
        raise ConfigError("expected an output path", "output")

    payload, flavor = handler(cfg, seed)
    if output is None:
        output = f"{command}.{'json' if flavor == 'json' else 'csv'}"
    if not os.path.isabs(output):
        output = os.path.join(os.environ.get(ENV_OUT_DIR, "."), output)
    _write_output(output, payload, flavor, _provenance(raw, seed))
    return output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="snspin",
        description="Color-center spin-photon interface model runner",
    )
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", help="output path (overrides config)")
    parser.add_argument("--seed", type=int, help="seed (overrides config)")
    parser.add_argument("--threads", type=int,
                        help="BLAS/OpenMP thread budget (default: the environment's, "
                             "else 1, deterministic)")
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be at least 1")

    # numpy is not loaded yet (the package imports lazily), so BLAS sees these
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if args.threads is not None:
            os.environ[var] = str(args.threads)
        else:
            os.environ.setdefault(var, "1")

    try:
        written = run(args.config, args.out, args.seed)
    except ConfigError as exc:
        json.dump({"error": {"type": "config", "message": str(exc),
                             "path": exc.path}}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        json.dump({"error": {"type": "runtime", "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    print(written)
    return 0


if __name__ == "__main__":
    sys.exit(main())
