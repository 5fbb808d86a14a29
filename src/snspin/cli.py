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

Grids are lists or {"start": lo, "stop": hi, "points": n} blocks.  A
map's grids (``freq_hz``, ``duration_s``, ``delay_s``) repeat no value,
and its frequencies are positive.

``run`` reads the whole config in one pass, before any command runs: it
reads ``command``, then the config object through ``_CONFIG``, one reader
per top-level key, with ``options`` read by that command's own table
(``_COMMANDS``).  Every config object -- the config itself, ``options``,
``field``, the ``ground`` and ``excited`` blocks, grid and noise blocks,
``fit`` datasets, ``options.initial`` and ``options.bounds`` -- is read
through one helper, ``_object``: a key with no reader, or a value its
reader cannot read, is a ``ConfigError`` at that key's path (exit 2).
Blocks are read eagerly, so a malformed block, ``seed`` or ``output`` is
an error for every command and whatever ``--seed`` or ``--out`` say,
while a well-formed block that a command does not use is accepted.  An
unset parameter block or field takes the package's fitted defaults.  A
number is finite (JSON's ``NaN`` and ``Infinity`` are refused) and never a
boolean, and a bounded one is read in the range the library accepts.
Switches such as ``include_optical`` and ``nuisance`` take JSON ``true``
or ``false`` only.  ``null`` is a value of the wrong type
for every key: to take a default, leave the key out.  ``decouple`` models
ideal instantaneous pulses against pure dephasing, so it uses only
``options.noise``, ``options.n_pulses`` and ``options.total_time_s``: no
parameter block, field or transition.

A noise block takes the keys its model reads: ``kind`` (``none`` or
``quasi-static-gaussian``), ``sigma_hz`` and ``samples`` for ``ramsey``;
``kind`` (``ornstein-uhlenbeck``), ``sigma_hz`` and ``correlation_time_s``
(static noise when left out) for ``decouple``, whose curve is exact, so
the seed enters ``rb`` only.  A ``sigma_hz`` above 0 needs a ``kind``
other than ``none``.  JSON artifacts are strict JSON: a non-finite
result, such as ``n_max`` of ``fidelity-budget`` at zero field, is the
string ``"NaN"``, ``"Infinity"`` or ``"-Infinity"``, which Python's
``float()`` and JavaScript's ``Number()`` read back.

Handlers format nothing.  A JSON result is encoded by ``_plain`` alone; a
CSV result is columns by header name plus header metadata, and ``csvio``
formats every cell.  A ``rabi`` or ``ramsey`` header is its map's spec
(``ExperimentSpec.metadata``), so ``fit`` reads the spec back from the
path alone; a dataset it cannot read is a config error at its block.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys

from .params import (LIFETIME_S, OPTICAL_LINEWIDTH_HZ, MagneticField, ManifoldParams,
                     excited_defaults, field_for_larmor, ground_defaults, reference_field)

ENV_OUT_DIR = "SNSPIN_OUT_DIR"


class ConfigError(Exception):
    """Config schema violation; ``path`` names the offending entry."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


# --- readers -----------------------------------------------------------------
# Each takes (value, path), returns what it read and raises a ConfigError at
# ``path`` for a value it cannot read.  Readers that need a library constant
# outside ``params`` import it when they run, so that loading this module
# loads no numpy.

def _number(val, path: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"expected a number, got {val!r}", path)
    try:
        return float(val)
    except OverflowError:  # a JSON integer beyond the float range
        raise ConfigError("expected a number, got an integer too large for a float",
                          path) from None


def _float(val, path: str) -> float:
    """A finite number: JSON's NaN and Infinity are refused."""
    number = _number(val, path)
    if not math.isfinite(number):
        raise ConfigError(f"expected a finite number, got {val!r}", path)
    return number


def _int(val, path: str, minimum: int = 0) -> int:
    """A count or seed: a whole number of at least ``minimum`` (a float
    with no fractional part counts)."""
    number = _float(val, path)
    if not number.is_integer() or number < minimum:
        raise ConfigError(f"expected a whole number >= {minimum}, got {val!r}", path)
    return int(val)


_count = functools.partial(_int, minimum=1)


def _range(within, what: str):
    """A reader of a finite number that ``within`` accepts (``what``)."""
    def read(val, path: str) -> float:
        if not within(number := _float(val, path)):
            raise ConfigError(f"expected {what}, got {val!r}", path)
        return number
    return read


_nonnegative = _range(lambda x: x >= 0.0, "a finite number >= 0")
_positive = _range(lambda x: x > 0.0, "a finite number > 0")


def _flag(val, path: str) -> bool:
    """A JSON boolean; nothing else stands in for one."""
    if not isinstance(val, bool):
        raise ConfigError(f"expected true or false, got {val!r}", path)
    return val


def _text(val, path: str) -> str:
    if not isinstance(val, str):
        raise ConfigError(f"expected a string, got {val!r}", path)
    return val


def _choice(*allowed):
    """A reader of a value that must be one of ``allowed``."""
    def read(val, path: str):
        if val not in allowed:
            raise ConfigError(f"got {val!r}; expected one of {', '.join(allowed)}", path)
        return val
    return read


def _transition(val, path: str) -> str:
    from .spinmodel import TRANSITIONS

    return _choice(*TRANSITIONS)(val, path)


def _sign_convention(val, path: str) -> str:
    from .coherence import SIGN_CONVENTIONS

    return _choice(*SIGN_CONVENTIONS)(val, path)


def _line(val, path: str):
    """A pump line: a peak id (f0, f1 or f2), or a laser frequency in Hz."""
    return _choice("f0", "f1", "f2")(val, path) if isinstance(val, str) else _float(val, path)


def _list(read=_float, count: int | None = None, distinct: int = 1):
    """A reader of a non-empty list (of ``count`` entries when given, at
    least ``distinct`` of them different), each entry read by ``read``."""
    def read_list(val, path: str) -> list:
        if not isinstance(val, list) or not val or count not in (None, len(val)):
            raise ConfigError(f"expected a list of {count or 'one or more'} entries", path)
        entries = [read(x, f"{path}[{i}]") for i, x in enumerate(val)]
        if distinct > 1 and len(set(entries)) < distinct:
            raise ConfigError(f"expected at least {distinct} distinct entries", path)
        return entries
    return read_list


def _names(val, path: str) -> list:
    """Fit parameter names; ``[]`` frees none, for a loss-only fit."""
    from .fitkit import FIT_PARAM_NAMES

    return [] if val == [] else _list(_choice(*FIT_PARAM_NAMES))(val, path)


def _grid(val, path: str, nonnegative: bool = False, axis: bool = False):
    """A list or a start/stop/points block of finite values, none below 0
    when ``nonnegative`` (times, magnitudes).  A map's ``axis`` holds no
    value twice, and its frequencies (not ``nonnegative``) are positive."""
    import numpy as np

    if isinstance(val, dict):
        block = _object(val, path, {"start": _float, "stop": _float, "points": _count})
        grid = np.linspace(*(_need(block, key, path) for key in ("start", "stop", "points")))
    elif isinstance(val, list):
        grid = np.asarray(_list(_number)(val, path))
    else:
        raise ConfigError("expected a grid list or a start/stop/points object", path)
    if not np.all(np.isfinite(grid)) or (nonnegative and np.any(grid < 0)):
        raise ConfigError("expected finite values" + (" >= 0" if nonnegative else ""), path)
    if axis and (np.unique(grid).size < grid.size or not (nonnegative or np.all(grid > 0))):
        raise ConfigError("expected distinct values" + ("" if nonnegative else " > 0"), path)
    return grid


def _object(val, path: str, readers: dict) -> dict:
    """The JSON object at ``path`` with each key read by its reader in
    ``readers``; a key with no reader is a ConfigError at that key.  The
    config itself is at ``path`` "", and its keys at their bare names."""
    if not isinstance(val, dict):
        raise ConfigError(f"expected an object, got {val!r}", path)
    unknown = sorted(set(val) - set(readers))
    if unknown:
        raise ConfigError(f"unknown keys {unknown}; expected some of {', '.join(readers)}",
                          f"{path}.{unknown[0]}".lstrip("."))
    return {key: readers[key](item, f"{path}.{key}".lstrip(".")) for key, item in val.items()}


def _need(block: dict, key: str, path: str = "options"):
    """``block[key]``, which the config must give."""
    if key not in block:
        raise ConfigError(f"missing required entry {key!r}", f"{path}.{key}".lstrip("."))
    return block[key]


def _record(cls, val, path: str, readers: dict | None = None):
    """A ``cls`` from the object at ``path``, each field read by ``readers``
    (by ``_float`` when not given)."""
    block = _object(val, path, readers or {f.name: _float for f in dataclasses.fields(cls)})
    try:
        return cls(**block)
    except (TypeError, ValueError) as exc:  # a missing field or a value out of range
        raise ConfigError(str(exc), path)


def _noise(kinds: tuple, extra: dict):
    """A reader of a noise block of one of ``kinds``: ``kind``, ``sigma_hz``
    and the ``extra`` keys, the ones its model reads."""
    def read(val, path: str):
        from .dynamics import NoiseModel

        return _record(NoiseModel, val, path,
                       {"kind": _choice(*kinds), "sigma_hz": _float, **extra})
    return read


def _initial(val, path: str):
    from .fitkit import FitParams

    return _record(FitParams, val, path)


def _bounds(val, path: str) -> dict:
    from .fitkit import FIT_PARAM_NAMES

    bounds = _object(val, path, dict.fromkeys(FIT_PARAM_NAMES, _list(_float, 2)))
    for name, (lo, hi) in bounds.items():
        if not lo < hi:
            raise ConfigError(f"expected low < high, got {[lo, hi]}", f"{path}.{name}")
    return bounds


def _dataset(val, path: str) -> dict:
    """A ``fit`` dataset block: a signal CSV and what its header may lack."""
    return _object(val, path, {"path": _text, "kind": _text, "transition": _text,
                               "pi_half_s": _nonnegative, "label": _text})


# --- top-level blocks --------------------------------------------------------

def _manifold(val, path: str):
    """A ``ground`` or ``excited`` parameter block."""
    return _record(ManifoldParams, val, path)


def _field(val, path: str):
    """A bias field, each axis in tesla or as an electron Larmor frequency."""
    keys = [f"b{axis}_t" for axis in "xyz"] + [f"b_{axis}_hz" for axis in "xyz"]
    block = _object(val, path, dict.fromkeys(keys, _float))
    components = {}
    for axis in "xyz":
        tesla_key, hz_key = f"b{axis}_t", f"b_{axis}_hz"
        if tesla_key in block and hz_key in block:
            raise ConfigError(f"give either {tesla_key} or {hz_key}, not both",
                              f"{path}.{tesla_key}")
        if tesla_key in block:
            components[f"b{axis}"] = block[tesla_key]
        elif hz_key in block:
            components[f"b{axis}"] = field_for_larmor(block[hz_key])
    return MagneticField(**components)


def _eigensystem(cfg: dict, key: str):
    """Labeled eigensystem of the ``key`` parameter block at the config's field."""
    from .spinmodel import manifold_eigensystem

    return manifold_eigensystem(cfg[key], cfg["field"])


def _plain(value):
    """A result as strict-JSON values: dataclasses and dicts field by field,
    sequences and numpy arrays to lists, numpy scalars to Python numbers,
    and a non-finite float to the string "NaN", "Infinity" or "-Infinity"."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    value = value.tolist() if hasattr(value, "tolist") else value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"
    return value


# --- command handlers --------------------------------------------------------
# Each takes (cfg, opts, seed, base): the config as read, with every block
# given or defaulted; its options as read; the run's seed; and the config's
# directory.  It returns (payload, flavor) and formats nothing: for "json" a
# dict or a result dataclass, which ``_plain`` encodes; for "table" or "grid"
# (columns by header name, header metadata), which ``csvio`` writes: a table's
# equal-length columns, or a grid's two axes and its values over them.

def _cmd_levels(cfg, opts, seed, base):
    which = opts.get("manifold", "ground")
    return {key: _eigensystem(cfg, key).level_dict()
            for key in ("ground", "excited") if which in (key, "both")}, "json"


def _cmd_transitions(cfg, opts, seed, base):
    from .spectrum import TransitionEntry, mw_transitions, optical_transitions

    ground = _eigensystem(cfg, "ground")
    entries = mw_transitions(ground).entries
    if opts.get("include_optical", True):
        entries += optical_transitions(ground, _eigensystem(cfg, "excited"),
                                       zpl=opts.get("zpl_hz", 0.0)).entries
    names = [f.name for f in dataclasses.fields(TransitionEntry)]
    return ({name: [getattr(e, name) for e in entries] for name in names}, {}), "table"


def _cmd_ple(cfg, opts, seed, base):
    from .spectrum import optical_transitions, ple_spectrum

    table = optical_transitions(_eigensystem(cfg, "ground"), _eigensystem(cfg, "excited"),
                                zpl=opts.get("zpl_hz", 0.0))
    trace = ple_spectrum(
        table,
        linewidth=opts.get("linewidth_hz", OPTICAL_LINEWIDTH_HZ),
        grid=opts.get("detuning_hz"),
    )
    return ({"detuning_hz": trace.detuning_hz, "intensity": trace.intensity}, {}), "table"


def _cmd_cyclicity_map(cfg, opts, seed, base):
    import numpy as np
    from .optics import lambda_f0_map

    bx, bz = _need(opts, "bx_t"), _need(opts, "bz_t")
    x, z = (axis.ravel() for axis in np.meshgrid(bx, bz, indexing="ij"))
    lam = lambda_f0_map(cfg["ground"], cfg["excited"], x, z)
    return ({"bx_t": bx, "bz_t": bz, "lambda_f0": lam}, {}), "grid"


def _cmd_pump(cfg, opts, seed, base):
    from .optics import pump_dynamics

    result = pump_dynamics(
        _eigensystem(cfg, "ground"), _eigensystem(cfg, "excited"),
        pump_line=opts.get("line", "f2"), rabi_hz=_need(opts, "rabi_hz"),
        linewidth_hz=opts.get("linewidth_hz", OPTICAL_LINEWIDTH_HZ),
        duration_s=opts.get("duration_s", 10e-6),
        lifetime_s=opts.get("lifetime_s", LIFETIME_S),
    )
    return result, "json"


def _cmd_fidelity_budget(cfg, opts, seed, base):
    import numpy as np
    from .spectrum import memory_detuning
    from .optics import excitation_fidelity, max_excitations

    tau = opts.get("tau_s", LIFETIME_S)
    delta = opts.get("delta_omega_rad_s")
    if delta is None:
        delta = 2.0 * np.pi * memory_detuning(_eigensystem(cfg, "ground"),
                                              _eigensystem(cfg, "excited"))
    every_n = np.unique(np.round(np.geomspace(1, 1e7, 29))).astype(int).tolist()
    f_min = opts.get("f_min", 0.95)
    return {
        "delta_omega_rad_s": delta,
        "tau_s": tau,
        "budget": [{"n": n, "fidelity": excitation_fidelity(delta, tau, n)}
                   for n in opts.get("n_list", every_n)],
        "f_min": f_min,
        "n_max": max_excitations(delta, tau, f_min),
    }, "json"


def _drive(opts) -> tuple:
    """A ``rabi`` or ``ramsey`` map's drive, by default the reference device's."""
    from .fitkit import FitParams

    reference = FitParams.reference()
    return (opts.get("amplitude_x_hz", reference.b_x_ac_hz),
            opts.get("amplitude_z_hz", reference.b_z_ac_hz))


def _signal(m):
    """A map's grid payload with its spec's metadata as the header, so that
    ``fit`` reads the spec back from the path alone."""
    return ({"freq_hz": m.freq_hz, "duration_s": m.duration_s, "signal": m.signal},
            m.spec.metadata()), "grid"


def _cmd_rabi(cfg, opts, seed, base):
    from .dynamics import rabi_map

    return _signal(rabi_map(cfg["ground"], cfg["field"], *_drive(opts),
                            _need(opts, "freq_hz"), _need(opts, "duration_s"),
                            transition=opts.get("transition")))


def _cmd_ramsey(cfg, opts, seed, base):
    from .dynamics import ramsey_map

    return _signal(ramsey_map(cfg["ground"], cfg["field"], *_drive(opts),
                              _need(opts, "freq_hz"), _need(opts, "delay_s"),
                              noise=opts.get("noise"), transition=opts.get("transition"),
                              pi_half_s=opts.get("pi_half_s")))


def _cmd_decouple(cfg, opts, seed, base):
    from .dynamics import decoupling_scan

    return decoupling_scan(noise=_need(opts, "noise"), n_pulses=_need(opts, "n_pulses"),
                           delay_grid=_need(opts, "total_time_s")), "json"


def _cmd_rb(cfg, opts, seed, base):
    from .dynamics import rb_simulate, clifford_adjust

    _need(opts, "gate_fidelity")
    result = rb_simulate(seed=seed, **opts)  # the option keys are rb_simulate's keywords
    out = dataclasses.asdict(result)
    if result.fit_ok:
        out["clifford_fidelity"] = clifford_adjust(result.fidelity)
    return out, "json"


def _cmd_coherence_map(cfg, opts, seed, base):
    from .coherence import coherence_map

    m = coherence_map(
        cfg["ground"], _need(opts, "upsilon_hz"), _need(opts, "alpha_hz"),
        **{k: opts[k] for k in ("gamma_phonon", "sign_convention") if k in opts},
    )
    return ({"upsilon_hz": m.upsilon_hz, "alpha_hz": m.alpha_hz, "t2_s": m.t2_s}, {}), "grid"


def _cmd_fit(cfg, opts, seed, base):
    from .fitkit import DEFAULT_FREE, FitProblem, fit_parameters, load_signal_csv

    specs, data = [], []
    for i, block in enumerate(_need(opts, "datasets")):
        where, spec_keys = f"options.datasets[{i}]", dict(block)
        path = spec_keys.pop("path", None)
        if not path:
            raise ConfigError("dataset needs a csv path", f"{where}.path")
        try:  # the block's kind, transition, pi_half_s and label override the header's
            _, m = load_signal_csv(os.path.join(base, path), **spec_keys)
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc), where)
        specs.append(m.spec)
        data.append(m.signal)

    initial, free = _need(opts, "initial"), tuple(opts.get("free", DEFAULT_FREE))
    for name in free:  # the fit works in units of the initial values
        if getattr(initial, name) == 0:
            raise ConfigError(f"initial {name} is 0, which sets no scale for the fit; "
                              "hold it out of free", f"options.initial.{name}")
    try:
        problem = FitProblem(tuple(specs), tuple(data), initial, free=free,
                             bounds=opts.get("bounds"), nuisance=opts.get("nuisance", False))
    except ValueError as exc:
        raise ConfigError(str(exc), "options")
    return fit_parameters(problem, **{k: opts[k] for k in ("max_eval",) if k in opts}), "json"


# Each command's handler and its option readers; run rejects any other key
# under ``options``.
_NONNEGATIVE_GRID = functools.partial(_grid, nonnegative=True)
_MAP_TIMES = functools.partial(_grid, nonnegative=True, axis=True)
_MAP_OPTIONS = {"amplitude_x_hz": _float, "amplitude_z_hz": _float,
                "transition": _transition, "freq_hz": functools.partial(_grid, axis=True)}
_COMMANDS = {
    "levels": (_cmd_levels, {"manifold": _choice("ground", "excited", "both")}),
    "transitions": (_cmd_transitions, {"include_optical": _flag, "zpl_hz": _float}),
    "ple": (_cmd_ple, {"zpl_hz": _float, "linewidth_hz": _positive, "detuning_hz": _grid}),
    "cyclicity-map": (_cmd_cyclicity_map, {"bx_t": _grid, "bz_t": _grid}),
    "pump": (_cmd_pump, {"line": _line, "rabi_hz": _nonnegative, "linewidth_hz": _positive,
                         "duration_s": _positive, "lifetime_s": _positive}),
    "fidelity-budget": (_cmd_fidelity_budget,
                        {"tau_s": _nonnegative, "delta_omega_rad_s": _float,
                         "n_list": _list(_int),
                         "f_min": _range(lambda x: 0.5 < x < 1.0, "a threshold in (1/2, 1)")}),
    "rabi": (_cmd_rabi, {**_MAP_OPTIONS, "duration_s": _MAP_TIMES}),
    "ramsey": (_cmd_ramsey, {**_MAP_OPTIONS, "delay_s": _MAP_TIMES, "pi_half_s": _nonnegative,
                             "noise": _noise(("none", "quasi-static-gaussian"),
                                             {"samples": _count})}),
    "decouple": (_cmd_decouple, {"noise": _noise(("ornstein-uhlenbeck",),
                                                 {"correlation_time_s": _float}),
                                 "n_pulses": _int,
                                 "total_time_s": _NONNEGATIVE_GRID}),
    "rb": (_cmd_rb, {"gate_fidelity": _range(lambda x: 0.0 <= x <= 1.0, "a fidelity in [0, 1]"),
                     "lengths": _list(_int, distinct=3),
                     "sequences_per_length": functools.partial(_int, minimum=2),
                     "spam": _list(_float, 2)}),
    "coherence-map": (_cmd_coherence_map,
                      {"upsilon_hz": _NONNEGATIVE_GRID, "alpha_hz": _NONNEGATIVE_GRID,
                       "gamma_phonon": _positive, "sign_convention": _sign_convention}),
    "fit": (_cmd_fit, {"datasets": _list(_dataset), "initial": _initial, "free": _names,
                       "bounds": _bounds, "nuisance": _flag, "max_eval": _count}),
}
# Readers of the config's top-level keys; run reads ``command`` first and adds
# ``options``, read by that command's table.
_CONFIG = {"command": _text, "seed": _int, "output": _text, "ground": _manifold,
           "excited": _manifold, "field": _field}


def _provenance(config_bytes: bytes, seed: int) -> dict:
    from . import __version__

    return {
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "version": __version__,
        "seed": seed,
    }


def _write_output(path: str, payload, flavor: str, provenance: dict):
    if flavor == "json":
        doc = {"_provenance": provenance, **_plain(payload)}
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
        return
    from .csvio import grid_lines, save_csv, table_lines

    columns, meta = payload
    lines = (grid_lines if flavor == "grid" else table_lines)(*columns.values())
    save_csv(path, list(columns), lines, {**provenance, **meta})


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
    command = _choice(*_COMMANDS)(_need(cfg, "command", ""), "command")
    handler, readers = _COMMANDS[command]
    cfg = _object(cfg, "", dict(_CONFIG, options=functools.partial(_object, readers=readers)))
    cfg = {"seed": 0, "options": {}, "ground": ground_defaults(),
           "excited": excited_defaults(), "field": reference_field(), **cfg}
    seed = seed_override if seed_override is not None else cfg["seed"]
    payload, flavor = handler(cfg, cfg["options"], seed,
                              os.path.dirname(os.path.abspath(config_path)))
    output = out_override or cfg.get("output")
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
                        help="BLAS/OpenMP threads of each process, a fit's Jacobian "
                             "workers included (default: the environment's, else 1, "
                             "deterministic)")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be at least 0")
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
