"""Spin-photon interface model for a strongly hyperfine-coupled color center.

The package models the 8-level electro-nuclear structure of a group-IV
defect manifold (orbital doublet x electron spin x nuclear spin), its
optical transitions and cyclicity, microwave-driven spin dynamics, the
coherence limits set by phonon-mediated orbital hopping, and a fitting
workflow that recovers model parameters from spectroscopy data.

Imports: at module top a submodule imports numpy, its sibling submodules and
light standard-library modules only.  scipy, and the ``multiprocessing`` and
``concurrent.futures`` of the fit's process pool, are imported inside the
functions that call them.  So importing any submodule loads none of them, and
the commands that call no scipy routine (``levels``, ``cyclicity-map``,
``coherence-map``, ``decouple``, ``rabi``, ``ramsey``, ``fit``) never load
it.
"""

# Public names and the submodule each comes from.  The submodules load on
# first access (PEP 562), so importing the package -- or ``snspin.cli`` --
# does not load numpy: the CLI sets the BLAS thread count first.
_EXPORTS = {
    "ManifoldParams": "params", "MagneticField": "params",
    "ground_defaults": "params", "excited_defaults": "params",
    "reference_field": "params",
    "build_hamiltonian": "spinmodel", "eigensystem": "spinmodel",
    "manifold_eigensystem": "spinmodel", "EigenSystem": "spinmodel",
    "closed_form_energies": "spinmodel",
    "TransitionEntry": "spectrum", "TransitionTable": "spectrum",
    "SpectrumTrace": "spectrum", "mw_transitions": "spectrum",
    "optical_transitions": "spectrum", "ple_spectrum": "spectrum",
    "memory_detuning": "spectrum",
    "dipole_strengths": "optics", "spin_conserving_pairs": "optics",
    "cyclicity": "optics", "cyclicity_from_lifetimes": "optics",
    "pump_dynamics": "optics", "excitation_fidelity": "optics",
    "max_excitations": "optics", "collection_efficiency": "optics",
    "DriveSegment": "dynamics", "PulseProgram": "dynamics",
    "NoiseModel": "dynamics", "SignalMap": "dynamics", "propagate": "dynamics",
    "rabi_map": "dynamics", "ramsey_map": "dynamics",
    "decoupling_scan": "dynamics", "rb_simulate": "dynamics",
    "clifford_adjust": "dynamics",
    "lambda_eff": "coherence", "t2_phonon": "coherence",
    "ridge_upsilon": "coherence", "coherence_map": "coherence",
}


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]
