"""Driven ground-state dynamics: Rabi and Ramsey maps, decoupling, benchmarking.

Everything here propagates in the lab frame -- no rotating-wave
approximation -- because the smallest microwave transition (tens of MHz)
is not far above the achievable Rabi rates.  Gates start, act and are
read out in the lower orbital branch, which the drive barely reaches
across the THz orbital gap, so the map engine propagates its four levels
alone when a bound computed per call allows it (adiabatic elimination;
see ``_Engine._levels``), and all 8 otherwise.  ``propagate`` always
integrates all 8 levels and stays the independent reference.
The drive is the Zeeman operator of an oscillating field applied on top
of the static bias, with amplitudes quoted as electron drive strengths
(g mu_B B_ac / h, in Hz) like the static field table.

The propagators exploit three exact structures to stay fast at map scale:
free evolution is diagonal in the static eigenbasis; a
constant-amplitude tone is periodic (Shirley, Phys. Rev. 138, B979
(1965)), so one drive period per tone is composed and diagonalized once,
whole periods become powers of its eigenvalues, and only the fractional
remainders at the pulse ends are integrated explicitly; and the midpoint
substeps of every period sample the drive at the same phases, so the
tones of one call, which has one drive, share the eigensystems of their
substep Hamiltonians and differ only in the substep length.  A map is
described by one ``ExperimentSpec``, which ``rabi_map``, ``ramsey_map``
and the fit all build, and the engine plans a list of them in one call
(``_Engine.signals``).  A map result is its spec and its signal
(``SignalMap``), and ``ExperimentSpec.from_metadata`` reads a spec back
from the ``metadata`` an artifact's header holds.  Every pixel is one
row of a stacked state that all its pulses act on at once.  Pulse times
do not depend on the state, so the engine plans every pulse of a call
before it runs any: the period tables of all its tones are built side
by side, and the pulse ends of a group of rows -- which may come from
several maps, such as every map of one fit evaluation -- are
deduplicated once and integrated in one stacked pass.

The tables cost a few large calls rather than many small ones.  The
tones of a call are composed side by side, one n x (n tones) matrix
per substep, so each substep is two 2-D products for all of them; the
period propagators of all tones get one finite check, one stacked
``eig`` and one stacked QR of the eigenvectors.  M is unitary, so
normal: QR keeps each eigenvector in its eigenspace, which the earlier
ones are orthogonal to, and makes Q exactly unitary where eigenphases
coincide (no field or no drive).  Maps need no scipy.
With no static field along y and strain along Egx only, H is real in the
product basis, and so are its eigenvectors and the drive operators; the
engine then keeps Vx and Vz real, and every substep and end-step eigh is
a real symmetric one.  Its formulas do not depend on the dtype.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .params import ManifoldParams, MagneticField, MU_B_HZ_PER_T
from .spinmodel import (
    SIGMA_X, SIGMA_Y, TRANSITIONS, EigenSystem, eigensystem, build_hamiltonian,
    zeeman_operator,
)

# Mapping pulses that connect the initialized 0B0M state and the dark
# post-drive states to the bright 1B readout subspace.
ROUTING = {
    "broker": ((), ()),
    "memory": ((), ("broker_m1",)),
    "broker_m1": (("memory",), ("memory",)),
}

_SUBSTEPS = 32          # midpoint substeps per drive period (>= 20 required)
# Rows run together, the engine's one bound on temporaries: a group takes
# its end steps in one pass, at most two per driven layer per row.
_BLOCK_ROWS = 1024
# Bounds of the lower-branch reduction (``_Engine._levels``).  Each caps a
# population error near 1e-8 (a phase error of x cycles moves one by at
# most 2 pi x), five orders below the engine's own substep error; the
# reference point reads 4.6e-13 and 6.9e-10.
_LEAKAGE_MAX = 1e-8         # upper-branch population a drive may leave
_SHIFT_SPREAD_MAX = 1e-8    # cycles the lower levels' second-order shifts may drift apart


@dataclass(frozen=True)
class DriveSegment:
    """One rectangular tone: b(t) = amplitude * cos(2 pi f t + phase).

    ``amplitude_x``/``amplitude_z`` are electron drive strengths in Hz;
    a segment with both amplitudes zero is a free-evolution gap.
    """

    frequency_hz: float
    amplitude_x_hz: float
    amplitude_z_hz: float
    phase_rad: float
    duration_s: float

    def __post_init__(self):
        if self.duration_s < 0:
            raise ValueError("segment duration must be non-negative")

    @property
    def is_gap(self) -> bool:
        return self.amplitude_x_hz == 0.0 and self.amplitude_z_hz == 0.0


@dataclass(frozen=True)
class PulseProgram:
    """Ordered drive segments with an init label and 1B-subspace readout."""

    segments: tuple
    init_label: str = "lower.0B0M"

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a pulse program needs at least one segment")


@dataclass(frozen=True)
class NoiseModel:
    """Detuning noise: none, quasi-static Gaussian, or Ornstein-Uhlenbeck.

    Quasi-static noise shifts the drive detuning once per repetition; it
    is averaged over ``samples`` deterministic Gaussian quantiles, and
    ``samples`` applies to it only.  OU noise is a fluctuating transition
    frequency with standard deviation ``sigma_hz`` and correlation time
    ``correlation_time_s`` (which applies to it only; ``inf`` is static
    noise), and ``decoupling_scan`` averages over it exactly.  Kind
    ``none`` takes no ``sigma_hz``.
    """

    kind: str = "none"
    sigma_hz: float = 0.0
    correlation_time_s: float = math.inf
    samples: int = 100

    def __post_init__(self):
        if self.kind not in ("none", "quasi-static-gaussian", "ornstein-uhlenbeck"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma_hz < 0 or self.samples < 1 or not self.correlation_time_s > 0:
            raise ValueError("sigma must be >= 0, correlation_time_s > 0 (inf for "
                             "static noise) and samples >= 1")
        if self.kind == "none" and self.sigma_hz > 0:
            raise ValueError("noise of kind 'none' takes no sigma; give its kind")


@dataclass(frozen=True)
class ExperimentSpec:
    """One measured map: what was driven and on which grid.

    ``time_s`` is the drive duration axis for a Rabi map and the free
    delay axis for a Ramsey map; each grid holds distinct values, the
    frequencies positive and the times non-negative.  ``pi_half_s``
    freezes the Ramsey pulse duration at its value when the data were
    taken; it is part of the measurement, not of the model, so the fit
    never varies it.
    Initialization is always 0B0M and readout the 1B population; the
    pre/post mapping-pulse routing follows the transition under test.
    """

    kind: str
    transition: str
    freq_hz: tuple
    time_s: tuple
    pi_half_s: float | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("rabi", "ramsey"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.transition not in TRANSITIONS:
            raise ValueError(f"unknown transition {self.transition!r}")
        for name, grid in zip(("freq_hz", "time_s"), _grids(self.freq_hz, self.time_s)):
            object.__setattr__(self, name, tuple(grid.tolist()))  # so specs hash and compare
        if self.kind == "ramsey" and self.pi_half_s is None:
            raise ValueError("a ramsey spec needs its calibrated pi_half_s")
        if self.pi_half_s is not None and not 0.0 <= self.pi_half_s < math.inf:
            raise ValueError("pi_half_s must be finite and non-negative")

    @property
    def size(self) -> int:
        return len(self.freq_hz) * len(self.time_s)

    def metadata(self) -> dict:
        meta = {"kind": self.kind, "transition": self.transition}
        if self.pi_half_s is not None:
            meta["pi_half_s"] = repr(float(self.pi_half_s))
        if self.label:
            meta["label"] = self.label
        return meta

    @classmethod
    def from_metadata(cls, meta: dict, freq_hz, time_s) -> ExperimentSpec:
        """The spec whose ``metadata`` is ``meta`` (its strings, as a CSV
        header holds them, or values), on the grids read beside it."""
        if not {"kind", "transition"} <= meta.keys():
            raise ValueError("a map needs kind and transition, in its csv header or given")
        pi_half = meta.get("pi_half_s")
        return cls(meta["kind"], meta["transition"], freq_hz, time_s,
                   None if pi_half is None else float(pi_half), meta.get("label", ""))


@dataclass(frozen=True)
class SignalMap:
    """A map: the ``ExperimentSpec`` it ran (or its CSV header names) and its
    normalized bright-state signal, one row per frequency of the spec's grid."""

    spec: ExperimentSpec
    signal: np.ndarray

    def __post_init__(self):
        grid = (len(self.spec.freq_hz), len(self.spec.time_s))
        if np.shape(self.signal) != grid:
            raise ValueError(f"signal shape {np.shape(self.signal)} does not match "
                             f"the spec grid {grid}")

    @property
    def freq_hz(self) -> np.ndarray:
        return np.asarray(self.spec.freq_hz, dtype=float)

    @property
    def duration_s(self) -> np.ndarray:
        return np.asarray(self.spec.time_s, dtype=float)


def _grids(freq_grid, time_grid) -> tuple:
    """A map's frequency and time grids as arrays: non-empty, finite and
    free of repeats, with positive frequencies and no negative time, so no
    pulse runs backwards."""
    freq_grid = np.asarray(freq_grid, dtype=float)
    time_grid = np.asarray(time_grid, dtype=float)
    if freq_grid.size == 0 or time_grid.size == 0:
        raise ValueError("grids must be non-empty")
    if not (np.all(np.isfinite(freq_grid)) and np.all(np.isfinite(time_grid))):
        raise ValueError("grids must be finite")
    if np.any(freq_grid <= 0) or np.any(time_grid < 0):
        raise ValueError("frequencies must be positive, durations and delays non-negative")
    if any(np.unique(grid).size < grid.size for grid in (freq_grid, time_grid)):
        raise ValueError("a grid must not repeat a value")
    return freq_grid, time_grid


def _gaussian_quantiles(n: int) -> np.ndarray:
    """Deterministic stratified standard-normal samples: the midpoint
    quantiles, from ``statistics.NormalDist().inv_cdf``."""
    from statistics import NormalDist

    return np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])


class _Engine:
    """Lab-frame propagation of pulse programs for one (params, field) system.

    All states and unitaries live in the static eigenbasis, where free
    evolution is diagonal and the bright projector is a label mask.
    A tone b(t) = cos(2 pi f t) is phase-coherent in absolute time, so
    each tone gets one table, anchored at t = 0: the products P[k] of the
    first k midpoint substeps of one drive period, and the
    eigendecomposition Q diag(exp(i theta)) Q^dagger of the period
    propagator M = P[_SUBSTEPS].  Up to t = n T + k dt + r the tone
    evolves by W(t) = F P[k] M^n, with F one midpoint step over the
    remainder r, and a pulse from t_a to t_b is W(t_b) W(t_a)^dagger,
    with M^(n_b - n_a) taken from powers of the eigenvalues.  Many
    programs run side by side as the rows of one stacked state:
    ``signals`` plans a list of ``ExperimentSpec``s as program sets of
    ``_sweep``, which runs them all in one call under one drive V =
    ax Vx + az Vz.

    Substep k of every period samples the drive at the phase
    2 pi (k + 1/2) / _SUBSTEPS, so its Hamiltonian E + c_k V does not
    depend on the frequency: one stacked eigh per call serves every
    tone, and a tone's steps differ only in dt = T / _SUBSTEPS.  The
    tables of a call of ``_sweep`` are built together from those
    eigensystems and dropped after it, and the end steps F P[k] of each
    group of at most ``_BLOCK_ROWS`` rows are taken in one stacked pass.
    Vx and Vz are float64 when their imaginary parts are exactly zero
    (no static field along y, strain along Egx only), complex otherwise;
    the same formulas serve both.

    Each call runs on the n x n block of E and V that ``_levels`` picks:
    the four lower-branch levels of the exact 8-level static eigenbasis,
    or all 8.  Its states keep 8 components, the upper ones zero when
    reduced.  ``report`` counts the substep eigensystems, tone tables,
    end steps, end-step passes, sweeps on 4 and on 8 levels and sweeps
    on real drive operators, summed over the engine's calls, with the
    largest figures of ``_levels`` among the sweeps of each size.
    """

    def __init__(self, params: ManifoldParams, bias: MagneticField):
        self.h0 = build_hamiltonian(params, bias)
        self.system = eigensystem(self.h0)
        self.energies = self.system.energies
        self.vx, self.vz = (v.real.copy() if not np.any(v.imag) else v
                            for v in _drive_operators(params, self.system.states))
        self.bright_mask = np.array(
            [lab in ("lower.1B0M", "lower.1B1M") for lab in self.system.labels]
        )
        self._built = dict.fromkeys(("substep_eigensystems", "tone_tables", "end_steps",
                                     "end_step_passes", "sweeps_4_levels",
                                     "sweeps_8_levels", "sweeps_real_operators"), 0)
        self._built.update({f"max_{figure}_{n}_levels": 0.0 for n in (4, 8)
                            for figure in ("leakage", "shift_spread_cycles")})

    def transition_frequency(self, transition: str) -> float:
        a, b = TRANSITIONS[transition]
        return abs(self.system.transition(b, a))

    def rabi_rate(self, transition: str, ax: float, az: float) -> float:
        """Effective on-resonance Rabi frequency of a transition, Hz.

        When the target state sits in an orbital doublet whose splitting
        is below the drive coupling (the 1B pair), the drive transfers
        population into both members at the combined rate
        sqrt(sum |<t|V|a>|^2), which is what an oscillation-period
        calibration measures; for an isolated target this reduces to the
        single matrix element.
        """
        a, b = TRANSITIONS[transition]
        v = ax * self.vx + az * self.vz
        source = self.system.index(a)
        pair = b.split(".")[1][:2]  # "0B" or "1B"
        targets = [self.system.index(f"lower.{pair}{m}M") for m in (0, 1)]
        weight = sum(abs(v[source, t]) ** 2 for t in targets if t != source)
        return math.sqrt(weight)

    def pi_time(self, transition: str, ax: float, az: float) -> float:
        rabi = self.rabi_rate(transition, ax, az)
        if rabi <= 0:
            raise ValueError(f"drive does not couple the {transition} transition")
        return 1.0 / (2.0 * rabi)

    def bright_population(self, psi: np.ndarray):
        """1B population of a state, or of each row of stacked states."""
        return np.sum(np.abs(psi[..., self.bright_mask]) ** 2, axis=-1)

    def report(self) -> dict:
        """How many substep eigensystems, tone tables, end steps and
        stacked end-step passes (one per driven group of rows) this engine
        has built over all its calls, how many of its sweeps ran on 4 and
        on 8 levels and on real drive operators, and the largest leakage
        and shift-spread figures (``_levels``) of each size."""
        return dict(self._built)

    def _levels(self, v, fastest: float, driven_s: float) -> tuple:
        """The levels a sweep propagates, 4 or 8, and the figures that
        chose them: (n, leakage, shift spread in cycles).

        With V_lu the drive V between the lower (l) and upper (u) branch
        and its cosine bounded by 1, the upper branch takes at most the
        population (|V_lu| / gap)^2, the gap less the ``fastest`` tone.
        On the cycle average the drive shifts each lower level by 1/2
        sum_u |V_lu|^2 / (E_l - E_u); a common shift is a global phase,
        and their spread dephases the lower levels over the longest driven
        time ``driven_s`` (no drive, no shift).  These are the terms the
        reduction drops, the second-order effective Hamiltonian
        (Schrieffer-Wolff; Bravyi, DiVincenzo & Loss, Ann. Phys. 326,
        2793 (2011)).  Keep 4 levels when both figures stay within their
        bounds.
        """
        e = self.energies
        gap = float(e[4] - e[3]) - fastest
        v = np.abs(v[:4, 4:])
        leakage = (float(v.max()) / gap) ** 2 if gap > 0 else math.inf
        spread = float(np.ptp(0.5 * np.sum(v ** 2 / (e[:4, None] - e[4:]), axis=1))) * driven_s
        reduce = leakage <= _LEAKAGE_MAX and spread <= _SHIFT_SPREAD_MAX
        return (4 if reduce else 8), leakage, spread

    def _tables(self, freqs, block: tuple) -> tuple:
        """Tables of the tones ``freqs`` (Hz) on the levels of ``block`` =
        (E, V) (see the class notes): the stacks of P[k] Q and of theta,
        row i for tone i.  The tones share one stacked eigh of the substep
        Hamiltonians (real when V is) and are composed side by side
        (``_compose``).  The period propagators M of all tones get one
        finite check, one stacked ``eig`` (``LinAlgError`` if it fails) and
        one stacked QR of the eigenvectors, Q, unitary for degenerate
        eigenphases too (module notes); theta is the eigenvalues' angle.
        P[k] Q is one stacked product over every tone, all k in one matrix."""
        energies, v = block
        n = len(energies)
        c = np.cos(2.0 * math.pi * (np.arange(_SUBSTEPS) + 0.5) / _SUBSTEPS)
        vals, vecs = np.linalg.eigh(np.diag(energies) + c[:, None, None] * v)
        dt = 1.0 / freqs / _SUBSTEPS
        factors = np.exp(-2j * math.pi * vals[:, :, None, None] * dt[:, None])
        p = _compose(vecs, factors).transpose(2, 0, 1, 3)
        self._built["substep_eigensystems"] += 1
        self._built["tone_tables"] += len(freqs)
        period = p[:, -1]
        if not np.all(np.isfinite(period)):
            raise ValueError("a period propagator is not finite")
        w, u = np.linalg.eig(period)
        pq = p.reshape(len(freqs), (_SUBSTEPS + 1) * n, n) @ np.linalg.qr(u).Q
        return pq.reshape(p.shape), np.angle(w)

    def _sweep(self, ax: float, az: float, programs) -> np.ndarray:
        """Final states of the rows of every program set, in order, under
        the one drive V = ax Vx + az Vz.

        A program set (n, layers) runs n programs side by side, each from
        0B0M.  Each layer is (freqs, which, durations): row i is driven at
        ``freqs[which[i]]`` (Hz, positive) for its duration, or evolves
        freely when ``freqs`` is None; a layer starts where the previous
        one ended.  Pulse times do not depend on the state, so the whole
        call is planned before any state moves: the tables of all its
        tones are built together and dropped after the call, and the rows
        of all sets go through in groups of ``_BLOCK_ROWS`` (a group may
        hold rows of several sets), each group taking its end steps in one
        stacked pass (``_group``).  All of it runs on the levels
        ``_levels`` chooses; the upper components of the states stay zero
        when those are the lower four.
        """
        index = {}
        depth = max(len(layers) for _, layers in programs)
        size = sum(n for n, _ in programs)
        kind = np.full((depth, size), -2)   # tone index, -1 free, -2 past the end
        dur = np.zeros((depth, size))
        psi = np.zeros((size, 8), dtype=complex)
        psi[:, self.system.index("lower.0B0M")] = 1.0
        row = 0
        for n, layers in programs:
            rows = slice(row, row + n)
            for j, (freqs, which, d) in enumerate(layers):
                dur[j, rows] = d
                kind[j, rows] = -1 if freqs is None else np.array(
                    [index.setdefault(f, len(index)) for f in freqs])[which]
            row += n
        freqs = np.array(list(index), dtype=float)
        driven_s = float(np.sum(np.where(kind >= 0, dur, 0.0), axis=0).max())
        v = ax * self.vx + az * self.vz
        n, leakage, spread = self._levels(v, max(index, default=0.0), driven_s)
        self._built[f"sweeps_{n}_levels"] += 1
        self._built["sweeps_real_operators"] += v.dtype.kind == "f"
        for figure, value in (("leakage", leakage), ("shift_spread_cycles", spread)):
            key = f"max_{figure}_{n}_levels"
            self._built[key] = max(self._built[key], value)
        block = (self.energies[:n], v[:n, :n])
        pq, theta = self._tables(freqs, block)
        start = np.zeros_like(dur)
        start[1:] = np.cumsum(dur[:-1], axis=0)
        for first in range(0, size, _BLOCK_ROWS):
            rows = slice(first, first + _BLOCK_ROWS)
            self._group(psi[rows, :n], freqs, block, pq, theta, kind[:, rows],
                        start[:, rows], dur[:, rows])
        return psi

    def _group(self, psi, freqs, block, pq, theta, kind, start, dur):
        """Apply the layers of one group of rows to ``psi`` in place, on
        the levels of ``block`` = (E, V) and with the call's tone
        frequencies ``freqs`` and tables ``pq`` and ``theta`` (see
        ``_sweep``).

        Plan: the ends of every driven layer of every row are collected,
        each bitwise-distinct (tone, substep, remainder) once, and their
        end steps F P[k] taken in one pass: F = exp(-2 pi i (E + c V) r)
        from one stacked eigh (a real symmetric one for a real V), then
        the product with P[k].  Run: each layer gathers its rows' end
        steps and applies W(t_b) W(t_a)^dagger.
        """
        energies, v = block
        n = len(energies)
        period = 1.0 / freqs
        driven = [np.flatnonzero(layer >= 0) for layer in kind]
        tone, ends = [], []
        for layer, t0, d, rows in zip(kind, start, dur, driven):
            tone += [layer[rows], layer[rows]]
            ends += [t0[rows], t0[rows] + d[rows]]
        if tone:
            tone, ends = np.concatenate(tone), np.concatenate(ends)
            n_per, rem = np.divmod(ends, period[tone])
            k, frac = np.divmod(rem, period[tone] / _SUBSTEPS)
            # k runs to _SUBSTEPS inclusive when a remainder rounds up
            keys, inv = np.unique(tone * (_SUBSTEPS + 1) + k + 1j * frac,
                                  return_inverse=True)
            (tone, k), frac = np.divmod(keys.real.astype(int), _SUBSTEPS + 1), keys.imag
            t_mid = k * period[tone] / _SUBSTEPS + 0.5 * frac
            c = np.cos(2.0 * math.pi * freqs[tone] * t_mid)
            self._built["end_steps"] += len(keys)
            self._built["end_step_passes"] += 1
            # At most three stacks of ends live at once: E + c V is built in
            # one stack and dropped after eigh, a real V^dagger is cast ahead of
            # the product (which would cast a copy of its own), and each
            # product's inputs go before the next one.
            h = c[:, None, None] * v
            vals, vecs = np.linalg.eigh(np.add(h, np.diag(energies), out=h))
            del h
            vecs_h = np.conj(np.swapaxes(vecs, -1, -2)).astype(complex, copy=False)
            vecs = vecs * np.exp(-2j * math.pi * vals * frac[:, None])[:, None, :]
            g = vecs @ vecs_h
            del vecs, vecs_h
            g = g @ pq[tone, k]   # W(t) without M^n
        pos = 0
        for layer, d, rows in zip(kind, dur, driven):
            free = np.flatnonzero(layer == -1)
            psi[free] = np.exp(-2j * math.pi * energies * d[free][:, None]) * psi[free]
            if rows.size:
                a = slice(pos, pos + rows.size)
                b = slice(a.stop, a.stop + rows.size)
                pos = b.stop
                g_a = g[inv[a]]
                out = np.einsum("nji,nj->ni", np.conj(g_a, out=g_a), psi[rows])
                out *= np.exp(1j * theta[layer[rows]] * (n_per[b] - n_per[a])[:, None])
                psi[rows] = np.einsum("nij,nj->ni", g[inv[b]], out)

    def signals(self, ax: float, az: float, specs,
                noise: NoiseModel = NoiseModel()) -> list:
        """The 1B signal of each ``ExperimentSpec`` of ``specs`` at drive
        amplitudes (ax, az), all run in one ``_sweep``; the engine reads
        specs here only.  A spec is one program set, one row per
        (frequency, noise shift, time): its transition's ``ROUTING``
        pulses around a chevron driven for each time, or around a free
        delay of each time between two pi/2 pulses.  Each signal is the
        mean over the quasi-static shifts of ``noise`` (one shift is
        exact), clipped to [0, 1]; a shift that takes a tone to 0 Hz or
        below is a ``ValueError``."""
        quasi_static = noise.kind == "quasi-static-gaussian" and noise.sigma_hz > 0
        shifts = noise.sigma_hz * _gaussian_quantiles(noise.samples) if quasi_static else [0.0]
        programs = []
        for spec in specs:
            pre, post = ([([self.transition_frequency(key)], 0, self.pi_time(key, ax, az))
                          for key in keys] for keys in ROUTING[spec.transition])
            tones = np.add.outer(spec.freq_hz, shifts).ravel().tolist()
            if min(tones) <= 0.0:
                raise ValueError(f"a quasi-static shift takes a {spec.transition} tone to "
                                 f"{min(tones):g} Hz; drive tones must stay positive")
            which = np.repeat(np.arange(len(tones)), len(spec.time_s))
            times = np.tile(spec.time_s, len(tones))
            if spec.kind == "rabi":
                core = [(tones, which, times)]
            else:
                half = (tones, which, spec.pi_half_s)
                core = [half, (None, 0, times), half]
            programs.append((times.size, pre + core + post))
        psi = self._sweep(ax, az, programs)
        signals, row = [], 0
        for spec, (n, _) in zip(specs, programs):
            signal = self.bright_population(psi[row:row + n]).reshape(
                len(spec.freq_hz), len(shifts), -1)
            signals.append(np.clip(signal.mean(axis=1), 0.0, 1.0))
            row += n
        return signals


def _compose(vecs, phases) -> np.ndarray:
    """Products P[k] of the first k substeps V_k diag(phases_k) V_k^dagger
    (k = 0 .. _SUBSTEPS) of every tone of one drive, side by side: entry
    [k, :, j, :] is P[k] of tone j, so each substep is two 2-D products
    over all tones, V_k^dagger X and V_k X, around a scale of X's rows
    by each tone's phases.  ``vecs`` holds the drive's substep
    eigenvectors V_k and ``phases`` the factors [k, a, j, 0] of
    eigenvalue a and tone j."""
    n, tones = phases.shape[1:3]
    prefix = np.empty((_SUBSTEPS + 1, n, tones, n), dtype=complex)
    prefix[0] = np.eye(n)[:, None]
    vecs_h = np.conj(np.swapaxes(vecs, -1, -2))
    for k in range(_SUBSTEPS):
        x = (vecs_h[k] @ prefix[k].reshape(n, tones * n)).reshape(n, tones, n)
        x *= phases[k]
        np.matmul(vecs[k], x.reshape(n, tones * n), out=prefix[k + 1].reshape(n, tones * n))
    return prefix


def _drive_operators(params: ManifoldParams, basis: np.ndarray) -> tuple:
    """The x and z drive operators per Hz of Larmor amplitude, in ``basis``."""
    scale = params.g_electron * MU_B_HZ_PER_T
    return tuple(basis.conj().T @ zeeman_operator(params, MagneticField(**{b: 1.0 / scale}))
                 @ basis for b in ("bx", "bz"))


def propagate(h0: np.ndarray, params: ManifoldParams, program: PulseProgram,
              timestep: float | None = None, return_unitary: bool = False):
    """Reference piecewise integrator for arbitrary programs.

    Steps through every drive segment with midpoint-sampled constant
    Hamiltonians on all 8 levels, treating the static part exactly at
    each step, with none of ``_Engine``'s tables or level cuts, so that
    it checks them.  The timestep must resolve the fastest tone with at
    least 20 samples per period; gaps and zero-frequency segments are
    evaluated exactly.

    Returns the final state in the fixed product basis (and the full
    sequence unitary when ``return_unitary`` is set).
    """
    system = eigensystem(h0)
    fastest = max((abs(s.frequency_hz) for s in program.segments
                   if not s.is_gap and s.frequency_hz != 0.0), default=0.0)
    if fastest > 0.0:
        required = 1.0 / (20.0 * fastest)
        if timestep is None:
            timestep = 1.0 / (_SUBSTEPS * fastest)
        elif timestep > required:
            raise ValueError(
                f"timestep {timestep:g} s too coarse for a {fastest:g} Hz tone; "
                f"need <= {required:g} s"
            )
    basis = system.states
    energies = system.energies
    vx, vz = _drive_operators(params, basis)
    diag = np.diag(energies).astype(complex)

    def step_u(v, c, dt):
        vals, vecs = np.linalg.eigh(diag + c * v)
        return (vecs * np.exp(-2j * math.pi * vals * dt)) @ vecs.conj().T

    u_total = np.eye(8, dtype=complex)
    t = 0.0
    for seg in program.segments:
        if seg.is_gap or seg.duration_s == 0.0:
            u_seg = np.diag(np.exp(-2j * math.pi * energies * seg.duration_s))
        else:
            v = seg.amplitude_x_hz * vx + seg.amplitude_z_hz * vz
            if seg.frequency_hz == 0.0:
                u_seg = step_u(v, math.cos(seg.phase_rad), seg.duration_s)
            else:
                n = max(1, math.ceil(seg.duration_s / timestep))
                dt = seg.duration_s / n
                u_seg = np.eye(8, dtype=complex)
                for k in range(n):
                    t_mid = t + (k + 0.5) * dt
                    c = math.cos(2.0 * math.pi * seg.frequency_hz * t_mid + seg.phase_rad)
                    u_seg = step_u(v, c, dt) @ u_seg
        u_total = u_seg @ u_total
        t += seg.duration_s

    psi0 = np.zeros(8, dtype=complex)
    psi0[system.index(program.init_label)] = 1.0
    psi = basis @ (u_total @ psi0)
    if return_unitary:
        return psi, basis @ u_total @ basis.conj().T
    return psi


def _map(kind, params, field, ax, az, freq_grid, time_grid, transition,
         pi_half_s=None, noise: NoiseModel = NoiseModel()) -> SignalMap:
    """The map of one spec on its own engine, of the transition nearest the
    mean drive frequency when none is named; a Ramsey map's pi/2 is
    calibrated on resonance when not given."""
    freq_grid, time_grid = _grids(freq_grid, time_grid)
    engine = _Engine(params, field)
    if transition is None:
        f_mean = float(freq_grid.mean())
        transition = min(TRANSITIONS, key=lambda k: abs(
            engine.transition_frequency(k) - f_mean))
    if kind == "ramsey" and pi_half_s is None:
        pi_half_s = 0.5 * engine.pi_time(transition, ax, az)
    spec = ExperimentSpec(kind, transition, freq_grid, time_grid, pi_half_s)
    return SignalMap(spec, engine.signals(ax, az, [spec], noise)[0])


def rabi_map(params: ManifoldParams, field: MagneticField,
             amplitude_x_hz: float, amplitude_z_hz: float,
             freq_grid, time_grid, transition: str | None = None) -> SignalMap:
    """Chevron map: drive for each (frequency, duration), read the 1B signal.

    The drive tone is applied to the initialized 0B0M state after the
    transition's pre-mapping pulses (if any) and followed by its
    post-mapping pulses, mirroring the measurement sequence.  The map
    builds its own engine, whose tables live for this one call.
    """
    return _map("rabi", params, field, amplitude_x_hz, amplitude_z_hz, freq_grid,
                time_grid, transition)


def ramsey_map(params: ManifoldParams, field: MagneticField,
               amplitude_x_hz: float, amplitude_z_hz: float,
               freq_grid, delay_grid, noise: NoiseModel | None = None,
               transition: str | None = None,
               pi_half_s: float | None = None) -> SignalMap:
    """Ramsey map: pi/2 -- free delay -- pi/2 per (frequency, delay).

    The pi/2 duration is calibrated once on resonance (or given
    explicitly, finite and non-negative) and held fixed while the
    frequency is swept, as in the measurement.  Quasi-static noise shifts
    the drive frequency per repetition and is averaged deterministically
    over Gaussian quantiles.  The map builds its own engine, whose
    tables live for this one call.
    """
    noise = noise or NoiseModel()
    if noise.kind == "ornstein-uhlenbeck":
        raise ValueError("ramsey_map supports quasi-static noise; "
                         "use decoupling_scan for OU noise")
    return _map("ramsey", params, field, amplitude_x_hz, amplitude_z_hz, freq_grid,
                delay_grid, transition, pi_half_s, noise)


@dataclass(frozen=True)
class DecouplingResult:
    """Coherence curve of an XY decoupling scan with its stretched-exp fit."""

    total_time_s: np.ndarray
    coherence: np.ndarray
    n_pulses: int
    t2_s: float
    stretch: float
    fit_ok: bool
    message: str = ""


def decoupling_scan(n_pulses: int, delay_grid, noise: NoiseModel) -> DecouplingResult:
    """Coherence under n equidistant XY pi-pulses with OU detuning noise.

    The pi-pulses are ideal and instantaneous (alternating X/Y phases
    refocus identically for pure dephasing), noise is frozen during
    them, and the curve is the noise-averaged Ramsey contrast
    E[cos(2 pi phi)] of the sign-switched detuning integral phi (cycles).
    ``delay_grid`` is the total free-evolution time, finite and
    non-negative; pulses sit at the standard CPMG positions.  The
    stretched exponential exp(-(t/T2)^beta) is fit as the line ln(-ln c)
    = beta ln t - beta ln T2, by least squares over the positive times
    where 0 < c < 1 - 1e-12 (below 1 by more than rounding), so that the
    fit does not depend on how far the curve decays.  It needs two
    distinct such times and a positive slope; otherwise ``fit_ok`` is
    False, with a message, and ``t2_s`` and ``stretch`` are NaN.

    phi is Gaussian, so the curve is exactly exp(-2 pi^2 sigma^2 V)
    (Cywinski et al., PRB 77, 174509 (2008)) and takes no seed.  With
    segment k = 0..n of start t_k, length L_k = x_k tau and sign (-1)^k,
    the phase variance of a unit OU process of correlation time tau is
    V = sum_k 2 tau^2 (x_k - 1 + e^-x_k) + 2 sum_{k<l} (-1)^(k+l) tau^2
    (1 - e^-x_k)(1 - e^-x_l) e^-(t_l - t_{k+1})/tau, summed in one pass
    over the segments.  The terms are taken in units of L, as L (1 -
    e^-x)/x and L^2 2(x - 1 + e^-x)/x^2, the latter as a series below x =
    1e-3, so that at long correlation times nothing cancels or overflows;
    static noise (tau = inf, the ``NoiseModel`` default) gives V =
    (sum_k (-1)^k L_k)^2.

    Because the pulses are ideal and the noise is pure dephasing, the
    curve depends on the noise alone, not on the spin model or on which
    transition carries the qubit.
    """
    if noise.kind != "ornstein-uhlenbeck":
        raise ValueError("decoupling_scan expects an Ornstein-Uhlenbeck noise model")
    if n_pulses < 0:
        raise ValueError("pulse count must be non-negative")
    delay_grid = np.asarray(delay_grid, dtype=float)
    if not np.all(np.isfinite(delay_grid)) or np.any(delay_grid < 0):
        raise ValueError("total times must be finite and non-negative")
    tau_c = noise.correlation_time_s

    # running sums of (-1)^k L_k and of V, and
    # carry = sum_{k<l} (-1)^k tau (1 - e^-x_k) e^-(t_l - t_{k+1})/tau
    start = static = variance = carry = np.zeros_like(delay_grid)
    for k in range(n_pulses + 1):
        end = delay_grid if k == n_pulses else (2 * k + 1) * delay_grid / (2.0 * n_pulses)
        length, sign, start = end - start, (-1.0) ** k, end
        x = length / tau_c  # 0 for static noise
        safe = np.where(x > 0, x, 1.0)
        g1 = np.where(x > 0, -np.expm1(-safe) / safe, 1.0)
        g2 = np.where(x < 1e-3, 1 - x / 3 + x * x / 12 - x ** 3 / 60, 2 * (1 - g1) / safe)
        area, own = length * g1, length * length * g2  # tau (1 - e^-x), 2 tau^2 (x - 1 + e^-x)
        static = static + sign * length
        variance = variance + own + 2.0 * sign * area * carry
        carry = carry * np.exp(-x) + sign * area
    variance = static ** 2 if math.isinf(tau_c) else variance
    coherence = np.exp(-2.0 * (math.pi * noise.sigma_hz) ** 2 * variance)

    t2 = stretch = math.nan
    positive = delay_grid > 0
    # exp(-(t/T2)^beta) makes ln(-ln c) a line in ln t, of slope beta
    fit = positive & (coherence > 0) & (coherence < 1.0 - 1e-12)
    message = ""
    if np.unique(delay_grid[positive]).size < 2:
        message = "the stretched-exponential fit needs two distinct positive total times"
    elif not np.any(coherence[positive] < 1.0 - 1e-12):
        message = "the curve does not decay below 1, so it sets no T2"
    elif np.unique(delay_grid[fit]).size < 2:
        message = ("the stretched-exponential fit needs two distinct positive total times "
                   "with 0 < coherence < 1 - 1e-12")
    else:
        slope, offset = np.polyfit(np.log(delay_grid[fit]), np.log(-np.log(coherence[fit])), 1)
        if slope > 0:
            t2, stretch = math.exp(-offset / slope), float(slope)
        else:
            message = f"the curve's stretch {slope:.3g} is not positive, so it sets no T2"
    return DecouplingResult(delay_grid, coherence, n_pulses, t2, stretch,
                            not message, message)


# --- randomized benchmarking -------------------------------------------------

def _rb_gates():
    """The physical gate set: quarter and half turns about X and Y."""
    gates = []
    for gen in (SIGMA_X, SIGMA_Y):
        for angle in (math.pi / 2, -math.pi / 2, math.pi, -math.pi):
            gates.append(
                math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * gen
            )
    return np.array(gates)


@dataclass(frozen=True)
class RBResult:
    lengths: np.ndarray
    mean_survival: np.ndarray
    stderr: np.ndarray
    fidelity: float
    fidelity_err: float
    decay: float
    amplitude: float
    offset: float
    fit_ok: bool = True
    message: str = ""


def rb_simulate(gate_fidelity: float, lengths=None, sequences_per_length: int = 300,
                seed: int = 0, spam: tuple = (1.0, 0.0)) -> RBResult:
    """Randomized benchmarking round trip with depolarizing gate errors.

    Random sequences from the eight-gate set are closed by the shortest
    recovery to the bright pole.  The gates map the six Pauli eigenstates
    onto each other, so that is no gate at the bright pole and one gate
    anywhere else.  Each applied gate depolarizes the qubit by ``1 -
    gate_fidelity``.  Survival is the exact bright population (no shot
    noise), fit to A p^N + B, so ``lengths`` needs at least three
    distinct whole numbers >= 0; the extracted average gate fidelity is
    1 - (1 - p)/2.  Exactly three lengths fit exactly and leave no error:
    ``fidelity_err`` is then NaN, with a message, and ``fit_ok`` stays
    True.  ``sequences_per_length`` (at least 2) sets each length's mean
    survival and its standard error.

    ``spam`` = (bright level, dark level) mixes in preparation/readout
    imperfection; the default is ideal.
    """
    from scipy.optimize import OptimizeWarning, curve_fit

    if not 0.0 <= gate_fidelity <= 1.0:
        raise ValueError("gate fidelity must be in [0, 1]")
    if lengths is None:
        lengths = np.unique(np.round(np.geomspace(1, 128, 12)).astype(int))
    lengths = np.asarray(lengths, dtype=float)
    if not np.all(np.isfinite(lengths) & (lengths >= 0) & (np.round(lengths) == lengths)):
        raise ValueError("sequence lengths must be whole numbers >= 0")
    lengths = lengths.astype(int)
    if np.unique(lengths).size < 3:
        raise ValueError("the decay A p^N + B needs at least three distinct lengths")
    if sequences_per_length < 2:
        raise ValueError("a standard error needs at least two sequences per length")
    rng = np.random.default_rng(seed)
    gates = _rb_gates()
    lam = 2.0 * gate_fidelity - 1.0
    bright_level, dark_level = spam
    mean_survival = np.empty(lengths.size)
    stderr = np.empty(lengths.size)
    for li, n_gates in enumerate(lengths):
        choice = rng.integers(0, len(gates), size=(sequences_per_length, int(n_gates)))
        # the ideal state of every sequence at once, from |bright> = (1, 0)
        psi = np.broadcast_to([[1.0], [0.0]], (sequences_per_length, 2, 1))
        for step in choice.T:
            psi = gates[step] @ psi
        # the recovery is one gate unless the sequence ends at the bright pole
        depth = n_gates + (np.abs(psi[:, 0, 0]) ** 2 < 0.75)
        # Depolarizing channels commute with unitaries: survival is exact
        # without simulating the density matrix step by step.
        survivals = lam ** depth / 2.0 + 0.5
        survivals = dark_level + (bright_level - dark_level) * survivals
        mean_survival[li] = survivals.mean()
        stderr[li] = survivals.std(ddof=1) / math.sqrt(sequences_per_length)

    def model(n, amp, p, off):
        return amp * p ** n + off

    fit_ok = True
    message = ""
    try:
        with warnings.catch_warnings():
            # a decay that fits exactly leaves no covariance; reported below
            warnings.simplefilter("ignore", OptimizeWarning)
            fitted, cov = curve_fit(
                model, lengths.astype(float), mean_survival,
                p0=[0.5, max(lam, 0.5), 0.5],
                bounds=([0.0, 0.0, -0.5], [1.5, 1.0, 1.0]), maxfev=10000,
            )
        amp, p, off = (float(x) for x in fitted)
        p_err = float(math.sqrt(max(cov[1, 1], 0.0)))
        if not math.isfinite(p_err):
            p_err = math.nan
            message = "the decay fits exactly and leaves no fidelity error"
    except (RuntimeError, ValueError) as exc:
        fit_ok = False
        message = f"decay fit failed: {exc}"
        amp, p, off, p_err = math.nan, math.nan, math.nan, math.nan
    return RBResult(lengths, mean_survival, stderr, 1.0 - (1.0 - p) / 2.0, p_err / 2.0,
                    p, amp, off, fit_ok, message)


def clifford_adjust(physical_fidelity: float) -> float:
    """Average Clifford fidelity when 5 of 13 generating gates are perfect.

    The physical set contributes 8 of the 13 gates per average Clifford
    decomposition; frame-update gates are error-free.
    """
    if not 0.0 <= physical_fidelity <= 1.0:
        raise ValueError("fidelity must be in [0, 1]")
    return 1.0 - (8.0 / 13.0) * (1.0 - physical_fidelity)


__all__ = [
    "TRANSITIONS", "ROUTING",
    "DriveSegment", "PulseProgram", "NoiseModel", "SignalMap", "ExperimentSpec",
    "propagate", "rabi_map", "ramsey_map",
    "DecouplingResult", "decoupling_scan",
    "RBResult", "rb_simulate", "clifford_adjust",
]
