"""Driven ground-state dynamics: Rabi and Ramsey maps, decoupling, benchmarking.

Everything here propagates the full 8-level manifold in the lab frame --
no rotating-wave approximation -- because the smallest microwave
transition (tens of MHz) is not far above the achievable Rabi rates.
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
tones of one drive amplitude and phase share the eigensystems of their
substep Hamiltonians and differ only in the substep length.  Every pixel
of a map is one row of a stacked state that all its pulses act on at
once.  Pulse times do not depend on the state, so the engine plans every
pulse of a call before it runs any: the period tables of all its tones
are built side by side, and the pulse ends of a group of rows -- which
may come from several maps, such as every map of one fit evaluation --
are deduplicated once and integrated in a few stacked passes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur
from scipy.optimize import OptimizeWarning, curve_fit

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
_BLOCK_ROWS = 1024      # programs per group of rows run together; bounds temporaries
_END_STEPS = 256        # pulse-end steps per stacked eigh; bounds the temporaries of _steps


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
    is averaged over ``samples`` deterministic Gaussian quantiles.  OU
    noise is a fluctuating transition frequency with standard deviation
    ``sigma_hz`` and correlation time ``correlation_time_s``, sampled
    stochastically.
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


@dataclass(frozen=True)
class SignalMap:
    """Normalized bright-state signal over a frequency x duration grid."""

    freq_hz: np.ndarray
    duration_s: np.ndarray
    signal: np.ndarray

    def __post_init__(self):
        if self.signal.shape != (len(self.freq_hz), len(self.duration_s)):
            raise ValueError("signal shape must be (n_freq, n_duration)")

    def csv_rows(self) -> list:
        rows = [("freq_hz", "duration_s", "signal")]
        for i, f in enumerate(self.freq_hz):
            for j, t in enumerate(self.duration_s):
                rows.append((repr(float(f)), repr(float(t)), repr(float(self.signal[i, j]))))
        return rows


def _gaussian_quantiles(n: int) -> np.ndarray:
    """Deterministic stratified standard-normal samples (midpoint quantiles)."""
    from scipy.special import ndtri

    return ndtri((np.arange(n) + 0.5) / n)


class _Engine:
    """Lab-frame propagation of pulse programs for one (params, field) system.

    All states and unitaries live in the static eigenbasis, where free
    evolution is diagonal and the bright projector is a label mask.
    A tone b(t) = cos(2 pi f t + phase) is phase-coherent in absolute
    time, so each tone gets one table, anchored at t = 0: the products
    P[k] of the first k midpoint substeps of one drive period, and the
    eigendecomposition Q diag(exp(i theta)) Q^dagger of the period
    propagator M = P[_SUBSTEPS].  Up to t = n T + k dt + r the tone
    evolves by W(t) = F P[k] M^n, with F one midpoint step over the
    remainder r, and a pulse from t_a to t_b is W(t_b) W(t_a)^dagger,
    with M^(n_b - n_a) taken from powers of the eigenvalues.  Many
    programs run side by side as the rows of one stacked state.

    Substep k of every period samples the drive at the phase
    2 pi (k + 1/2) / _SUBSTEPS (negated for f < 0, zero for a constant
    drive), so its Hamiltonian E + c_k V does not depend on the
    frequency: one stacked eigh per (amplitudes, phase, sign of f)
    serves every tone, and a tone's steps differ only in dt = T /
    _SUBSTEPS.  The tables of a call of ``_sweep`` are built together
    from those eigensystems and dropped after it, and the end steps
    F P[k] of each group of rows are taken in stacked passes of at most
    ``_END_STEPS``.  ``report`` counts the substep eigensystems, tone
    tables, end steps and end-step passes the engine has built, summed
    over its calls.
    """

    def __init__(self, params: ManifoldParams, bias: MagneticField):
        self.h0 = build_hamiltonian(params, bias)
        self.system = eigensystem(self.h0)
        self.energies = self.system.energies
        self.vx, self.vz = _drive_operators(params, self.system.states)
        self.bright_mask = np.array(
            [lab in ("lower.1B0M", "lower.1B1M") for lab in self.system.labels]
        )
        self._built = dict.fromkeys(("substep_eigensystems", "tone_tables",
                                     "end_steps", "end_step_passes"), 0)

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

    def free_phases(self, duration) -> np.ndarray:
        return np.exp(-2j * math.pi * self.energies * duration)

    def report(self) -> dict:
        """How many substep eigensystems, tone tables, end steps and
        stacked end-step passes this engine has built over all its calls."""
        return dict(self._built)

    def _steps(self, v: np.ndarray, c: np.ndarray, dt: np.ndarray) -> np.ndarray:
        """Stacked end steps exp(-2 pi i (E + c V) dt) over pulse-end
        remainders, one stacked eigh; ``v`` holds one drive operator per
        end and is overwritten.  The tables' own substeps are taken in
        ``_tables``."""
        self._built["end_steps"] += len(c)
        self._built["end_step_passes"] += 1
        # E + c V in place, with no temporary beside ``v``; dropped after eigh
        h = np.add(np.diag(self.energies), np.multiply(c[:, None, None], v, out=v), out=v)
        vals, vecs = np.linalg.eigh(h)
        del h, v
        vecs_h = np.conj(np.swapaxes(vecs, -1, -2))
        vecs *= np.exp(-2j * math.pi * vals * dt[:, None])[:, None, :]
        return vecs @ vecs_h

    def _tables(self, tones: list) -> tuple:
        """Tables of ``tones`` (see the class notes): the stacks of P[k] Q
        and of theta, row i for tone i.  The tones of one drive (ax, az,
        phase, sign of f) share one stacked eigh of its substep
        Hamiltonians and are composed side by side."""
        pq = np.empty((len(tones), _SUBSTEPS + 1, 8, 8), dtype=complex)
        theta = np.empty((len(tones), 8))
        drives = {}
        for i, (freq, ax, az, phase) in enumerate(tones):
            drives.setdefault((ax, az, phase, np.sign(freq)), []).append(i)
        for (ax, az, phase, sign), rows in drives.items():
            c = np.cos(sign * 2.0 * math.pi * (np.arange(_SUBSTEPS) + 0.5) / _SUBSTEPS
                       + phase)
            vals, vecs = np.linalg.eigh(np.diag(self.energies)
                                        + c[:, None, None] * (ax * self.vx + az * self.vz))
            vecs_h = np.conj(np.swapaxes(vecs, -1, -2))
            dt = _period(np.array([tones[i][0] for i in rows])) / _SUBSTEPS
            phases = np.exp(-2j * math.pi * vals * dt[:, None, None])
            prefix = np.empty((len(rows), _SUBSTEPS + 1, 8, 8), dtype=complex)
            prefix[:, 0] = np.eye(8)
            for k in range(_SUBSTEPS):
                step = (vecs[k] * phases[:, k, None, :]) @ vecs_h[k]
                np.matmul(step, prefix[:, k], out=prefix[:, k + 1])
            for i, p in zip(rows, prefix):
                tri, q = schur(p[-1], output="complex")
                pq[i], theta[i] = p @ q, np.angle(np.diag(tri))
            self._built["substep_eigensystems"] += 1
            self._built["tone_tables"] += len(rows)
        return pq, theta

    def _sweep(self, programs) -> np.ndarray:
        """Final states of the rows of every program set, in order.

        A program set (init_label, n, layers) runs n programs side by
        side.  Each layer is (tones, which, durations): row i is driven by
        ``tones[which[i]]`` for its duration, or evolves freely when
        ``tones`` is None; a layer starts where the previous one ended.
        Pulse times do not depend on the state, so the whole call is
        planned before any state moves: the tables of all its tones are
        built together and dropped after the call, and the rows of all
        sets go through in groups of ``_BLOCK_ROWS`` (a group may hold
        rows of several sets), each group planning its end steps at once
        (``_group``).
        """
        index = {}
        depth = max(len(layers) for _, _, layers in programs)
        size = sum(n for _, n, _ in programs)
        kind = np.full((depth, size), -2)   # tone index, -1 free, -2 past the end
        dur = np.zeros((depth, size))
        psi = np.zeros((size, 8), dtype=complex)
        row = 0
        for label, n, layers in programs:
            rows = slice(row, row + n)
            psi[rows, self.system.index(label)] = 1.0
            for j, (tones, which, d) in enumerate(layers):
                dur[j, rows] = d
                kind[j, rows] = -1 if tones is None else np.array(
                    [index.setdefault(tone, len(index)) for tone in tones])[which]
            row += n
        tones = list(index)
        pq, theta = self._tables(tones)
        start = np.zeros_like(dur)
        start[1:] = np.cumsum(dur[:-1], axis=0)
        for first in range(0, size, _BLOCK_ROWS):
            rows = slice(first, first + _BLOCK_ROWS)
            self._group(psi[rows], tones, pq, theta, kind[:, rows], start[:, rows],
                        dur[:, rows])
        return psi

    def _group(self, psi, tones, pq, theta, kind, start, dur):
        """Apply the layers of one group of rows to ``psi`` in place, with
        the call's tone tables ``pq`` and ``theta`` (see ``_sweep``).

        Plan: the ends of every driven layer of every row are collected,
        each bitwise-distinct (tone, substep, remainder) once, and their
        end steps F P[k] taken in stacked eigh passes of at most
        ``_END_STEPS``.  A constant drive (f = 0) is time-invariant: it
        runs from t = 0, and any period tabulates it exactly.  Run: each
        layer gathers its rows' end steps and applies W(t_b) W(t_a)^dagger.
        """
        freq, ax, az, phase = np.array(tones, dtype=float).reshape(-1, 4).T
        period = _period(freq)
        driven = [np.flatnonzero(layer >= 0) for layer in kind]
        tone, ends = [], []
        for layer, t0, d, rows in zip(kind, start, dur, driven):
            which, t0, d = layer[rows], t0[rows], d[rows]
            dc = freq[which] == 0.0
            tone += [which, which]
            ends += [np.where(dc, 0.0, t0), np.where(dc, d, t0 + d)]
        if tone:
            tone, ends = np.concatenate(tone), np.concatenate(ends)
            n_per, rem = np.divmod(ends, period[tone])
            k, frac = np.divmod(rem, period[tone] / _SUBSTEPS)
            # k runs to _SUBSTEPS inclusive when a remainder rounds up
            keys, inv = np.unique(tone * (_SUBSTEPS + 1) + k + 1j * frac,
                                  return_inverse=True)
            (tone, k), frac = np.divmod(keys.real.astype(int), _SUBSTEPS + 1), keys.imag
            t_mid = k * period[tone] / _SUBSTEPS + 0.5 * frac
            c = np.cos(2.0 * math.pi * freq[tone] * t_mid + phase[tone])
            v = ax[:, None, None] * self.vx + az[:, None, None] * self.vz
            g = np.empty((len(keys), 8, 8), dtype=complex)   # W(t) without M^n
            for first in range(0, len(keys), _END_STEPS):
                part = slice(first, first + _END_STEPS)
                step = self._steps(v[tone[part]], c[part], frac[part])
                np.matmul(step, pq[tone[part], k[part]], out=g[part])
        pos = 0
        for layer, d, rows in zip(kind, dur, driven):
            free = np.flatnonzero(layer == -1)
            psi[free] = self.free_phases(d[free][:, None]) * psi[free]
            if rows.size:
                a = slice(pos, pos + rows.size)
                b = slice(a.stop, a.stop + rows.size)
                pos = b.stop
                g_a = g[inv[a]]
                out = np.einsum("nji,nj->ni", np.conj(g_a, out=g_a), psi[rows])
                out *= np.exp(1j * theta[layer[rows]] * (n_per[b] - n_per[a])[:, None])
                psi[rows] = np.einsum("nij,nj->ni", g[inv[b]], out)

    def _routing(self, transition: str, ax: float, az: float) -> tuple:
        """Layers of the pre- and post-mapping pi-pulses of a transition."""
        return tuple([([(self.transition_frequency(key), ax, az, 0.0)], 0,
                       self.pi_time(key, ax, az)) for key in keys]
                     for keys in ROUTING[transition])

    def run(self, program: PulseProgram) -> np.ndarray:
        """Final state of a program, in the static eigenbasis."""
        layers = [(None if seg.is_gap else [(seg.frequency_hz, seg.amplitude_x_hz,
                                             seg.amplitude_z_hz, seg.phase_rad)],
                   0, seg.duration_s) for seg in program.segments]
        return self._sweep([(program.init_label, 1, layers)])[0]


def _period(freq):
    """Drive period of a tone, s; a constant drive gets a nominal 1 s."""
    return 1.0 / np.where(freq == 0.0, 1.0, np.abs(freq))


def _drive_operators(params: ManifoldParams, basis: np.ndarray) -> tuple:
    """The x and z drive operators per Hz of Larmor amplitude, in ``basis``."""
    scale = params.g_electron * MU_B_HZ_PER_T
    return tuple(basis.conj().T @ zeeman_operator(params, MagneticField(**{b: 1.0 / scale}))
                 @ basis for b in ("bx", "bz"))


def propagate(h0: np.ndarray, params: ManifoldParams, program: PulseProgram,
              timestep: float | None = None, return_unitary: bool = False):
    """Reference piecewise integrator for arbitrary programs.

    Steps through every drive segment with midpoint-sampled constant
    Hamiltonians, treating the static part exactly at each step.  The
    timestep must resolve the fastest tone with at least 20 samples per
    period; gaps and zero-frequency segments are evaluated exactly.

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


def _grids(freq_grid, time_grid) -> tuple:
    """A map's frequency and time grids as arrays: non-empty, finite, and
    with no negative time, so no pulse runs backwards."""
    freq_grid = np.asarray(freq_grid, dtype=float)
    time_grid = np.asarray(time_grid, dtype=float)
    if freq_grid.size == 0 or time_grid.size == 0:
        raise ValueError("grids must be non-empty")
    if not (np.all(np.isfinite(freq_grid)) and np.all(np.isfinite(time_grid))):
        raise ValueError("grids must be finite")
    if np.any(time_grid < 0):
        raise ValueError("durations and delays must be non-negative")
    return freq_grid, time_grid


def _map_setup(params, field, freq_grid, time_grid, transition) -> tuple:
    """A map's checked grids, its engine, and its transition: the one
    nearest the mean drive frequency when none is named."""
    freq_grid, time_grid = _grids(freq_grid, time_grid)
    engine = _Engine(params, field)
    if transition is None:
        f_mean = float(freq_grid.mean())
        transition = min(TRANSITIONS, key=lambda k: abs(
            engine.transition_frequency(k) - f_mean))
    return freq_grid, time_grid, engine, transition


def _program_set(engine, ax, az, freq_grid, time_grid, transition, pi_half_s=None,
                 noise: NoiseModel = NoiseModel()) -> tuple:
    """The program set of a map (see ``_Engine._sweep``), one row per
    (frequency, noise shift, time), and the shape of its rows: a chevron
    driven for each time or, given ``pi_half_s``, a Ramsey map with a free
    delay of each time between two pi/2 pulses."""
    if noise.kind == "quasi-static-gaussian" and noise.sigma_hz > 0:
        shifts = noise.sigma_hz * _gaussian_quantiles(noise.samples)
    else:
        shifts = np.zeros(1)
    pre, post = engine._routing(transition, ax, az)
    tones = [(float(nu), ax, az, 0.0) for nu in np.add.outer(freq_grid, shifts).ravel()]
    n_t = time_grid.size
    which, times = np.repeat(np.arange(len(tones)), n_t), np.tile(time_grid, len(tones))
    if pi_half_s is None:
        core = [(tones, which, times)]
    else:
        half = (tones, which, float(pi_half_s))
        core = [half, (None, 0, times), half]
    return (("lower.0B0M", len(tones) * n_t, pre + core + post),
            (freq_grid.size, shifts.size, n_t))


def _signals(engine, sets) -> list:
    """The 1B signals of map program sets, run in one ``_sweep``, each
    averaged over its noise shifts (a single shift is exact)."""
    psi = engine._sweep([program for program, _ in sets])
    signals, row = [], 0
    for (_, n, _), shape in sets:
        signal = engine.bright_population(psi[row:row + n]).reshape(shape)
        signals.append(np.clip(signal.mean(axis=1), 0.0, 1.0))
        row += n
    return signals


def rabi_map(params: ManifoldParams, field: MagneticField,
             amplitude_x_hz: float, amplitude_z_hz: float,
             freq_grid, time_grid, transition: str | None = None) -> SignalMap:
    """Chevron map: drive for each (frequency, duration), read the 1B signal.

    The drive tone is applied to the initialized 0B0M state after the
    transition's pre-mapping pulses (if any) and followed by its
    post-mapping pulses, mirroring the measurement sequence.  The map
    builds its own engine, whose tables live for this one call.
    """
    freq_grid, time_grid, engine, transition = _map_setup(
        params, field, freq_grid, time_grid, transition)
    chevron = _program_set(engine, amplitude_x_hz, amplitude_z_hz, freq_grid, time_grid,
                           transition)
    return SignalMap(freq_grid, time_grid, _signals(engine, [chevron])[0])


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
    if pi_half_s is not None and not 0.0 <= pi_half_s < math.inf:
        raise ValueError("pi_half_s must be finite and non-negative")
    freq_grid, delay_grid, engine, transition = _map_setup(
        params, field, freq_grid, delay_grid, transition)
    ax, az = amplitude_x_hz, amplitude_z_hz
    if pi_half_s is None:
        pi_half_s = 0.5 * engine.pi_time(transition, ax, az)
    fringe = _program_set(engine, ax, az, freq_grid, delay_grid, transition, pi_half_s,
                          noise)
    return SignalMap(freq_grid, delay_grid, _signals(engine, [fringe])[0])


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


def _ou_segment_samples(rng, delta0, sigma, tau_c, dt):
    """Advance OU noise over one gap: returns (delta_end, integral).

    Exact joint sampling of the end value and the time integral of an
    OU process with stationary variance sigma^2 and correlation time
    tau_c, conditioned on the start value.
    """
    a = math.exp(-dt / tau_c)
    mean_end = a * delta0
    std_end = sigma * math.sqrt(1.0 - a * a)
    mean_int = delta0 * tau_c * (1.0 - a)
    var_int = sigma ** 2 * tau_c ** 2 * (
        2.0 * dt / tau_c - 3.0 + 4.0 * a - a * a
    )
    cov = sigma ** 2 * tau_c * (1.0 - a) ** 2
    # Conditional decomposition: integral = mean + alpha*xi1 + beta*xi2
    # where xi1 is the same standard normal driving the end value.
    xi1 = rng.standard_normal(delta0.shape)
    xi2 = rng.standard_normal(delta0.shape)
    delta1 = mean_end + std_end * xi1
    alpha = cov / std_end if std_end > 0 else 0.0
    beta = math.sqrt(max(var_int - alpha * alpha, 0.0))
    integral = mean_int + alpha * xi1 + beta * xi2
    return delta1, integral


def decoupling_scan(n_pulses: int, delay_grid, noise: NoiseModel,
                    seed: int = 0) -> DecouplingResult:
    """Coherence under n equidistant XY pi-pulses with OU detuning noise.

    The pi-pulses are ideal and instantaneous (alternating X/Y phases
    refocus identically for pure dephasing), noise is frozen during
    them, and the curve is the noise-averaged Ramsey contrast
    E[cos(accumulated filtered phase)].  ``delay_grid`` is the total
    free-evolution time, finite and non-negative; pulses sit at the
    standard CPMG positions.  The stretched exponential exp(-(t/T2)^beta)
    is fit to the positive times if at least two of them differ;
    otherwise ``fit_ok`` is False, with a message.

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
    rng = np.random.default_rng(seed)
    sigma, tau_c = noise.sigma_hz, noise.correlation_time_s

    coherence = np.empty(delay_grid.size)
    for idx, total in enumerate(delay_grid):
        if total == 0.0 or sigma == 0.0:
            coherence[idx] = 1.0
            continue
        if n_pulses > 0:
            pulses = (2.0 * np.arange(1, n_pulses + 1) - 1.0) * total / (2.0 * n_pulses)
            edges = np.concatenate(([0.0], pulses, [total]))
        else:
            edges = np.array([0.0, total])
        delta = sigma * rng.standard_normal(noise.samples)
        phase = np.zeros(noise.samples)
        sign = 1.0
        for k in range(len(edges) - 1):
            dt = edges[k + 1] - edges[k]
            delta, integral = _ou_segment_samples(rng, delta, sigma, tau_c, dt)
            phase += sign * integral
            sign = -sign
        coherence[idx] = float(np.mean(np.cos(2.0 * math.pi * phase)))

    def stretched(t, t2, beta):
        return np.exp(-((t / t2) ** beta))

    t2 = stretch = math.nan
    positive = delay_grid > 0
    message = ""
    if np.unique(delay_grid[positive]).size < 2:
        message = "the stretched-exponential fit needs two distinct positive total times"
    else:
        try:
            with warnings.catch_warnings():
                # two times fit exactly and leave no covariance, which is unused
                warnings.simplefilter("ignore", OptimizeWarning)
                fitted, _ = curve_fit(
                    stretched, delay_grid[positive], coherence[positive],
                    p0=[max(delay_grid[positive].mean(), 1e-9), 1.5],
                    bounds=([1e-12, 0.3], [np.inf, 6.0]), maxfev=10000,
                )
            t2, stretch = float(fitted[0]), float(fitted[1])
        except (RuntimeError, ValueError) as exc:
            message = f"stretched-exponential fit failed: {exc}"
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

    def csv_rows(self) -> list:
        rows = [("length", "mean_survival", "stderr")]
        rows.extend(
            (repr(int(n)), repr(float(m)), repr(float(s)))
            for n, m, s in zip(self.lengths, self.mean_survival, self.stderr)
        )
        return rows


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
    "DriveSegment", "PulseProgram", "NoiseModel", "SignalMap",
    "propagate", "rabi_map", "ramsey_map",
    "DecouplingResult", "decoupling_scan",
    "RBResult", "rb_simulate", "clifford_adjust",
]
