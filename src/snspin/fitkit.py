"""Parameter recovery from driven-dynamics maps.

The measurable inputs are Rabi chevrons and Ramsey fringes of the three
microwave transitions.  Six parameters are free by default: the static
bias and drive amplitudes along x and z (as electron drive strengths,
Hz) and the two hyperfine constants.  The spin-orbit splitting and the
orbital quenching factor are held fixed -- the maps constrain them only
through ratios that the hyperfine parameters already absorb.  The
Jahn-Teller strain is in the same position: in the lower orbital branch
it enters only through the mixing angle, sin(theta) = 2 alpha / Delta
with Delta = sqrt(lambda^2 + 4 alpha^2), while every transverse coupling
enters as coupling x sin(theta).  Rescaling the transverse field, drive
and hyperfine terms by the change of sin(theta) therefore leaves the
lower-branch Hamiltonian unchanged to first order, and the maps cannot
tell the strain apart.  It stays freeable by name for data that pin the
ground-state splitting Delta, such as optical spectra.

Each map is an ``ExperimentSpec``, which lives in :mod:`snspin.dynamics`
(the engine reads it there) and is re-exported here.

Calibration reads the chevron frequencies and the memory Rabi rate in
closed form, with no map simulated.  Fitting is trust-region least
squares on the residual vector, over parameters normalized by their
starting values, since the raw scales span Hz to THz.  It is staged
from the chevrons to the longest fringes.  Parameter uncertainties are
the Gauss-Newton curvature errors of the sum-of-squares loss at the
optimum, reported relative.

Most of a fit's evaluations are the 2n points of its central-difference
Jacobians, which do not depend on each other.  A fit runs them side by
side: the calling process takes one share, and each worker of a
fork-context ``concurrent.futures.ProcessPoolExecutor``, one per further
CPU of ``os.sched_getaffinity(0)`` but no more than 2n - 1, takes one of
the others.  The executor forks all its workers at the fit's first
Jacobian and is shut down before the fit returns.  With one CPU, or
where ``fork`` is unavailable, there is no executor and the caller runs
every point.  Either way the
fit's result, its evaluation count included, is the same bit for bit.
The pool's modules, ``multiprocessing`` and ``concurrent.futures``, load
at the first fit (in :func:`_workers` and :class:`_Pool`), as does scipy's
``least_squares``, so importing this module loads none of them.
"""

from __future__ import annotations

import math
import os
import signal
import threading
from dataclasses import dataclass, replace

import numpy as np

from .params import (ManifoldParams, MagneticField, electron_larmor_hz,
                     field_for_larmor, ground_defaults, reference_field)
from . import dynamics
from .dynamics import ExperimentSpec
from .csvio import load_signal_csv, save_signal_csv  # noqa: F401 (re-exported)

FIT_PARAM_NAMES = (
    "b_x_dc_hz", "b_z_dc_hz", "b_x_ac_hz", "b_z_ac_hz",
    "a_par_hz", "a_perp_hz", "alpha_hz",
)
# What the microwave maps determine: everything but the strain.
DEFAULT_FREE = tuple(n for n in FIT_PARAM_NAMES if n != "alpha_hz")


@dataclass(frozen=True)
class FitParams:
    """The fit's parameter bundle: seven fittable values plus fixed context.

    Field and drive amplitudes are electron drive strengths g mu_B B / h
    in Hz.  ``lambda_soc_hz`` and ``orbital_quench_q`` are fixed inputs,
    not fitted; they default to the ground manifold's.
    """

    b_x_dc_hz: float
    b_z_dc_hz: float
    b_x_ac_hz: float
    b_z_ac_hz: float
    a_par_hz: float
    a_perp_hz: float
    alpha_hz: float
    lambda_soc_hz: float = ground_defaults().lambda_soc
    orbital_quench_q: float = ground_defaults().orbital_quench_q

    @classmethod
    def reference(cls) -> "FitParams":
        """The reference device: the ground manifold's defaults in
        :func:`reference_field`, driven at 8.92 MHz (x) and 5.00 MHz (z)."""
        ground, field = ground_defaults(), reference_field()
        return cls(
            b_x_dc_hz=electron_larmor_hz(field.bx, ground.g_electron),
            b_z_dc_hz=electron_larmor_hz(field.bz, ground.g_electron),
            b_x_ac_hz=8.92e6, b_z_ac_hz=5.00e6,
            a_par_hz=ground.a_par, a_perp_hz=ground.a_perp,
            alpha_hz=ground.strain_egx,
        )

    def free_values(self, names=FIT_PARAM_NAMES) -> np.ndarray:
        return np.array([getattr(self, n) for n in names])

    def with_free_values(self, values, names=FIT_PARAM_NAMES) -> "FitParams":
        return replace(self, **dict(zip(names, map(float, values))))

    def to_model(self):
        """(ManifoldParams, MagneticField, (ax_hz, az_hz)) for the engine."""
        params = ManifoldParams(
            lambda_soc=self.lambda_soc_hz,
            a_par=self.a_par_hz,
            a_perp=self.a_perp_hz,
            strain_egx=self.alpha_hz,
            orbital_quench_q=self.orbital_quench_q,
        )
        field = MagneticField(
            bx=field_for_larmor(self.b_x_dc_hz, params.g_electron),
            bz=field_for_larmor(self.b_z_dc_hz, params.g_electron),
        )
        return params, field, (self.b_x_ac_hz, self.b_z_ac_hz)


def simulate_experiment(theta: FitParams, spec: ExperimentSpec) -> dynamics.SignalMap:
    """Model map for one spec: :func:`_simulate_all` of that spec alone."""
    return dynamics.SignalMap(spec, _simulate_all(theta, (spec,))[0])


def _simulate_all(theta: FitParams, specs) -> list:
    """Model signals of every spec from one system of ``theta``, in one
    planned engine run (``_Engine.signals``)."""
    params, field, (ax, az) = theta.to_model()
    return dynamics._Engine(params, field).signals(ax, az, specs)


def _nuisance_rescale(sim: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Best amplitude/offset a*sim + b against data, in closed form."""
    s, d = sim.ravel(), data.ravel()
    if s.min() == s.max():  # a constant map fits by its offset alone
        return np.full_like(sim, d.mean())
    a = ((s - s.mean()) @ (d - d.mean())) / (s.var() * s.size)
    b = d.mean() - a * s.mean()
    return a * sim + b


@dataclass(frozen=True)
class FitProblem:
    """Datasets plus the parameterization of the fit.

    ``free`` names the parameters the optimizer may move (the rest stay
    at ``initial``; by default that is the strain alone); ``bounds``
    optionally limits them as absolute (low, high) pairs.  ``nuisance``
    enables a per-dataset closed-form amplitude/offset pair absorbing
    unquantified readout scaling.  The loss is the plain sum of squared
    residuals over all datasets.
    """

    specs: tuple
    data: tuple
    initial: FitParams
    free: tuple = DEFAULT_FREE
    bounds: dict | None = None
    nuisance: bool = False

    def __post_init__(self):
        if len(self.specs) != len(self.data) or not self.specs:
            raise ValueError("need one data array per spec")
        for spec, d in zip(self.specs, self.data):
            dynamics.SignalMap(spec, np.asarray(d))  # refuses a data shape off the grid
        unknown = set(self.free) - set(FIT_PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown free parameters: {sorted(unknown)}")
        for name, (lo, hi) in (self.bounds or {}).items():
            if name not in FIT_PARAM_NAMES:
                raise ValueError(f"bound on unknown parameter {name!r}")
            if not lo < hi:
                raise ValueError(f"bounds for {name} must be ordered (low < high)")
            v = getattr(self.initial, name)
            if not lo <= v <= hi:
                raise ValueError(f"initial {name}={v:g} outside bounds ({lo:g}, {hi:g})")

    def residual_maps(self, theta: FitParams) -> tuple:
        maps = []
        for sim, d in zip(_simulate_all(theta, self.specs), self.data):
            if self.nuisance:
                sim = _nuisance_rescale(sim, np.asarray(d))
            maps.append(sim - np.asarray(d))
        return tuple(maps)

    def residuals(self, theta: FitParams) -> np.ndarray:
        return np.concatenate([m.ravel() for m in self.residual_maps(theta)])

    def loss(self, theta: FitParams) -> float:
        r = self.residuals(theta)
        return float(r @ r)


@dataclass(frozen=True)
class FitResult:
    params: FitParams
    loss: float
    errors_rel: dict
    transitions_hz: dict
    n_eval: int
    success: bool
    message: str = ""


# Relative finite-difference step of the residual Jacobian, in the
# normalized coordinates of the fit.
_FD_STEP = 1e-6

# Step tolerance of the trust-region optimizer, in the same coordinates.
_XTOL = 1e-4


def _jacobian(residuals, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian at normalized ``x``.

    ``residuals`` maps a list of points to their residual vectors; it
    gets all 2n points at once, x + h e_k then x - h e_k for each column
    k in turn, so that it may evaluate them side by side.

    The step must stay in the linear regime: a 1e-4 change of a
    hyperfine constant already moves the 40 us fringes by radians, and
    the leading singular values only settle at steps of 1e-6 and below.
    Central differences keep the truncation error of those stiff
    columns out of the weakest direction, which they would otherwise
    swamp.  It also needs residuals free of steps: the engine takes
    drive phases and pulse times as they are, with no rounding or
    binning, which would put steps into the weakest column.
    """
    points = []
    for k in range(x.size):
        shift = np.zeros(x.size)
        shift[k] = _FD_STEP
        points += [x + shift, x - shift]
    r = residuals(points)
    return np.column_stack([(r[2 * k] - r[2 * k + 1]) / (2 * _FD_STEP)
                            for k in range(x.size)])


def _workers(points: int) -> int:
    """Worker processes a fit forks for Jacobians of ``points`` points:
    one per CPU of ``os.sched_getaffinity`` beyond the caller's own, but
    no more than the points beyond the caller's one, since the executor
    forks every worker at its first submit, with work or not.  None where
    ``fork`` or the affinity call is unavailable, in a daemonic process
    (which may not have children) and while other Python threads run (a
    lock one of them holds would stay locked in the child)."""
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity")
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return 0
    return min(len(os.sched_getaffinity(0)), points) - 1


def _start_worker(fn):
    """A Jacobian worker's initializer: keeps the fit's ``fn``, which the
    fork inherits and nothing pickles, and ignores Ctrl-C, which the
    caller receives too and ends the fit on."""
    global _worker_fn
    _worker_fn = fn
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_share(key, points) -> list:
    """One worker's share of a Jacobian's points."""
    return [_worker_fn(key, p) for p in points]


class _Pool:
    """``fn(key, point)`` over lists of points, shared between the caller
    and the ``n_workers`` processes of a fork-context
    :class:`~concurrent.futures.ProcessPoolExecutor`.

    The executor forks its workers at the first :meth:`map` that has work
    for them, so they inherit ``fn`` and all it reads as it stands then,
    and only ``(key, points)`` and their values are pickled.  Leaving a
    ``with`` block joins them.
    """

    def __init__(self, fn, n_workers: int):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self.fn, self.n = fn, n_workers + 1
        self.executor = ProcessPoolExecutor(
            n_workers, multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(fn,)) if n_workers else None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.executor:
            self.executor.shutdown()

    def map(self, key, points: list) -> list:
        """``[fn(key, p) for p in points]``, in order.  The caller runs
        the first share of the points while each worker runs one of the
        others.  A worker's exception is raised here, and a worker that
        dies raises ``BrokenProcessPool``; leaving the ``with`` block
        then waits for the shares still running."""
        cut = [-(-len(points) * i // self.n) for i in range(self.n + 1)]  # ceil
        shares = [self.executor.submit(_run_share, key, points[a:b])
                  for a, b in zip(cut[1:], cut[2:]) if a < b]
        out = [self.fn(key, p) for p in points[:cut[1]]]
        for share in shares:
            out += share.result()
        return out


def derived_transitions(theta: FitParams) -> dict:
    """Microwave transition frequencies (Hz) at a parameter point."""
    params, field, _ = theta.to_model()
    engine = dynamics._Engine(params, field)
    return {key: engine.transition_frequency(key) for key in dynamics.TRANSITIONS}


def estimate_transition_frequency(spec: ExperimentSpec, data) -> float:
    """Signal-weighted center frequency of one measured chevron map.

    Weighs each drive frequency by the peak-to-peak signal along the
    duration axis, which peaks on resonance.  Good to a fraction of the
    Rabi width; meant to seed :func:`calibrate_initial`, not to replace
    the fit.
    """
    m = dynamics.SignalMap(spec, np.asarray(data, dtype=float))
    weights = m.signal.max(axis=1) - m.signal.min(axis=1)
    total = weights.sum()
    if total <= 0:
        raise ValueError("map has no signal contrast to locate a transition")
    return float(weights @ m.freq_hz / total)


# What the calibration sets: the hyperfine constants from the chevron
# frequencies and the z drive from the memory Rabi rate.  The DC fields
# barely move either (< 0.03% per 1%), the 1B doublet beats in the other
# chevrons' columns (a cosine read of their rates is 5-7% high), and the
# transverse couplings compensate the strain (module notes), so the
# fields, the x drive and the strain are left to the fit.
_CALIBRATION_NAMES = ("a_par_hz", "a_perp_hz", "b_z_ac_hz")


def _rabi_rate_read(times, column, detuning_hz: float) -> float:
    """On-resonance Rabi rate of one chevron column, Hz.

    The best W of a + b cos(2 pi W t), least squares in a and b, on a
    1 kHz grid from 0.5 MHz up to 10 MHz or the column's Nyquist
    frequency, whichever is lower (above it a cosine aliases onto the
    samples); less the detuning delta, as sqrt(W^2 - delta^2).  0 when
    the grid is empty or W does not exceed the detuning.
    """
    t = np.asarray(times, dtype=float)
    w = np.arange(0.5e6, min(10e6, 0.5 / np.diff(np.sort(t)).max()), 1e3)
    if not w.size:
        return 0.0
    c = np.cos(2 * math.pi * np.outer(w, t))
    c -= c.mean(axis=1, keepdims=True)
    # the best W explains the most variance, (c.d)^2 / (c.c)
    explained = (c @ (column - np.mean(column))) ** 2 / np.einsum("ij,ij->i", c, c)
    return math.sqrt(max(w[np.argmax(explained)] ** 2 - detuning_hz ** 2, 0.0))


def calibrate_initial(problem: FitProblem, max_eval: int = 2000) -> FitParams:
    """Spectroscopic calibration before the full fit, in closed form.

    A ±5% parameter offset moves the microwave transitions by tens of
    MHz -- several chevron windows -- so a local descent started there
    only sees flat loss.  This reads each chevron's transition frequency
    (:func:`estimate_transition_frequency`) and the memory chevron's
    Rabi rate in its column nearest that frequency
    (:func:`_rabi_rate_read`).  Trust-region least squares (at most
    ``max_eval`` evaluations) then matches the hyperfine constants to the
    frequencies and the z drive to the rate, through the static system's
    transition frequencies and Rabi rates: no map is simulated.
    Frequency residuals are in MHz, as a chevron centroid's error is
    absolute, and the rate's is relative: 1 MHz weighs as much as 100%.
    The normalized values are bounded below by 0, so no calibrated
    parameter changes sign (a Rabi rate reads the same for either sign of
    the z drive).

    Only parameters in ``problem.free`` are touched; returns the
    calibrated parameter set (the problem itself is immutable).
    """
    return _calibrated(problem, max_eval)


def _calibrated(problem: FitProblem, max_eval: int = 2000) -> FitParams:
    """:func:`calibrate_initial`, under the name the fit calls it by."""
    from scipy.optimize import least_squares

    free = tuple(n for n in _CALIBRATION_NAMES if n in problem.free)
    targets = []  # (transition, measured frequency, memory rate or 0)
    for spec, d in zip(problem.specs, problem.data):
        if spec.kind == "rabi":
            f_hat = estimate_transition_frequency(spec, d)
            col = int(np.argmin(np.abs(np.asarray(spec.freq_hz) - f_hat)))
            rate = (_rabi_rate_read(spec.time_s, np.asarray(d)[col],
                                    spec.freq_hz[col] - f_hat)
                    if spec.transition == "memory" else 0.0)
            targets.append((spec.transition, f_hat, rate))
    if not free or not targets:
        return problem.initial
    initial, base = problem.initial, problem.initial.free_values(free)

    def residuals(x):
        theta = initial.with_free_values(x * base, free)
        params, field, (ax, az) = theta.to_model()
        engine = dynamics._Engine(params, field)
        return np.array(
            [(engine.transition_frequency(key) - f_hat) / 1e6 for key, f_hat, _ in targets]
            + [engine.rabi_rate(key, ax, az) / rate - 1.0
               for key, _, rate in targets if rate > 0])

    res = least_squares(residuals, np.ones(len(free)), method="trf", bounds=(0.0, np.inf),
                        max_nfev=max_eval)
    return initial.with_free_values(res.x * base, free)


class _BudgetExhausted(Exception):
    """Raised inside an optimizer run once ``max_eval`` is used up."""


def _curriculum(problem: FitProblem) -> list:
    """Nested sub-problems of growing reach, ending with ``problem`` itself.

    The chevrons come first, then the Ramsey sets in order of their
    longest delay, so each stage starts with the transition frequencies
    pinned by shorter maps, inside the capture range of its longer
    fringes.  Sets whose longest delays lie within a factor two of each
    other resolve frequencies alike and enter together.
    """
    reach = [0.0 if s.kind == "rabi" else max(s.time_s) for s in problem.specs]
    order = sorted(range(len(reach)), key=reach.__getitem__)
    stages = []
    group_reach = 0.0
    for pos, i in enumerate(order):
        if reach[i] > 2.0 * group_reach:
            if pos:
                stages.append(replace(
                    problem, specs=tuple(problem.specs[j] for j in order[:pos]),
                    data=tuple(problem.data[j] for j in order[:pos])))
            group_reach = reach[i]
    return stages + [problem]


def fit_parameters(problem: FitProblem, seed: int = 0, max_eval: int = 2000,
                   with_errors: bool = True) -> FitResult:
    """Recover the free parameters by staged trust-region least squares.

    The optimizer (scipy's bounded trust-region reflective method) works
    on the residual vector over values normalized by the problem's
    initial point, so all directions have comparable scale, and stops at
    a step of ``_XTOL`` in those units.  It follows :func:`_curriculum`:
    the chevrons first, then ever longer Ramsey fringes.  Each stage runs
    one descent, from the best of its candidate starts: the first stage's
    are the problem's initial point and that point as
    :func:`calibrate_initial` leaves it, clipped into ``bounds``; the last
    stage's are the previous stage's optimum and the initial point, which
    earlier stages may have lost; any other stage starts from the previous
    optimum.  Candidates that differ are each scored by one evaluation
    before the descent, and bitwise equal ones are not scored.  The best
    point a stage evaluated, its candidates included, goes on to the
    next.  Nothing reads ``seed``; it stays for the callers that pass it
    until the benchmark next changes.

    Each Jacobian's 2n points (:func:`_jacobian`) run at once: the
    caller takes the first share and each worker of a fork-context
    ``ProcessPoolExecutor`` one of the rest, with one worker per CPU of
    ``os.sched_getaffinity(0)`` beyond the caller's own, up to 2n - 1
    (:func:`_workers`; none with one CPU or where ``fork`` is
    unavailable).  The executor forks its workers at the first Jacobian
    and is always shut down, its workers joined, before the fit returns.
    A worker's exception is raised here, and a worker that dies raises
    ``BrokenProcessPool``, a ``RuntimeError``.

    ``max_eval`` (at least 1) bounds every residual evaluation of the
    fit, finite-difference Jacobian points included, and ``n_eval``
    counts them all, wherever they ran.  Once it is used up the fit
    stops with ``success`` False and the best point so far; a Jacobian
    that it cuts short simulates the points the budget still holds, in
    column order, and no more.  A stage before the last keeps one
    evaluation back, so the result is always scored on the full
    problem.  Relative uncertainties come from the Gauss-Newton
    curvature at the optimum, reusing the Jacobian the optimizer took
    there; a singular information matrix is reported in the message
    rather than raised.
    """
    from scipy.optimize import least_squares

    names = tuple(problem.free)
    initial = problem.initial
    if not names:
        return FitResult(
            params=initial, loss=problem.loss(initial), errors_rel={},
            transitions_hz=derived_transitions(initial), n_eval=1,
            success=True, message="no free parameters; loss evaluated only",
        )
    start = initial.free_values(names)
    if np.any(start == 0):
        raise ValueError("initial values must be non-zero (they set the scale)")
    if max_eval < 1:
        raise ValueError("max_eval must be at least 1")

    lo = np.full(len(names), -np.inf)
    hi = np.full(len(names), np.inf)
    for k, n in enumerate(names):
        if n in (problem.bounds or {}):
            # sorted: a negative start flips the ratio
            lo[k], hi[k] = sorted(b / start[k] for b in problem.bounds[n])

    stages = _curriculum(problem)
    last = len(stages) - 1
    state = {"n": 0, "limit": max_eval}

    def residuals(k, x):
        return stages[k].residuals(initial.with_free_values(start * x, names))

    def evaluate(k, points):
        """Residuals of stage ``k`` at ``points``, each one counted: as
        many as the budget has room for are simulated, and if that is
        not all of them the budget is exhausted."""
        room = max(state["limit"] - state["n"], 0)
        state["n"] += min(room, len(points))
        out = pool.map(k, points[:room])
        if room < len(points):
            raise _BudgetExhausted
        return out

    def fun(x, k, best):
        """Stage ``k``'s residuals at ``x``; ``best`` keeps the best point."""
        r = evaluate(k, [x])[0]
        val = float(r @ r)
        if val < best["loss"]:
            best.update(loss=val, x=x.copy(), jac=None)
        return r

    def jac(x, k, best):
        j = _jacobian(lambda points: evaluate(k, points), x)
        if np.array_equal(x, best["x"]):
            best["jac"] = j
        return j

    x = np.ones(len(names))
    exhausted = False
    with _Pool(residuals, _workers(2 * len(names))) as pool:
        for k in range(len(stages)):
            # an earlier stage leaves one evaluation for the full problem
            state["limit"] = max_eval if k == last else max_eval - 1
            candidates = [x]
            if k == 0:
                # the closed-form calibration of the caller's start
                candidates.append(np.clip(_calibrated(problem).free_values(names) / start,
                                          lo, hi))
            elif k == last:
                # the caller's own start, which earlier stages may have lost
                candidates.append(np.ones(len(names)))
            outcome = {"loss": math.inf, "x": x, "jac": None}
            try:
                # one descent, from the lowest-scoring of candidates that differ
                if any(not np.array_equal(c, x) for c in candidates):
                    for c in candidates:
                        fun(c, k, outcome)
                res = least_squares(fun, outcome["x"], jac=jac, bounds=(lo, hi),
                                    method="trf", xtol=_XTOL, args=(k, outcome))
                outcome.update(success=bool(res.success), message=str(res.message))
            except _BudgetExhausted:
                exhausted = True
            x = outcome["x"]
            if exhausted:
                break
        if k != last:
            # the evaluation kept back scores the stage's best point
            state["limit"] = max_eval
            r = evaluate(last, [x])[0]
            outcome = {"loss": float(r @ r), "x": x, "jac": None}

    best = initial.with_free_values(start * outcome["x"], names)
    success = not exhausted and outcome["success"]
    message = (f"evaluation budget of {max_eval} exhausted" if exhausted
               else outcome["message"])
    errors = {}
    if with_errors:
        rel = np.full(len(names), math.nan)
        jac = outcome["jac"]
        if jac is None:
            message += "; no Jacobian at the optimum"
        else:
            s2 = outcome["loss"] / max(jac.shape[0] - len(names), 1)
            try:
                cov = s2 * np.linalg.inv(jac.T @ jac)
                rel = np.sqrt(np.clip(np.diag(cov), 0.0, None)) / np.abs(outcome["x"])
            except np.linalg.LinAlgError:
                message += "; information matrix singular"
        errors = dict(zip(names, map(float, rel)))

    return FitResult(
        params=best, loss=outcome["loss"], errors_rel=errors,
        transitions_hz=derived_transitions(best), n_eval=state["n"],
        success=success, message=message,
    )


def _period_aligned(delays, freq_hz):
    """Round free delays to drive-period multiples (synthesized clock).

    This keeps the second Ramsey pulse phase-locked to the tone, as in a
    synthesizer-timed measurement.  The sub-period rounding (< 2 ns) is
    stored in the spec, so data and model stay consistent.  Delays closer
    than a period round to one count, which the grid keeps once.
    """
    period = 1.0 / freq_hz
    return tuple(np.unique(np.round(np.asarray(delays) / period)) * period)


def reference_problem(noise_rel: float = 0.0, seed: int = 0,
                      n_freq: int = 7, n_time: int = 14,
                      n_delay: int = 40, n_long: int = 44) -> FitProblem:
    """Synthesize the standard fit input at :meth:`FitParams.reference`.

    One Rabi chevron per microwave transition (windowed around each
    transition frequency), detuned single-frequency Ramsey scans of the
    broker and green transitions over 6 us, and one Ramsey scan per
    transition over 40 us.  The chevrons pin the drive amplitudes and
    hyperfine scales; the short Ramsey fringes resolve the 1B beat; the
    long fringes amplify sub-kilohertz transition-frequency errors that
    the chevrons cannot see, which is what pins the static transverse
    field along the valley the shorter maps leave open.  None of them
    separates the strain from the transverse couplings, which can
    compensate it (see the module notes), so the problem's default
    free set leaves it out.  ``noise_rel`` > 0 adds Gaussian noise of
    that standard deviation, in signal units and independent of the
    signal, to every point.  The problem starts at the truth.
    """
    theta = FitParams.reference()
    params, field, (ax, az) = theta.to_model()
    engine = dynamics._Engine(params, field)
    rng = np.random.default_rng(seed)
    specs, data = [], []
    spans = {"broker": 620e-9, "memory": 900e-9, "broker_m1": 620e-9}
    for key in ("broker", "memory", "broker_m1"):
        nu0 = engine.transition_frequency(key)
        freqs = tuple(nu0 + np.linspace(-8e6, 8e6, n_freq))
        times = tuple(np.linspace(20e-9, spans[key], n_time))
        specs.append(ExperimentSpec("rabi", key, freqs, times, label=key))
    for key, detune in (("broker", 3.0e6), ("broker_m1", 2.5e6)):
        nu0 = engine.transition_frequency(key)
        pi_half = 0.5 * engine.pi_time(key, ax, az)
        nu = nu0 + detune
        delays = _period_aligned(np.linspace(0.0, 6.0e-6, n_delay), nu)
        specs.append(ExperimentSpec("ramsey", key, (nu,), delays,
                                    pi_half_s=pi_half, label=f"{key}-ramsey"))
    for key, detune in (("broker", 3.0e6), ("memory", 2.5e6),
                        ("broker_m1", 2.5e6)):
        nu0 = engine.transition_frequency(key)
        pi_half = 0.5 * engine.pi_time(key, ax, az)
        nu = nu0 + detune
        delays = _period_aligned(np.linspace(0.0, 40e-6, n_long), nu)
        specs.append(ExperimentSpec("ramsey", key, (nu,), delays,
                                    pi_half_s=pi_half, label=f"{key}-ramsey-long"))
    for sig in engine.signals(ax, az, specs):
        if noise_rel > 0:
            sig = sig + noise_rel * rng.standard_normal(sig.shape)
        data.append(sig)
    return FitProblem(tuple(specs), tuple(data), theta)


__all__ = [
    "FIT_PARAM_NAMES", "DEFAULT_FREE", "FitParams", "ExperimentSpec",
    "simulate_experiment", "FitProblem", "FitResult", "fit_parameters", "derived_transitions",
    "estimate_transition_frequency", "calibrate_initial",
    "save_signal_csv", "load_signal_csv", "reference_problem",
]
