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

Fitting is trust-region least squares on the residual vector, over
parameters normalized by their starting values, since the raw scales
span Hz to THz.  It is staged from the chevrons to the longest fringes.
Parameter uncertainties are the Gauss-Newton curvature errors of the
sum-of-squares loss at the optimum, reported relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.optimize import least_squares, minimize

from .params import (ManifoldParams, MagneticField, electron_larmor_hz,
                     field_for_larmor, ground_defaults, reference_field)
from . import dynamics
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

    def to_dict(self) -> dict:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class ExperimentSpec:
    """One measured map: what was driven and on which grid.

    ``time_s`` is the drive duration axis for a Rabi map and the free
    delay axis for a Ramsey map.  ``pi_half_s`` freezes the Ramsey
    pulse duration at its value when the data were taken; it is part of
    the measurement, not of the model, so the fit never varies it.
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
        if self.transition not in dynamics.TRANSITIONS:
            raise ValueError(f"unknown transition {self.transition!r}")
        if len(self.freq_hz) == 0 or len(self.time_s) == 0:
            raise ValueError("grids must be non-empty")
        if self.kind == "ramsey" and self.pi_half_s is None:
            raise ValueError("a ramsey spec needs its calibrated pi_half_s")

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


def simulate_experiment(theta: FitParams, spec: ExperimentSpec,
                        engine=None) -> dynamics.SignalMap:
    """Model map for one spec, delegated to the dynamics engine.

    ``engine`` optionally shares the system of ``theta`` between specs
    (see :func:`_simulate_all`).
    """
    params, field, (ax, az) = theta.to_model()
    if spec.kind == "rabi":
        return dynamics.rabi_map(params, field, ax, az, spec.freq_hz, spec.time_s,
                                 transition=spec.transition, engine=engine)
    return dynamics.ramsey_map(params, field, ax, az, spec.freq_hz, spec.time_s,
                               transition=spec.transition,
                               pi_half_s=spec.pi_half_s, engine=engine)


def _simulate_all(theta: FitParams, specs) -> list:
    """Model signals of every spec from one shared system of ``theta``."""
    engine = dynamics._Engine(*theta.to_model()[:2])
    return [simulate_experiment(theta, spec, engine).signal for spec in specs]


def _nuisance_rescale(sim: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Best amplitude/offset a*sim + b against data, in closed form."""
    s = sim.ravel()
    d = data.ravel()
    var = s.var()
    if var <= 0:
        return np.full_like(sim, d.mean() - sim.mean())  # offset-only
    a = ((s - s.mean()) @ (d - d.mean())) / (var * s.size)
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
            d = np.asarray(d)
            if d.shape != (len(spec.freq_hz), len(spec.time_s)):
                raise ValueError(
                    f"data shape {d.shape} does not match spec grid "
                    f"({len(spec.freq_hz)}, {len(spec.time_s)})"
                )
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
    residual_maps: tuple
    transitions_hz: dict
    n_eval: int
    acceptance_log: tuple   # (eval index, best loss so far) pairs
    success: bool
    message: str = ""

    def to_dict(self) -> dict:
        """Every field but the residual maps, as JSON-ready values."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "residual_maps"}
        out.update(params=self.params.to_dict(),
                   acceptance_log=[list(x) for x in self.acceptance_log])
        return out


# Relative finite-difference step of the residual Jacobian, in the
# normalized coordinates of the fit.
_FD_STEP = 1e-6

# Step tolerance of the trust-region optimizer, in the same coordinates.
_XTOL = 1e-4


def _jacobian(residuals, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of ``residuals`` at normalized ``x``.

    The step must stay in the linear regime: a 1e-4 change of a
    hyperfine constant already moves the 40 us fringes by radians, and
    the leading singular values only settle at steps of 1e-6 and below.
    Central differences keep the truncation error of those stiff
    columns out of the weakest direction, which they would otherwise
    swamp.  It also needs residuals free of steps: the engine takes
    drive phases and pulse times as they are, with no rounding or
    binning, which would put steps into the weakest column.
    """
    cols = []
    for k in range(x.size):
        shift = np.zeros(x.size)
        shift[k] = _FD_STEP
        cols.append((residuals(x + shift) - residuals(x - shift)) / (2 * _FD_STEP))
    return np.column_stack(cols)


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
    data = np.asarray(data, dtype=float)
    freqs = np.asarray(spec.freq_hz, dtype=float)
    if data.shape != (freqs.size, len(spec.time_s)):
        raise ValueError(f"data shape {data.shape} does not match the spec grid")
    weights = data.max(axis=1) - data.min(axis=1)
    total = weights.sum()
    if total <= 0:
        raise ValueError("map has no signal contrast to locate a transition")
    return float(weights @ freqs / total)


# Parameters that set transition frequencies and Rabi rates; the DC field
# components barely move either (< 0.03% per 1%), so the coarse
# calibration leaves them alone.  The strain is deliberately excluded:
# it only enters the lower branch through the mixing angle, so a_perp
# and the transverse field and drive (each entering as coupling x
# sin(theta)) compensate any change of it, and freeing it here lets the
# calibration wander along that degenerate family.  No microwave map
# resolves it; see the module notes.
_CALIBRATION_NAMES = ("a_par_hz", "a_perp_hz", "b_x_ac_hz", "b_z_ac_hz")

# Relative frequency residuals are worth roughly this many squared
# signal units in the calibration loss (0.1% off-frequency ~ one 10%
# signal mismatch).
_CALIBRATION_FREQ_WEIGHT = 1e4


def calibrate_initial(problem: FitProblem, max_eval: int = 2000) -> FitParams:
    """Coarse spectroscopic calibration before the full fit.

    A ±5% parameter offset moves the microwave transitions by tens of
    MHz -- several chevron windows -- so a local descent started there
    only sees flat loss.  This stage reads the transition frequency off
    each measured chevron (weighted centroid) and adjusts the hyperfine
    and drive-amplitude parameters until the model reproduces both that
    frequency and the measured resonant column.

    Only parameters in ``problem.free`` are touched; returns the
    calibrated parameter set (the problem itself is immutable).
    """
    free = tuple(n for n in _CALIBRATION_NAMES if n in problem.free)
    targets = []
    for spec, d in zip(problem.specs, problem.data):
        if spec.kind != "rabi":
            continue
        d = np.asarray(d, dtype=float)
        f_hat = estimate_transition_frequency(spec, d)
        col = int(np.argmin(np.abs(np.asarray(spec.freq_hz) - f_hat)))
        targets.append((spec, float(spec.freq_hz[col]), f_hat, d[col]))
    if not free or not targets:
        return problem.initial

    initial = problem.initial
    base = initial.free_values(free)

    def objective(x):
        theta = initial.with_free_values(x * base, free)
        params, field, (ax, az) = theta.to_model()
        engine = dynamics._Engine(params, field)
        total = 0.0
        for spec, f_col, f_hat, col_data in targets:
            f_model = engine.transition_frequency(spec.transition)
            total += _CALIBRATION_FREQ_WEIGHT * ((f_model - f_hat) / f_hat) ** 2
            sim = dynamics.rabi_map(params, field, ax, az, (f_col,), spec.time_s,
                                    transition=spec.transition, engine=engine)
            diff = sim.signal[0] - col_data
            total += float(diff @ diff)
        return total

    res = minimize(
        objective, np.ones(len(free)), method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-12, "maxfev": max_eval,
                 "adaptive": True},
    )
    return initial.with_free_values(res.x * base, free)


# The first fit stage screens this relative span around its start (the
# uncertainty of a start from a coarse calibration or a previous fit)
# with this many points per free parameter.
_SCREEN_SPAN = 0.05
_SCREEN_PER_PARAM = 16


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


def fit_parameters(problem: FitProblem, seed: int = 0, restarts: int = 0,
                   max_eval: int = 2000, with_errors: bool = True) -> FitResult:
    """Recover the free parameters by staged trust-region least squares.

    The optimizer (scipy's bounded trust-region reflective method) works
    on the residual vector over values normalized by the problem's
    initial point, so all directions have comparable scale, and stops at
    a step of ``_XTOL`` in those units.  It follows :func:`_curriculum`:
    the chevrons first, then ever longer Ramsey fringes, each stage
    starting from the previous optimum.  The first stage also screens
    the box of +-5% around the start with a Latin hypercube drawn from
    ``seed``; the ``restarts + 1`` best screened points, and in the last
    stage the problem's own initial point, are candidates for further
    runs.  A candidate is run only if it already beats the stage's best
    loss, and the best point of a stage goes on to the next.

    ``max_eval`` bounds every residual evaluation of the fit,
    finite-difference Jacobian columns included, and ``n_eval`` counts
    them all.  Once it is used up the fit stops with ``success`` False
    and the best point so far; a stage before the last keeps one
    evaluation back, so the result is always scored on the full
    problem.  The acceptance log records every improvement of the
    full-problem loss (monotone by construction).  Relative
    uncertainties come from the Gauss-Newton curvature at the optimum,
    reusing the Jacobian the optimizer took there; a singular
    information matrix is reported in the message rather than raised.
    """
    names = tuple(problem.free)
    initial = problem.initial
    if not names:
        return FitResult(
            params=initial, loss=problem.loss(initial), errors_rel={},
            residual_maps=problem.residual_maps(initial),
            transitions_hz=derived_transitions(initial),
            n_eval=1, acceptance_log=((1, problem.loss(initial)),),
            success=True, message="no free parameters; loss evaluated only",
        )
    start = initial.free_values(names)
    if np.any(start == 0):
        raise ValueError("initial values must be non-zero (they set the scale)")

    lo = np.full(len(names), -np.inf)
    hi = np.full(len(names), np.inf)
    for k, n in enumerate(names):
        if n in (problem.bounds or {}):
            # sorted: a negative start flips the ratio
            lo[k], hi[k] = sorted(b / start[k] for b in problem.bounds[n])

    log = []
    state = {"n": 0, "limit": max_eval, "best": math.inf}
    rng = np.random.default_rng(seed)

    def evaluate(sub, x):
        if state["n"] >= state["limit"]:
            raise _BudgetExhausted
        state["n"] += 1
        return sub.residuals(initial.with_free_values(start * x, names))

    def trial(sub, x):
        """Evaluate a candidate point, logging full-problem improvements."""
        r = evaluate(sub, x)
        val = float(r @ r)
        if sub is problem and val < state["best"]:
            state["best"] = val
            log.append((state["n"], val))
        return r, val

    def run(sub, x0, runs):
        """One trust-region run on ``sub``; appends its best point to ``runs``."""
        best = {"loss": math.inf, "x": x0, "jac": None, "success": False,
                "message": ""}
        runs.append(best)

        def fun(x):
            r, val = trial(sub, x)
            if val < best["loss"]:
                best.update(loss=val, x=x.copy(), jac=None)
            return r

        def jac(x):
            j = _jacobian(lambda y: evaluate(sub, y), x)
            if np.array_equal(x, best["x"]):
                best["jac"] = j
            return j

        res = least_squares(fun, x0, jac=jac, bounds=(lo, hi), method="trf",
                            xtol=_XTOL)
        best.update(success=bool(res.success), message=str(res.message))

    def screen(sub, x, count):
        """The ``count`` best (loss, point) pairs of a seeded
        Latin-hypercube screen of the box ``x * (1 +- _SCREEN_SPAN)``."""
        m = _SCREEN_PER_PARAM * x.size
        u = (np.argsort(rng.random((m, x.size)), axis=0)
             + rng.random((m, x.size))) / m
        points = np.clip(x * (1 + _SCREEN_SPAN * (2 * u - 1)), lo, hi)
        scored = [(trial(sub, p)[1], p) for p in points]
        return sorted(scored, key=lambda c: c[0])[:count]

    x = np.ones(len(names))
    exhausted = False
    for k, sub in enumerate(_curriculum(problem)):
        # an earlier stage leaves one evaluation for the full problem
        state["limit"] = max_eval if sub is problem else max_eval - 1
        runs = []
        try:
            run(sub, x, runs)
            candidates = screen(sub, x, restarts + 1) if k == 0 else []
            if sub is problem and k > 0:
                # the caller's own start, which earlier stages may have lost
                ones = np.ones(len(names))
                candidates.append((trial(sub, ones)[1], ones))
            for val, x0 in candidates:
                if val < min(o["loss"] for o in runs):
                    run(sub, x0, runs)
        except _BudgetExhausted:
            exhausted = True
        outcome = min(runs, key=lambda o: o["loss"])
        x = outcome["x"]
        if exhausted:
            break
    if sub is not problem:
        state["limit"] = max_eval
        runs = []
        try:
            run(problem, x, runs)
        except _BudgetExhausted:
            pass
        outcome = runs[0]

    best = initial.with_free_values(start * outcome["x"], names)
    success = outcome["success"] and not exhausted
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
        residual_maps=problem.residual_maps(best),
        transitions_hz=derived_transitions(best),
        n_eval=state["n"], acceptance_log=tuple(log),
        success=success, message=message,
    )


def _period_aligned(delays, freq_hz):
    """Round free delays to drive-period multiples (synthesized clock).

    This keeps the second Ramsey pulse phase-locked to the tone, as in a
    synthesizer-timed measurement.  The sub-period rounding (< 2 ns) is
    stored in the spec, so data and model stay consistent.
    """
    period = 1.0 / freq_hz
    return tuple(np.round(np.asarray(delays) / period) * period)


def reference_problem(theta: FitParams | None = None,
                      noise_rel: float = 0.0, seed: int = 0,
                      n_freq: int = 7, n_time: int = 14,
                      n_delay: int = 40, n_long: int = 44,
                      long_delay_s: float = 40e-6,
                      **problem_kwargs) -> FitProblem:
    """Synthesize the standard fit input at a truth value.

    One Rabi chevron per microwave transition (windowed around each
    transition frequency), detuned single-frequency Ramsey scans of the
    broker and green transitions, and one long-delay Ramsey scan per
    transition.  The chevrons pin the drive amplitudes and hyperfine
    scales; the short Ramsey fringes resolve the 1B beat; the long
    fringes amplify sub-kilohertz transition-frequency errors that the
    chevrons cannot see, which is what pins the static transverse field
    along the valley the shorter maps leave open.  None of them
    separates the strain from the transverse couplings, which can
    compensate it (see the module notes), so the problem's default
    free set leaves it out.  ``noise_rel`` > 0 adds Gaussian noise of
    that standard deviation, in signal units and independent of the
    signal, to every point.  The problem's initial point defaults to the
    truth.
    """
    theta = theta or FitParams.reference()
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
        delays = _period_aligned(np.linspace(0.0, long_delay_s, n_long), nu)
        specs.append(ExperimentSpec("ramsey", key, (nu,), delays,
                                    pi_half_s=pi_half, label=f"{key}-ramsey-long"))
    for sig in _simulate_all(theta, specs):
        if noise_rel > 0:
            sig = sig + noise_rel * rng.standard_normal(sig.shape)
        data.append(sig)
    problem_kwargs.setdefault("initial", theta)
    return FitProblem(tuple(specs), tuple(data), **problem_kwargs)


__all__ = [
    "FIT_PARAM_NAMES", "DEFAULT_FREE", "FitParams", "ExperimentSpec",
    "simulate_experiment", "FitProblem", "FitResult", "fit_parameters", "derived_transitions",
    "estimate_transition_frequency", "calibrate_initial",
    "save_signal_csv", "load_signal_csv", "reference_problem",
]
