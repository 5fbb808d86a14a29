"""The benchmark's three workloads: inputs, timed operations and checks.

Each workload builds its inputs from a seed once.  A round is a fixed
list of operations, each belonging to one of the workload's two parts;
the runner times every operation.  The checks look at a round's outputs
outside the timed operations and return the operations that failed.
Calls into snspin go through module attributes (``fitkit.calibrate_initial``,
``cli.run``, ...) so that a traced run sees them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys

import numpy as np

from snspin import cli, coherence, dynamics, fitkit, optics, params, spinmodel

EPS = float(np.finfo(float).eps)
AX_HZ, AZ_HZ = 8.92e6, 5.00e6  # drive amplitudes of the paper's maps


class Workload:
    """``parts`` names the two timed parts; ``ops`` lists one round's
    operations as (part index, name, callable); ``ops_per_round`` counts
    the operations a round attempts; ``work`` gives each part's units of
    work per round as (count, unit)."""

    parts: tuple = ()
    ops: list
    ops_per_round: int
    work: dict

    def check(self, outputs: dict) -> dict:
        """Failed operations of one round, as {operation: reason}."""
        raise NotImplementedError

    def final_checks(self) -> dict:
        """Checks made once per run, after the last round."""
        return {}


class _CliWorkload(Workload):
    """Config files, CLI runs and artifact identity across rounds."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.first_hashes = {}

    def add_config(self, part: int, name: str, config: dict):
        with open(os.path.join(self.workdir, f"{name}.json"), "w") as fh:
            json.dump(config, fh, indent=1, sort_keys=True)
        self.ops.append((part, name, lambda: self.run_config(name)))

    def run_config(self, name: str) -> str:
        return cli.run(os.path.join(self.workdir, f"{name}.json"),
                       out_override=os.path.join(self.workdir, f"{name}.out"))

    def rerun_identical(self, outputs: dict, failed: dict):
        """Every artifact is byte-identical to the first round's."""
        for name, artifact in outputs.items():
            with open(artifact, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if self.first_hashes.setdefault(name, digest) != digest:
                failed[name] = "artifact differs from the first round's"


# --- fit ---------------------------------------------------------------------

def _alternating_start(truth, free):
    signs = np.where(np.arange(len(free)) % 2 == 0, 1.0, -1.0)
    return truth.with_free_values(truth.free_values(free) * (1 + 0.05 * signs), free)


class FitWorkload(Workload):
    """Data to parameters: the round trip, then a seeded batch of losses.

    Part 1 calibrates (``calibrate_initial``) and fits (the staged
    ``fit_parameters``) the six map-determined parameters from the +-5%
    alternating-sign start, on a reference problem with all eight maps
    at reduced grid sizes.  Part 2 evaluates ``FitProblem.loss`` of the
    full-size reference problem at the truth and at ``n_loss - 1``
    seeded points of the +-5% box.
    """

    parts = ("round_trip", "loss_batch")
    n_loss = 16
    # The round trip's grids, and the calibration's evaluation cap (at
    # full size and the default cap of 2000 it takes most of a minute).
    round_trip_grid = {"n_time": 7, "n_delay": 20, "n_long": 22}
    calibration_evals = 200

    def __init__(self, seed: int, workdir=None):
        self.truth = fitkit.FitParams.reference()
        self.free = fitkit.DEFAULT_FREE
        self.start = _alternating_start(self.truth, self.free)
        self.small = fitkit.reference_problem(**self.round_trip_grid)
        self.full = fitkit.reference_problem()
        rng = np.random.default_rng(seed)
        base = self.truth.free_values(self.free)
        self.points = [self.truth] + [
            self.truth.with_free_values(base * (1 + rng.uniform(-0.05, 0.05, base.size)),
                                        self.free)
            for _ in range(self.n_loss - 1)]
        self.truth_loss = self.small.loss(self.truth)
        self.first_losses = None
        self.calibrated = None
        self.ops = [(0, "calibrate", self.calibrate), (0, "fit", self.fit),
                    (1, "losses", lambda: [self.full.loss(p) for p in self.points])]
        self.ops_per_round = 1 + self.n_loss
        self.work = {"round_trip": (1, "round trips"),
                     "loss_batch": (self.n_loss, "loss evaluations")}

    def calibrate(self):
        problem = fitkit.FitProblem(self.small.specs, self.small.data, self.start,
                                    free=self.free)
        self.calibrated = fitkit.calibrate_initial(problem, max_eval=self.calibration_evals)
        return self.calibrated

    def fit(self):
        problem = fitkit.FitProblem(self.small.specs, self.small.data, self.calibrated,
                                    free=self.free)
        return fitkit.fit_parameters(problem, seed=1, max_eval=1400, with_errors=False)

    def check(self, outputs) -> dict:
        failed = {}
        result = outputs["fit"]
        worst = max(abs(getattr(result.params, n) / getattr(self.truth, n) - 1.0)
                    for n in self.free)
        if not worst < 0.01:
            failed["round_trip"] = f"a parameter is {worst:.2%} off the truth"
        elif not result.loss <= self.truth_loss + 1e-8:
            failed["round_trip"] = f"final loss {result.loss:g} above the truth's"
        if self.first_losses is None:
            self.first_losses = outputs["losses"]
        for k, (val, first) in enumerate(zip(outputs["losses"], self.first_losses)):
            name = f"loss[{k}]"
            if k == 0 and val != 0.0:
                failed[name] = f"loss at the truth is {val!r}, not 0"
            elif k > 0 and not (math.isfinite(val) and val > 0.0):
                failed[name] = f"loss {val!r} away from the truth"
            elif val != first:
                failed[name] = "loss differs from the first round's"
        return failed


# --- maps --------------------------------------------------------------------

def _fringe_peaks(signal, delays):
    """Frequencies of FFT peaks above 15% of the strongest component."""
    centered = signal - signal.mean()
    spectrum = np.abs(np.fft.rfft(centered * np.hanning(centered.size)))
    freqs = np.fft.rfftfreq(centered.size, delays[1] - delays[0])
    idx = np.where(spectrum > 0.15 * spectrum.max())[0]
    groups = np.split(idx, np.where(np.diff(idx) > 1)[0] + 1)
    return [freqs[g[np.argmax(spectrum[g])]] for g in groups]


class MapsWorkload(_CliWorkload):
    """Driven maps through the CLI: chevrons, then noisy Ramsey maps.

    Part 1 runs ``rabi`` chevrons of the three transitions at figure
    resolution (81 x 120).  Part 2 runs ``ramsey`` maps of the broker and
    broker_m1 transitions with quasi-static Gaussian noise, on linearly
    spaced delays that are not aligned to the drive period.  The seed
    shifts each chevron window and each Ramsey detuning, and picks the
    pixels checked against ``dynamics.propagate``.
    """

    parts = ("chevrons", "ramsey")
    chevron_shape = (81, 120)
    spans_s = {"broker": 620e-9, "memory": 900e-9, "broker_m1": 620e-9}
    window_hz = 8e6
    ramsey_shape = (3, 61)
    noise = {"kind": "quasi-static-gaussian", "sigma_hz": 0.3e6, "samples": 12}
    # Pixels per chevron checked against the converged propagation, the
    # reference's steps per period of the fastest tone, and the bound on
    # the deviation (the engine's own step leaves up to 5.4e-3).
    reference_pixels = 2
    reference_substeps = 128
    reference_bound = 1e-2

    def __init__(self, seed: int, workdir):
        super().__init__(workdir)
        self.rng = np.random.default_rng(seed)
        self.ground = params.ground_defaults()
        self.field = params.reference_field()
        self.system = spinmodel.manifold_eigensystem(self.ground, self.field)
        self.ops = []
        self.grids = {}
        self.nu0 = {}
        n_f, n_t = self.chevron_shape
        for key, (a, b) in dynamics.TRANSITIONS.items():
            self.nu0[key] = abs(self.system.transition(b, a))
            center = self.nu0[key] + self.rng.uniform(-0.1, 0.1) * self.window_hz
            grid = {"freq_hz": {"start": center - self.window_hz,
                                "stop": center + self.window_hz, "points": n_f},
                    "duration_s": {"start": 20e-9, "stop": self.spans_s[key],
                                   "points": n_t}}
            self.grids[f"rabi-{key}"] = grid
            self.add_config(0, f"rabi-{key}", {
                "command": "rabi",
                "options": {"transition": key, "amplitude_x_hz": AX_HZ,
                            "amplitude_z_hz": AZ_HZ, **grid}})
        n_rf, n_d = self.ramsey_shape
        for key in ("broker", "broker_m1"):
            a, b = dynamics.TRANSITIONS[key]
            nu = abs(self.system.transition(b, a)) + self.rng.uniform(2.5e6, 3.5e6)
            grid = {"freq_hz": {"start": nu - 0.2e6, "stop": nu + 0.2e6, "points": n_rf},
                    "delay_s": {"start": 0.0, "stop": 6e-6, "points": n_d}}
            self.grids[f"ramsey-{key}"] = grid
            self.add_config(1, f"ramsey-{key}", {
                "command": "ramsey",
                "options": {"transition": key, "amplitude_x_hz": AX_HZ,
                            "amplitude_z_hz": AZ_HZ, "noise": self.noise, **grid}})
        self.ops_per_round = len(self.ops)
        self.work = {"chevrons": (3 * n_f * n_t, "pixels"),
                     "ramsey": (2 * n_rf * n_d * self.noise["samples"], "pixel-samples")}

    @staticmethod
    def _axis(block):
        return np.linspace(block["start"], block["stop"], block["points"])

    def check(self, outputs) -> dict:
        failed = {}
        self.rerun_identical(outputs, failed)
        for name, artifact in outputs.items():
            _, m = fitkit.load_signal_csv(artifact)
            freq_block, time_block = self.grids[name].values()
            if not (np.array_equal(m.freq_hz, self._axis(freq_block))
                    and np.array_equal(m.duration_s, self._axis(time_block))):
                failed[name] = "artifact grid differs from the config's"
            elif not (np.all(m.signal >= 0.0) and np.all(m.signal <= 1.0)):
                failed[name] = "signal outside [0, 1]"
            elif name.startswith("rabi-"):
                key = name[len("rabi-"):]
                spec = fitkit.ExperimentSpec("rabi", key, tuple(m.freq_hz),
                                             tuple(m.duration_s))
                centroid = fitkit.estimate_transition_frequency(spec, m.signal)
                # the window is centred within 0.1 window of the transition
                if not abs(centroid - self.nu0[key]) < 0.25 * self.window_hz:
                    failed[name] = (f"centroid {centroid:.6g} Hz is "
                                    f"{centroid - self.nu0[key]:+.3g} Hz off the transition")
        return failed

    def reference_deviation(self, key, m):
        """Largest |chevron pixel - converged ``propagate``| on seeded
        pixels in the first half of the durations."""
        engine = dynamics._Engine(self.ground, self.field)
        pre, post = dynamics.ROUTING[key]

        def routing(keys):
            return [dynamics.DriveSegment(engine.transition_frequency(k), AX_HZ, AZ_HZ,
                                          0.0, engine.pi_time(k, AX_HZ, AZ_HZ))
                    for k in keys]

        bright = [engine.system.index(lab) for lab in ("lower.1B0M", "lower.1B1M")]
        worst = 0.0
        for _ in range(self.reference_pixels):
            i = int(self.rng.integers(m.freq_hz.size))
            j = int(self.rng.integers(m.duration_s.size // 2))
            segs = routing(pre) + [dynamics.DriveSegment(
                float(m.freq_hz[i]), AX_HZ, AZ_HZ, 0.0, float(m.duration_s[j]))] + routing(post)
            fastest = max(s.frequency_hz for s in segs)
            psi = dynamics.propagate(engine.h0, self.ground, dynamics.PulseProgram(tuple(segs)),
                                     timestep=1.0 / (self.reference_substeps * fastest))
            reference = float(np.sum(np.abs(engine.system.states[:, bright].conj().T @ psi) ** 2))
            worst = max(worst, abs(m.signal[i, j] - reference))
        return worst

    def final_checks(self) -> dict:
        failed = {}
        for key in dynamics.TRANSITIONS:
            name = f"rabi-{key}"
            _, m = fitkit.load_signal_csv(os.path.join(self.workdir, f"{name}.out"))
            dev = self.reference_deviation(key, m)
            print(f"bench: {name}: largest deviation {dev:.3g} from the converged "
                  f"propagation on {self.reference_pixels} seeded pixels", file=sys.stderr)
            if not dev <= self.reference_bound:
                failed[name] = (f"pixel {dev:.3g} off the converged propagation "
                                f"(bound {self.reference_bound:g})")
        # the noiseless broker fringe beats at the 1B splitting
        split_1b = abs(self.system.transition("lower.1B1M", "lower.1B0M"))
        delays = np.linspace(0.0, 6e-6, 161)
        freq = self._axis(self.grids["ramsey-broker"]["freq_hz"])[1]
        m = dynamics.ramsey_map(self.ground, self.field, AX_HZ, AZ_HZ, [freq], delays,
                                transition="broker")
        peaks = _fringe_peaks(m.signal[0], delays)
        if len(peaks) < 2 or abs(np.mean(np.diff(peaks)) - split_1b) > 2 / delays[-1]:
            failed["ramsey-broker"] = (f"noiseless fringe peaks {peaks} do not beat "
                                       f"at {split_1b:.4g} Hz")
        return failed


# --- levels ------------------------------------------------------------------

def _random_manifold(rng):
    """A coupling draw wide enough to cover both manifolds' fitted ranges."""
    return params.ManifoldParams(
        lambda_soc=10 ** rng.uniform(10.0, 12.7),
        upsilon_ioc=rng.uniform(-5e6, 5e6),
        a_par=rng.uniform(-1e9, 1e9),
        a_perp=rng.uniform(-1e9, 1e9),
        strain_egx=rng.uniform(-2e12, 2e12),
        strain_egy=rng.uniform(-2e12, 2e12),
    )


def _read_csv_rows(path) -> np.ndarray:
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines()
                 if line and not line.startswith("#")]
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


class LevelsWorkload(_CliWorkload):
    """Levels without driven dynamics: field and strain maps, zero-field draws.

    Part 1 runs the ``cyclicity-map`` over a 50 x 50 (bx, bz) grid and the
    ``coherence-map`` over a 101 x 101 (upsilon, alpha) grid through the
    CLI.  Part 2 diagonalizes a seeded draw of random manifolds at B=0,
    the draw of the zero-field degeneracy acceptance test.  The seed sets
    the draw and the coherence grid's upper ends.
    """

    parts = ("maps", "zero_field")
    field_shape = (50, 50)
    bx_max, bz_max = 1e-3, 2e-4
    coherence_shape = (101, 101)
    n_manifolds = 3000

    def __init__(self, seed: int, workdir):
        super().__init__(workdir)
        rng = np.random.default_rng(seed)
        self.ops = []
        n_bx, n_bz = self.field_shape
        self.add_config(0, "cyclicity-map", {
            "command": "cyclicity-map",
            "options": {"bx_t": {"start": 0.0, "stop": self.bx_max, "points": n_bx},
                        "bz_t": {"start": 0.0, "stop": self.bz_max, "points": n_bz}}})
        n_u, n_a = self.coherence_shape
        self.add_config(0, "coherence-map", {
            "command": "coherence-map",
            "options": {"upsilon_hz": {"start": 0.0, "stop": rng.uniform(180e3, 220e3),
                                       "points": n_u},
                        "alpha_hz": {"start": 0.0, "stop": rng.uniform(1.4e12, 1.6e12),
                                     "points": n_a}}})
        manifolds = [_random_manifold(rng) for _ in range(self.n_manifolds)]
        b0 = params.MagneticField()
        self.ops.append((1, "zero-field", lambda: [
            spinmodel.manifold_eigensystem(p, b0) for p in manifolds]))
        self.ops_per_round = n_bx * n_bz + 1 + self.n_manifolds
        self.work = {"maps": (n_bx * n_bz, "field points"),
                     "zero_field": (self.n_manifolds, "manifolds")}

    def check(self, outputs) -> dict:
        failed = {}
        self.rerun_identical({k: v for k, v in outputs.items() if k != "zero-field"}, failed)

        n_bx, n_bz = self.field_shape
        lam = _read_csv_rows(outputs["cyclicity-map"])[:, 2].reshape(n_bx, n_bz)
        if not math.isinf(lam[0, 0]):
            failed["field[0,0]"] = f"lambda_f0 at B=0 is {lam[0, 0]!r}, not infinite"
        # From the working bz up; closer to bz = 0, where lambda_f0 nears
        # its fully mixed value of 2, it is not monotonic in bx.
        bz = np.linspace(0.0, self.bz_max, n_bz)
        for iz in np.flatnonzero(bz >= params.reference_field().bz):
            for ix in np.flatnonzero(~(lam[1:, iz] < lam[:-1, iz])) + 1:
                failed[f"field[{ix},{iz}]"] = "lambda_f0 does not fall as bx grows"

        rows = _read_csv_rows(outputs["coherence-map"])
        n_u, n_a = self.coherence_shape
        ups = rows[:, 0].reshape(n_u, n_a)[:, 0]
        alphas = rows[:, 1].reshape(n_u, n_a)[0]
        t2 = rows[:, 2].reshape(n_u, n_a)
        ground = params.ground_defaults()
        for j, alpha in enumerate(alphas):
            ridge = coherence.ridge_upsilon(ground.lambda_soc, ground.a_perp, alpha)
            if int(np.argmax(t2[:, j])) != int(np.argmin(np.abs(ups - ridge))):
                failed["coherence-map"] = f"T2 maximum off the ridge at alpha {alpha:g}"
                break

        for k, system in enumerate(outputs["zero-field"]):
            scale = float(np.abs(system.energies).max())
            for branch in ("lower", "upper"):
                gap = system.transition(f"{branch}.1B1M", f"{branch}.1B0M")
                if not abs(gap) <= 100 * EPS * scale:
                    failed[f"manifold[{k}]"] = f"{branch} aligned pair split by {gap:g} Hz"
        return failed

    def final_checks(self) -> dict:
        failed = {}
        b0 = params.MagneticField()
        ground, excited = params.ground_defaults(), params.excited_defaults()
        system = spinmodel.manifold_eigensystem(ground, b0)
        if not math.isinf(optics.cyclicity(
                system, spinmodel.manifold_eigensystem(excited, b0)).lambda_f0):
            failed["field[0,0]"] = "default manifolds do not cycle perfectly at B=0"
        exact = system.level_dict()
        closed = spinmodel.closed_form_energies(ground, order=2)
        # the bound of the closed forms' own property test
        scale = max(abs(ground.a_par), abs(ground.a_perp), abs(ground.upsilon_ioc), 1.0)
        delta = ground.delta_total
        bound = (10.0 * (scale ** 3 / delta ** 2 + abs(ground.upsilon_ioc) * scale / delta)
                 + 5e-9 * delta)
        worst = max(abs(closed[lab] - exact[lab]) for lab in exact)
        if not worst < bound:
            failed["zero_field"] = (f"closed forms {worst:g} Hz off diagonalization "
                                    f"(bound {bound:g})")
        return failed


WORKLOADS = {"fit": FitWorkload, "maps": MapsWorkload, "levels": LevelsWorkload}
