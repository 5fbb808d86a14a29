"""Run one snspin benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fit|maps|levels|all --seed N --seconds S --trace 0|1

``all`` runs the three workloads one after another, each in its own
process, and ends with one line of every metric as ``<workload>.<metric>``.
The workload runs in this one process as a closed loop with a single
caller: rounds of its operations, each after the previous one has
finished, until the next round would end past ``--seconds`` of timed work
(at least two rounds).  Set-up (importing snspin and building the
inputs) is timed in fresh child processes, one after another.  Every
round's outputs are checked outside the timed operations.  Times are
seconds at a fixed reference CPU speed (``speed.py``); raw wall times go
to the report on stderr.

``--trace 0`` gives the end-to-end metrics; ``--trace 1`` is a separate
traced run that alternates untraced and traced rounds and gives the
per-layer metrics (``spans.py``), per traced round, with the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every check passed.
"""

import os
import sys

# BLAS reads its thread count when numpy loads, so pin it first.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("fit", "maps", "levels")
SETUP_SAMPLES = 5
MIN_ROUNDS = 2


def _fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_snspin():
    """Import snspin from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "snspin" / "__init__.py").is_file():
        _fail(f"no snspin package under {SRC}")
    sys.path.insert(0, str(SRC))
    import snspin

    if Path(snspin.__file__).resolve().parent != SRC / "snspin":
        _fail(f"snspin was imported from {snspin.__file__}, not from {SRC}")
    return snspin


def _build(workload: str, seed: int, workdir):
    from workloads import WORKLOADS

    return WORKLOADS[workload](seed, workdir)


def setup_probe(workload: str, seed: int):
    """Child process: time ``import snspin`` and building the inputs."""
    t0 = time.perf_counter()
    _import_snspin()
    t1 = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"setup-{workload}-", dir=OUT)
    try:
        _build(workload, seed, workdir)
        t2 = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))


def measure_setup(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def observed_threads() -> dict:
    """Threads this process sees: OpenBLAS's own count, OS threads, CPUs."""
    import ctypes
    import re

    seen = {"cpus": len(os.sched_getaffinity(0))}
    status = Path("/proc/self/status")
    if status.exists():
        seen["os_threads"] = int(re.search(r"Threads:\s+(\d+)", status.read_text()).group(1))
        libs = set(re.findall(r"(/\S*openblas\S*\.so\S*)", Path("/proc/self/maps").read_text()))
        for lib in sorted(libs):
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(ctypes.CDLL(lib), sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    seen["blas_threads"] = fn()
                    break
    return seen


def run_rounds(work, seconds: float, probe, tracer=None):
    """Closed loop of rounds until the next would end past ``seconds``.

    Returns each round's per-part times, at the reference speed and raw,
    for untraced and traced rounds.
    """
    rounds = {"plain": [], "traced": [], "raw": []}
    attempted = 0
    failures = {}
    measured = last = 0.0
    n = 0
    while n < MIN_ROUNDS or measured + last <= seconds:
        kind = "traced" if tracer is not None and n % 2 == 1 else "plain"
        if tracer is not None:
            tracer.enabled = kind == "traced"
        outputs = {}
        ref = [0.0] * len(work.parts)
        raw = [0.0] * len(work.parts)
        for part, name, fn in work.ops:
            t0 = time.perf_counter()
            if kind == "traced":
                outputs[name] = tracer.span(f"bench.{work.parts[part]}", fn)
            else:
                outputs[name] = fn()
            t1 = time.perf_counter()
            raw[part] += t1 - t0
            ref[part] += probe.reference_seconds(t0, t1)
        if tracer is not None:
            tracer.enabled = False
        n += 1
        last = sum(raw)
        measured += last
        rounds[kind].append(ref)
        if kind == "plain":
            rounds["raw"].append(raw)
        attempted += work.ops_per_round
        for op, reason in work.check(outputs).items():
            failures.setdefault(f"round {n}: {op}", reason)
        print(f"bench: round {n} {kind} " + " ".join(
            f"{p}={t:.3f}s ({r:.3f}s raw)" for p, t, r in zip(work.parts, ref, raw)),
            file=sys.stderr)
    return rounds, attempted, failures


def median_parts(rounds: list) -> list:
    return [statistics.median(r[k] for r in rounds) for k in range(len(rounds[0]))]


END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mib": "MiB",
                    "part1_s": "s", "part2_s": "s"}


def setup_seconds(setup, key=None) -> float:
    """Median raw set-up time of the children (one key, or all)."""
    return statistics.median(s[key] if key else s["import_s"] + s["inputs_s"]
                             for s in setup)


def end_to_end(rounds, setup, scale) -> dict:
    part1, part2 = median_parts(rounds["plain"])
    values = {
        "setup_s": setup_seconds(setup) * scale,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "part1_s": part1,
        "part2_s": part2,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


PER_LAYER_UNITS = {
    "dynamics.rabi_map.us_per_pixel": "us",
    "dynamics.rabi_map.calls": "count",
    "dynamics.rabi_map.self_s": "s",
    "dynamics.ramsey_map.us_per_pixel": "us",
    "dynamics.ramsey_map.calls": "count",
    "dynamics.ramsey_map.self_s": "s",
    "dynamics.engine_builds": "count",
    "fitkit.residuals.engine_builds_per_call": "count",
    "fitkit.residuals.calls": "count",
    "fitkit.residuals.mean_ms": "ms",
    "fitkit.simulate_experiment.calls": "count",
    "fitkit.simulate_experiment.self_s": "s",
    "fitkit.calibrate_initial.s": "s",
    "fitkit.calibrate_initial.rabi_map_calls": "count",
    "fitkit.fit_parameters.s": "s",
    "fitkit.fit_parameters.n_eval": "count",
    "spinmodel.manifold_eigensystem.calls": "count",
    "spinmodel.manifold_eigensystem.mean_us": "us",
    "spinmodel.eigensystem.mean_us": "us",
    "optics.cyclicity.calls": "count",
    "optics.cyclicity.mean_us": "us",
    "coherence.lambda_eff.calls": "count",
    "coherence.coherence_map.self_s": "s",
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
    "setup.import_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def per_layer(tracer, rounds, setup, scale, span_cost) -> dict:
    """Per-layer metrics per traced round, from the spans.

    Span times are rescaled to the reference speed by ``scale``, the
    reference probe time over the run's median one.
    """
    n = len(rounds["traced"])
    stats = tracer.summary()

    def count(name, key="calls"):
        return stats.get(name, {}).get(key, 0) / n

    def seconds(name, key):
        return stats.get(name, {}).get(key, 0.0) * scale / n

    def mean(name, unit):
        calls = stats.get(name, {}).get("calls", 0)
        return stats[name]["total_s"] * scale / calls * unit if calls else 0.0

    def per_size(name, unit):
        size = stats.get(name, {}).get("size", 0)
        return stats[name]["total_s"] * scale / size * unit if size else 0.0

    residual_calls = count("fitkit.residuals")
    builds_in_residuals = tracer.count_under("dynamics.eigensystem", "fitkit.residuals") / n
    plain = statistics.median(sum(r) for r in rounds["plain"])
    traced = statistics.median(sum(r) for r in rounds["traced"])
    values = {
        "dynamics.rabi_map.us_per_pixel": per_size("dynamics.rabi_map", 1e6),
        "dynamics.rabi_map.calls": count("dynamics.rabi_map"),
        "dynamics.rabi_map.self_s": seconds("dynamics.rabi_map", "self_s"),
        "dynamics.ramsey_map.us_per_pixel": per_size("dynamics.ramsey_map", 1e6),
        "dynamics.ramsey_map.calls": count("dynamics.ramsey_map"),
        "dynamics.ramsey_map.self_s": seconds("dynamics.ramsey_map", "self_s"),
        "dynamics.engine_builds": count("dynamics.eigensystem"),
        "fitkit.residuals.engine_builds_per_call":
            builds_in_residuals / residual_calls if residual_calls else 0.0,
        "fitkit.residuals.calls": residual_calls,
        "fitkit.residuals.mean_ms": mean("fitkit.residuals", 1e3),
        "fitkit.simulate_experiment.calls": count("fitkit.simulate_experiment"),
        "fitkit.simulate_experiment.self_s": seconds("fitkit.simulate_experiment", "self_s"),
        "fitkit.calibrate_initial.s": seconds("fitkit.calibrate_initial", "total_s"),
        "fitkit.calibrate_initial.rabi_map_calls":
            tracer.count_under("dynamics.rabi_map", "fitkit.calibrate_initial") / n,
        "fitkit.fit_parameters.s": seconds("fitkit.fit_parameters", "total_s"),
        "fitkit.fit_parameters.n_eval": count("fitkit.fit_parameters", "size"),
        "spinmodel.manifold_eigensystem.calls": count("spinmodel.manifold_eigensystem"),
        "spinmodel.manifold_eigensystem.mean_us": mean("spinmodel.manifold_eigensystem", 1e6),
        "spinmodel.eigensystem.mean_us": mean("spinmodel.eigensystem", 1e6),
        "optics.cyclicity.calls": count("optics.cyclicity"),
        "optics.cyclicity.mean_us": mean("optics.cyclicity", 1e6),
        "coherence.lambda_eff.calls": count("coherence.lambda_eff"),
        "coherence.coherence_map.self_s": seconds("coherence.coherence_map", "self_s"),
        "cli.run.calls": count("cli.run"),
        "cli.run.self_s": seconds("cli.run", "self_s"),
        "setup.import_s": setup_seconds(setup, "import_s") * scale,
        "trace.overhead_pct": 100.0 * (traced / plain - 1.0),
        "trace.spans": len(tracer.names) / n,
    }
    print(f"bench: tracing overhead {values['trace.overhead_pct']:+.1f}% measured "
          f"(median round {traced:.3f} s traced, {plain:.3f} s untraced); "
          f"{values['trace.spans']:.0f} spans per round at {span_cost * 1e6:.2f} us raw "
          f"each, {100 * values['trace.spans'] * span_cost * scale / plain:.1f}% estimated",
          file=sys.stderr)
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


def report(work, rounds, setup, scale, threads):
    """Per-part times and rates, set-up, CPU speed and threads, on stderr."""
    lines = [f"bench: {len(rounds['plain'])} untraced rounds; threads seen {threads}",
             "bench: set-up median {:.3f} s raw, import {:.3f} s raw, over {} "
             "children".format(setup_seconds(setup), setup_seconds(setup, "import_s"),
                               len(setup)),
             f"bench: CPU at {1 / scale:.2f}x the reference probe time"]
    for part, ref, raw in zip(work.parts, median_parts(rounds["plain"]),
                              median_parts(rounds["raw"])):
        count, unit = work.work[part]
        lines.append(f"bench: {part}: median {ref:.3f} s at reference speed "
                     f"({count / ref:.1f} {unit}/s), {raw:.3f} s raw")
    print("\n".join(lines), file=sys.stderr)


def run_all(args) -> int:
    """Every workload in its own child process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            _fail(f"workload {name} ended with code {proc.returncode}", 1)
        results[name] = json.loads(lines[-1])
        print(name, lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)

    _import_snspin()
    setup = measure_setup(args.workload, args.seed)
    from speed import SpeedProbe

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = None
    try:
        work = _build(args.workload, args.seed, workdir)
        if args.trace:
            from spans import Tracer, span_cost_s

            tracer = Tracer()
            tracer.install()
        with SpeedProbe() as probe:
            rounds, attempted, failures = run_rounds(work, args.seconds, probe, tracer)
        if tracer is not None:
            tracer.uninstall()
        for op, reason in work.final_checks().items():
            failures.setdefault(f"final: {op}", reason)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    scale = probe.scale()
    report(work, rounds, setup, scale, observed_threads())
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.csv.gz")
        metrics = per_layer(tracer, rounds, setup, scale, span_cost_s())
    else:
        metrics = end_to_end(rounds, setup, scale)
    for op, reason in failures.items():
        print(f"bench: FAILED {op}: {reason}", file=sys.stderr)
    failed = len(failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
