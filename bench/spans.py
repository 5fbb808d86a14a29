"""Spans around the calls the benchmark makes into each layer of snspin.

A span is recorded where a caller looks a function up: the engine finds
``snspin.dynamics.eigensystem`` in its own module, ``fitkit`` reaches
``dynamics.rabi_map`` through the module, and the CLI handlers import
their library functions when they run.  Each of those module attributes
is replaced by a wrapper for the length of a traced run, so every call
made through it opens a span with a name, a start, an end and the span
that was open when it began (its cause).  Spans stay in memory until the
run ends and are then written out in one file.
"""

from __future__ import annotations

import functools
import gzip
import math
import time


def _noise_samples(args, kwargs):
    noise = kwargs.get("noise", args[6] if len(args) > 6 else None)
    if noise is not None and noise.kind == "quasi-static-gaussian" and noise.sigma_hz > 0:
        return noise.samples
    return 1


# (module, attribute, span name, size of one call from (result, args, kwargs))
# The size is the call's unit of work: pixels of a map (Ramsey pixels
# times noise samples), evaluations of a fit.
HOOKS = (
    ("snspin.cli", "run", "cli.run", None),
    ("snspin.dynamics", "rabi_map", "dynamics.rabi_map",
     lambda r, a, k: r.signal.size),
    ("snspin.dynamics", "ramsey_map", "dynamics.ramsey_map",
     lambda r, a, k: r.signal.size * _noise_samples(a, k)),
    ("snspin.dynamics", "eigensystem", "dynamics.eigensystem", None),
    ("snspin.fitkit", "simulate_experiment", "fitkit.simulate_experiment", None),
    ("snspin.fitkit", "calibrate_initial", "fitkit.calibrate_initial", None),
    ("snspin.fitkit", "fit_parameters", "fitkit.fit_parameters",
     lambda r, a, k: r.n_eval),
    ("snspin.fitkit.FitProblem", "residuals", "fitkit.residuals", None),
    ("snspin.spinmodel", "manifold_eigensystem", "spinmodel.manifold_eigensystem", None),
    ("snspin.spinmodel", "eigensystem", "spinmodel.eigensystem", None),
    ("snspin.optics", "cyclicity", "optics.cyclicity", None),
    ("snspin.coherence", "lambda_eff", "coherence.lambda_eff", None),
    ("snspin.coherence", "coherence_map", "coherence.coherence_map", None),
)


def _resolve(path: str):
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


class Tracer:
    """In-memory span recorder; spans are recorded only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.sizes = []
        self._open = []
        self._installed = []

    def span(self, name: str, fn, *args, size=None, **kwargs):
        """Call ``fn`` inside a span named ``name``; returns its result."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.sizes.append(0)
        self.ends.append(math.nan)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._open.pop()
        if size is not None:
            self.sizes[idx] = size(result, args, kwargs)
        return result

    def install(self):
        """Replace every hooked attribute by a span-opening wrapper."""
        for owner_path, attr, name, size in HOOKS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)

            def traced(*args, _fn=original, _name=name, _size=size, **kwargs):
                return self.span(_name, _fn, *args, size=_size, **kwargs)

            setattr(owner, attr, functools.wraps(original)(traced))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write(self, path):
        """All spans as ``id,parent,name,start_s,end_s,size`` rows, gzipped."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_s,end_s,size\n")
            for i, (name, start, end, parent, size) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents, self.sizes)):
                fh.write(f"{i},{parent},{name},{start!r},{end!r},{size}\n")

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed size.

        Self time is a span's duration minus the time its child spans
        cover.  Spans nest on one thread, so the children of a span are
        disjoint and lie inside it.
        """
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
            dur = self.ends[i] - self.starts[i]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child_time[i]
            s["size"] += self.sizes[i]
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans named ``name`` with a span named ``ancestor`` among their causes."""
        count = 0
        for i, own in enumerate(self.names):
            if own != name:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            count += p >= 0
        return count


def span_cost_s(n: int = 20000) -> float:
    """Seconds one enabled span adds to a call, measured on a no-op."""
    tracer = Tracer()
    tracer.enabled = True

    def noop():
        return None

    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        tracer.span("noop", noop)
    return max(time.perf_counter() - t0 - bare, 0.0) / n
