"""Times in seconds at a fixed reference CPU speed.

The vCPUs of the machine this benchmark was written on change speed on
their own, each independently of the other, between a fast state and one
1.4-2x slower, for stretches of a fraction of a second to minutes.  Raw
wall times of the same work then spread by 30-40% from run to run.  So
while a workload runs, a timer interrupts it every ``INTERVAL_S`` and
times a fixed probe kernel (small complex eigensystems, the same kind of
work as the program's), in the same thread and so on the same vCPU.  A
span of wall time is rescaled by ``REFERENCE_S`` over the median probe
time inside it, less the probes' own time: seconds as the work would
have taken at the probe's reference speed.  On that scale the same work
spreads by 2.5-7% across the two states where raw times spread by 40-50%;
pure-Python loops, which slow less than the probe, by more (see the
README).
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

# The kernel's duration when it interrupts a workload (so with its code
# and data out of cache) in the fast state of the reference machine, a
# 2-vCPU sandbox with single-threaded OpenBLAS 0.3.31; back to back it
# takes 70 us there.  Then the sampling interval of the probe.
REFERENCE_S = 1.2e-4
INTERVAL_S = 0.01

_RE, _IM = np.random.default_rng(0).standard_normal((2, 8, 8))
_H = (_RE + 1j * _IM) + (_RE + 1j * _IM).conj().T


def kernel_s() -> float:
    """Seconds one run of the probe kernel takes now."""
    t0 = time.perf_counter()
    for _ in range(3):
        w, v = np.linalg.eigh(_H)
        (v * np.exp(-1j * w)) @ v.conj().T
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the probe kernel every ``INTERVAL_S`` while in a ``with`` block."""

    def __init__(self):
        self.ends = []
        self.durations = []
        self._previous = None

    def _tick(self, signum=None, frame=None):
        d = kernel_s()
        self.ends.append(time.perf_counter())
        self.durations.append(d)

    def __enter__(self):
        kernel_s()  # a process's first call also loads LAPACK's routines
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Reference over median probe time, over the probes in [t0, t1].

        With none there, the last probe before ``t1``; with none at all,
        one taken now.
        """
        i = bisect.bisect_left(self.ends, t0)
        j = bisect.bisect_right(self.ends, t1)
        if i < j:
            return REFERENCE_S / statistics.median(self.durations[i:j])
        if j == 0:
            self._tick()
            j = len(self.durations)
        return REFERENCE_S / self.durations[j - 1]

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The wall span [t0, t1], less the probes inside it, in seconds
        at the reference speed."""
        i = bisect.bisect_left(self.ends, t0)
        j = bisect.bisect_right(self.ends, t1)
        busy = t1 - t0 - sum(self.durations[i:j])
        return busy * self.scale(t0, t1)
