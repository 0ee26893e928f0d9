"""Wall time rescaled to a reference machine speed.

On a shared VM the CPU's speed can switch between states for seconds at a
time: a fixed loop may take 1.8x as long in one second as in the next,
with no steal time, so CPU seconds drift as much as wall seconds. A run
that happens to sit in slow states more than another then reads slower,
whatever the program did.

A ``Clock`` measures the machine's speed while the program runs. It times
a fixed probe on entry, on exit and every ``period_s`` seconds from a
SIGALRM handler, which Python runs between bytecodes of whatever the
program is doing. Each gap between two probes counts in reference seconds
as its wall length times ``ref_s`` over the mean of the two probes'
durations, so a gap run at half speed counts half. The probes' own time
counts in neither wall nor reference seconds.

Three probes exist, one per kind of bottleneck: ``spin`` is a scalar
math loop in Python, the work of the quadrature callbacks; ``brent`` finds
roots of a tan secular equation with scipy's brentq and a Python callback,
the work of spectra1d; ``churn`` adds, sorts and sums a 2 MB numpy array,
the kind of work of the pair reduction. None touches the package, so a
change to the program moves the workload's time and not the probe's.
"""

from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

SPIN_STEPS = 2000
BRENT_ROOTS = 10
_CHURN_DATA = np.random.default_rng(0).random(250_000)


def spin():
    total = 0.0
    for i in range(SPIN_STEPS):
        total += math.sin(i * 1e-3)
    return total


def _secular(x, k):
    return math.tan(x) - k / (x + 1.0)


def brent():
    for n in range(BRENT_ROOTS):
        brentq(_secular, n * math.pi + 1e-9, (n + 0.5) * math.pi - 1e-9, args=(0.5,))


def churn():
    ordered = np.sort(_CHURN_DATA + 0.5)
    return float(np.cumsum(ordered)[-1])


@dataclass(frozen=True)
class Probe:
    name: str
    run: object
    ref_s: float  # the probe's duration at the reference speed
    period_s: float  # seconds between probes while a clock runs


# ref_s is the probe's typical duration in the fast state of the 2-vCPU VM the
# benchmark was defined on; it only fixes the scale of the reported seconds.
SPIN = Probe("spin", spin, 1.75e-4, 0.05)
BRENT = Probe("brent", brent, 1.05e-4, 0.05)
CHURN = Probe("churn", churn, 4.8e-3, 0.25)
PROBES = {p.name: p for p in (SPIN, BRENT, CHURN)}


class Clock:
    """Context manager recording probe runs; query any interval inside it afterwards."""

    def __init__(self, probe):
        self.probe = probe
        self.marks = []  # (start, end) of every probe run, in time order
        self._previous = None
        self._running = False

    def _sample(self):
        start = time.perf_counter()
        self.probe.run()
        self.marks.append((start, time.perf_counter()))

    def _on_alarm(self, signum, frame):
        self._sample()
        # A signal raised just before __exit__ stopped the timer is handled after it; not re-arming
        # then keeps a SIGALRM from reaching the restored default handler, which would end the process.
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, self.probe.period_s)

    def __enter__(self):
        self.marks = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        # One-shot, re-armed after each probe, so a slow probe is never interrupted by the next.
        signal.setitimer(signal.ITIMER_REAL, self.probe.period_s)
        return self

    def __exit__(self, *exc):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def seconds(self, t0, t1):
        """(wall, reference) seconds of [t0, t1], both without probe time."""
        wall = ref = 0.0
        for (s0, e0), (s1, e1) in zip(self.marks, self.marks[1:]):
            overlap = min(t1, s1) - max(t0, e0)
            if overlap > 0:
                wall += overlap
                ref += overlap * self.probe.ref_s / (0.5 * ((e0 - s0) + (e1 - s1)))
        return wall, ref

    def probe_seconds(self, t0, t1):
        """Wall seconds of the probe runs inside [t0, t1]."""
        return sum(max(0.0, min(t1, e) - max(t0, s)) for s, e in self.marks)
