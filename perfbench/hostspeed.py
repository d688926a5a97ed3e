"""Host-speed samples taken while the benchmark runs, to scale its timings.

The benchmark runs on a few cores of a shared host whose speed moves by up
to a factor of two, within seconds and for minutes at a time, while process
CPU time keeps pace with wall time. So the slowdown is in each instruction,
not in lost time slices, and a unit's wall time says as much about the
neighbours as about hopflab.

Sampler times a small probe kernel every PERIOD_S seconds from a SIGALRM
handler, that is, in the middle of whatever hopflab call is running. The
probe shares no code with hopflab: a pure-Python loop and a loop of small
numpy calls, the two kinds of work hopflab's per-point calls are made of.
A unit's time has the probes' own time taken out, and is then scaled by
PROBE_SECONDS over the mean probe time during the unit (widened by PAD_S,
so that a short unit still has samples). A change to hopflab moves the
scaled time as it moves the raw time; a change of the host's speed moves
the unit and the probes alike and cancels.

Scaled times are seconds on a host where the probe takes PROBE_SECONDS;
the raw times are reported beside them.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.1
PAD_S = 0.25
PROBE_SECONDS = 1.2e-3  # about the probe's time on an unloaded 2-core VM
_PY_ITERS = 5_000
_NP_ITERS = 50
_VEC = np.array([[0.3, -0.5, 0.7, 0.4]])
_MAT = np.array([[0.2, 0.9, -0.4], [0.6, -0.1, 0.3], [-0.7, 0.5, 0.8], [0.1, 0.4, -0.6]])


def _probe():
    acc = 0
    for i in range(_PY_ITERS):
        acc += i * i % 7
    x, total = _VEC, 0.0
    for _ in range(_NP_ITERS):
        y = np.einsum("ni,ij->nj", x, _MAT)
        total += float(np.linalg.norm(y))
        x = x / np.linalg.norm(x)
    return acc + total


class Sampler:
    """Probe samples over a `with` block, and units timed against them."""

    def __init__(self):
        self.samples = []   # (perf_counter at probe start, probe seconds)
        self.spent = 0.0    # total probe seconds so far
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _probe()
        seconds = time.perf_counter() - t0
        self.samples.append((t0, seconds))
        self.spent += seconds

    def start(self):
        return Interval(time.perf_counter(), self.spent)

    def stop(self, span):
        span.end = time.perf_counter()
        span.seconds = span.end - span.start - (self.spent - span.spent)
        return span

    def scaled(self, span):
        """The interval's seconds at the probe's reference speed."""
        lo, hi = span.start - PAD_S, span.end + PAD_S
        probes = [s for t, s in self.samples if lo <= t <= hi]
        if not probes:  # a run shorter than the pad, or no samples yet
            return span.seconds
        return span.seconds * PROBE_SECONDS * len(probes) / sum(probes)


@dataclass
class Interval:
    """Wall time of one unit, less the probe time spent inside it."""

    start: float
    spent: float  # the sampler's probe seconds at the start
    end: float = 0.0
    seconds: float = 0.0
