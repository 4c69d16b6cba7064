"""Host-speed calibration for a shared, noisy machine.

On the reference host the same solve drifts by up to a factor of two
within minutes (neighbouring tenants), at every time scale from a fraction
of a second to whole runs, so a median over one run does not remove it.
The benchmark therefore times a fixed slice of its own work --
interpreter-bound Python, small-array and larger-array numpy, the kinds of
work the workloads do -- a few times a second *while* each instance runs
(from a SIGALRM handler; the slices' time is subtracted from the
instance's), and reports times rescaled to a host on which one slice takes
``REF_SLICE_S``:

    normalised = (measured - slices) * REF_SLICE_S / typical(slices)

A short compute-bound measurement on that host is bimodal (a slice reads
about 11 ms or about 18 ms as neighbours come and go).  An instance that
spans two or more slices integrates over both modes, so ``typical`` is the
mean of the slices taken during it; a shorter instance sits in one mode,
so it is the median of those and the few taken just before it.

The slice is benchmark code that no change to sigcalc touches, so a
program change moves normalised times as it moves raw ones; only host
speed cancels.  Raw times are printed alongside.

A memory-bound solve does not follow the slice; a workload whose solves
are memory-bound reports raw times instead (``Workload.normalised``).
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

REF_SLICE_S = 0.025
PERIOD_S = 0.25  # one slice per this much wall time inside an instance
RECENT = 3  # slices from before an instance that also count for it


def _slice() -> float:
    acc, table = 0.0, {}
    for i in range(30_000):
        acc += (i % 7) * 0.5
        table[i & 255] = acc
    small = np.arange(64, dtype=np.complex128)
    idx = np.arange(64) % 16
    for _ in range(1_000):
        out = np.zeros(16, dtype=np.complex128)
        np.add.at(out, idx, small * small[::-1])
        small = small + out.sum() * 1e-12
    big = np.linspace(0.0, 1.0, 4_000 * 16).reshape(4_000, 16)
    col = np.linspace(1.0, 2.0, 16)
    for _ in range(40):
        big = big * 0.5 + (big @ col)[:, None] * 1e-9
    return acc + float(small.real.sum()) + float(big[0, 0])


def _timed_slice() -> float:
    t0 = time.perf_counter()
    _slice()
    return time.perf_counter() - t0


class Speedometer:
    """Calibration slices, kept in the order they were taken."""

    def __init__(self):
        self.samples: list[float] = []

    def measure(self, n: int = RECENT) -> None:
        """Take ``n`` slices now, between measurements."""
        self.samples.extend(_timed_slice() for _ in range(n))

    @contextlib.contextmanager
    def during(self):
        """Take slices periodically inside the block.

        Yields a record whose ``scale`` and ``paused_s`` are set on exit:
        the factor to reference-host seconds and the time the slices took.
        """
        rec = _Sampled(self.samples[-RECENT:])
        taken: list[float] = []

        def tick(signum, frame):
            taken.append(_timed_slice())

        old = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield rec
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)
            self.samples.extend(taken)
            rec.paused_s = sum(taken)
            typical = (statistics.fmean(taken) if len(taken) >= 2
                       else statistics.median(rec.recent + taken))
            rec.scale = REF_SLICE_S / typical


class _Sampled:
    def __init__(self, recent: list[float]):
        self.recent = recent
        self.paused_s = 0.0
        self.scale = 1.0
