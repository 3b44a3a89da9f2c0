"""Contention-corrected op times.

The measuring machine is a 2-core guest on a shared host.  A fixed
pure-Python loop there runs at one speed for a while and at about half that
speed for a while, with no steal time visible to the guest, so the wall time
of the same op can double from one run to the next (see DESIGN.md).

``SpeedSampler`` runs a small fixed kernel of ``Fraction`` additions (the
arithmetic mixhom spends its time in) every ``PERIOD`` seconds from a
``SIGALRM`` handler, at a cost of about 0.5% of the run, and records how
long each kernel took.  Between two samples the machine ran at about
``REFERENCE_KERNEL_S / k`` of the reference speed, k being the kernel time,
so ``corrected(start, end)`` is the interval's wall time weighted by that
speed: the time the interval would have taken on a machine where the kernel
always takes ``REFERENCE_KERNEL_S``.  The kernel's data stays in the first
level cache, so memory pressure from the program itself barely moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.02
# the kernel's time on the uncontended 2-core Xeon guest the benchmark was
# defined on; a constant, so that runs in a slow spell are scaled too
REFERENCE_KERNEL_S = 85e-6


def _kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i % 7 + 1, i % 5 + 1)
    return s


class SpeedSampler:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """The run's wall time over its time at the reference speed."""
        return 1 / (REFERENCE_KERNEL_S * statistics.fmean(1 / k for _, k in self.samples))

    def corrected(self, start: float, end: float) -> float:
        """Wall time of [start, end) at the reference speed."""
        speeds = [REFERENCE_KERNEL_S / k for t, k in self.samples if start <= t < end]
        if not speeds:
            return end - start
        return (end - start) * statistics.fmean(speeds)
