"""Timing at a reference core speed.

The machines this benchmark runs on share their cores with other work, and
the same pure-Python computation can take twice as long from one second to
the next (measured: a fixed Fraction loop swung between 97 and 199 ms, with
process CPU time tracking wall time).  No hardware counter is readable in
such a guest, so the benchmark measures the core's speed itself: while a
request runs, an interval timer interrupts it every PERIOD_S seconds and the
handler times a fixed Fraction kernel, which is also timed once before and
once after the request.  The kernel uses nothing from kproper, so a change
to the program never changes it.

`Sampler.normalized()` is the request's wall time, less the time spent in
the handler, at the speed of a core that runs the kernel in REFERENCE_S.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.01
# Fixes the unit of normalized times only: with it they read close to the
# wall times of an unloaded 2-core Intel Xeon running Python 3.11.
REFERENCE_S = 450e-6


def kernel():
    # Fraction arithmetic on small tuples, hashing, sorting and formatting,
    # like the program's own inner loops.  A smaller all-arithmetic kernel
    # tracked the program's slowdowns less closely.
    rows = [tuple(Fraction(i * j + 1, j + 2) for j in range(5)) for i in range(6)]
    total = Fraction(0)
    for r in rows:
        for s in rows[:3]:
            total += sum(a * b for a, b in zip(r, s))
    names = {r: str(r[0]) for r in rows}
    return total, sorted(rows), ",".join(names.values())


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Sampler:
    """Context manager that samples the core speed while its body runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.elapsed = 0.0
        self.in_handler = 0.0

    def _handler(self, signum, frame):
        self.samples.append(time_kernel())

    def __enter__(self):
        self.samples = [time_kernel()]
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.in_handler = sum(self.samples[1:])
        self.samples.append(time_kernel())
        return False

    def normalized(self) -> float:
        return normalize(self.elapsed - self.in_handler, self.samples)


def normalize(seconds: float, samples) -> float:
    """`seconds` of wall time, during which the kernel took `samples`, at
    reference speed.  Work done over dt at a kernel time of s is dt/s, so
    the work of the whole interval is its length times the time-average of
    1/s; the samples are evenly spaced in time, so that is their mean."""
    return seconds * sum(REFERENCE_S / s for s in samples) / len(samples)
