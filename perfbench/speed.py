"""Machine speed probe, so that timings taken on a shared host compare.

On the small shared virtual machines this benchmark runs on, the speed
of a vCPU drifts by up to 2x within seconds while the process is never
descheduled (CPU time equals wall time), so neither CPU time nor the
minimum of a few passes removes it.  A fixed pure-Python kernel slows
down with it.  `Meter` times an interval and samples the kernel before,
during (from a SIGALRM handler, every SAMPLE_EVERY seconds) and after it;
the interval is reported in *reference seconds*:

    (measured seconds - seconds spent in samples) * mean(REFERENCE_SECONDS / sample)

i.e. the seconds the interval would take on a host where the kernel
takes REFERENCE_SECONDS.  Raw seconds are kept beside them.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Kernel time on an unloaded 2-vCPU x86-64 host with CPython 3.11.
REFERENCE_SECONDS = 0.002
SAMPLE_EVERY = 0.2


def _kernel():
    """Fraction arithmetic and tuple-keyed dict stores, like artinalg's inner loops."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 1000):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        table[(i % 97, i % 89)] = acc.numerator % 1000
    return acc


def _sample() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def probe() -> float:
    """Median of five kernel times."""
    return statistics.median(_sample() for _ in range(5))


class Meter:
    """Context manager: measured `seconds` of its body and the `scale` to reference seconds.

    Not reentrant; the body must not use SIGALRM itself.
    """

    def __enter__(self):
        self.samples = [probe()]
        self._sampling = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        self._start = time.perf_counter()
        return self

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(_sample())
        self._sampling += time.perf_counter() - start

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = elapsed - self._sampling
        self.samples.append(probe())
        self.scale = statistics.fmean(REFERENCE_SECONDS / s for s in self.samples)
        return False
