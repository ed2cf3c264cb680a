"""Host speed sampler: the benchmark's timings at the reference machine's speed.

The benchmark runs on a shared host whose speed switches between a fast and
a slow mode, about a factor of two apart, every few seconds; CPU time
inflates with wall time, so the program itself runs slower, and the share of
a run spent in the slow mode differs from run to run.  The benchmark
therefore scales every timing it reports by the host's speed at the time it
was measured:

    reported = measured * REFERENCE_S * mean(1 / probe time)

over the probes taken while the operation ran, or the nearest ones for an
operation too short to contain a probe.  A timer signal runs the probe every
``period`` seconds, during the operations as well as between them, and the
probe's own time is taken out of the latency of the operation it
interrupted.  The probe is a fixed kernel of the benchmark's own (exact
rational arithmetic and dict updates, the kind of work the program does),
timed with the garbage collector off so that the program's heap does not
enter it.  It calls nothing of the program, so a change to the program moves
the reported timings as it moves the measured ones; only the host's speed is
divided out.  ``REFERENCE_S`` is about the probe's time in the fast mode of
the reference machine (2 CPUs, Python 3.11.7), so the reported figures read
as seconds and milliseconds on that machine when it runs fast.  Runs record
the measured timings and the probe times beside the scaled ones.
"""

import bisect
import gc
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.55e-3   # probe time in the reference machine's fast mode
RUN_PERIOD_S = 0.05     # probe period during the timed operations
SETUP_PERIOD_S = 0.01   # probe period during a set-up, which is short


def _kernel():
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    counts = {}
    for i in range(800):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return total, counts


def probe():
    """Time of one kernel call, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probes the host's speed every ``period`` seconds of wall time while active.

    ``samples`` holds (time, probe time) pairs; ``spent`` is the time the
    probes took, which is not the program's.
    """

    def __init__(self, period):
        self.period = period
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append((t0, probe()))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()   # a last sample, for the operations after the last tick

    def scale(self, start, end):
        """Factor from measured to reference-speed time over [start, end].

        Uses the samples taken in the interval, or else the last one before
        it and the first one after it.
        """
        times = [t for t, _ in self.samples]
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        chosen = self.samples[lo:hi] or self.samples[max(lo - 1, 0):lo + 1]
        return REFERENCE_S * sum(1 / p for _, p in chosen) / len(chosen)
