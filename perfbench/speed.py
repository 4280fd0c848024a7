"""Core-speed probe: rescales measured times to a fixed reference speed.

On a shared host a core's speed can change by up to 2x for seconds to
minutes at a time, when another tenant loads the same physical core.
Process CPU time moves with wall time then, and a VM exposes no hardware
counters, so raw times of identical work spread more than any useful
regression bound.  The probe runs a small fixed pure-Python kernel from a
SIGALRM interval timer, in the measured thread itself, and records how
long each run of it took.  `rescale` then converts a stretch of wall time,
piece by piece between probes, into the seconds the same work would take
at the reference speed, REF_KERNEL_S per kernel run; the probes' own time
is left out.  The kernel is the interpreter-bound kind of code the
package runs (integer Bareiss on nested lists, dict and tuple churn), so
a slowdown of the core slows both alike.

    with SpeedProbe() as probe:
        t0 = time.perf_counter(); work(); t1 = time.perf_counter()
    seconds_at_reference_speed = probe.rescale(t0, t1)
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

INTERVAL_S = 0.025
# Kernel time on an uncontended core of the reference machine (KVM guest
# on an Intel Xeon of the Sapphire Rapids generation, Python 3.11); a
# contended core takes up to twice as long.
REF_KERNEL_S = 2.8e-4
# probes on each side whose median gives the local kernel time
SMOOTH = 3

_rng = random.Random(7)
_MATRIX = [[_rng.randint(-9, 9) for _ in range(15)] for _ in range(15)]


def kernel() -> int:
    """Fixed work: a 15x15 integer Bareiss determinant plus dict churn."""
    m = [row[:] for row in _MATRIX]
    n, prev = len(m), 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    d = {}
    for i in range(400):
        d[i, i & 7] = (i, -i)
    return m[-1][-1] + len(d)


class SpeedProbe:
    """Context manager that samples core speed while the body runs."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []  # whole probe, both kernel runs
        self.kernel_times: list[float] = []  # the timed second run
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # The first run brings the kernel back into the caches the measured
        # work evicted, so only the second run's time reflects core speed.
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        self.kernel_times.append(time.perf_counter() - t1)

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)  # so that even a short interval has a speed
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _local(self, i: int) -> float:
        """Median kernel time of the probes around probe i."""
        lo = max(0, i - SMOOTH)
        return statistics.median(self.kernel_times[lo : i + SMOOTH + 1])

    def rescale(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would have taken at REF_KERNEL_S per kernel run.

        Each stretch of work between two probes is weighted by the local
        kernel time of the probe that closes it (the last one, for the
        tail after it).
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        total, cursor = 0.0, t0
        for i in range(lo, hi):
            total += (self.starts[i] - cursor) / self._local(i)
            cursor = self.starts[i] + self.durations[i]
        tail = min(hi, len(self.starts) - 1)
        total += max(0.0, t1 - cursor) / self._local(tail)
        return total * REF_KERNEL_S
