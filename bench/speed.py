"""Machine-speed correction for times measured on a shared host.

On a shared host the speed of a core changes by up to a factor of two from
one second to the next as other tenants come and go, so raw wall times of
the same pass differ by 20-30 % from run to run.  ``SpeedProbe`` times a
fixed reference snippet every ``PERIOD_S`` seconds from a SIGALRM handler in
the measured process itself, and scales each stretch of a timed region
between two samples by ``REFERENCE_S / (snippet time)``.  The result is the
region's time at the reference speed, the speed at which the snippet takes
``REFERENCE_S``.  The snippets' own time is excluded.

The snippet is plain Python (arithmetic and small-object churn) plus a scan
of a fixed 8 MB buffer, so the probe can run while numpy and scipy are still
being imported.  It makes no heap allocation: a large temporary would move
glibc's mmap threshold, and any block could pin the heap top, both changing
the measured program's memory use.
"""

from __future__ import annotations

import math
import signal
import time

#: seconds between two samples, and the snippet's time at the reference speed
PERIOD_S = 0.1
REFERENCE_S = 0.004

_BUFFER = bytes(range(1, 256)) * ((8 << 20) // 255)  # no zero byte
_SLOTS = [0.0] * 256  # the snippet writes here: preallocated, so no heap allocation


def reference_snippet() -> float:
    """Fixed work; returns its duration in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(5000):
        # small objects, as the simulation's counts and tuples; they come
        # from the interpreter's own pools, not from the heap
        pair = (i, acc)
        cell = {"n": i, "acc": acc}
        acc += math.sqrt(pair[0] + cell["acc"] % 7.0)
        _SLOTS[i & 255] = acc
    _BUFFER.find(0)  # reads all 8 MB: memory bandwidth, as the large array passes do
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the reference snippet through one timed region.

    ``start`` takes one sample before the region and ``stop`` one after it;
    in between a SIGALRM handler takes one every ``PERIOD_S``.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.t0 = self.t1 = 0.0

    def _sample(self, *_signal_args) -> None:
        t = time.perf_counter()
        self.samples.append((t, reference_snippet()))

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def inside_s(self) -> float:
        """Time the snippets took inside the region."""
        return sum(d for _, d in self.samples[1:-1])

    def raw_s(self) -> float:
        """Time in the region without the snippets taken inside it."""
        return self.t1 - self.t0 - self.inside_s()

    def reference_s(self) -> float:
        """Time in the region at the reference speed: each stretch between
        two samples is scaled by the mean of their two snippet times."""
        total = 0.0
        for (ta, da), (tb, db) in zip(self.samples, self.samples[1:]):
            lo = max(ta + da, self.t0)
            hi = min(tb, self.t1)
            if hi > lo:
                total += (hi - lo) * REFERENCE_S / (0.5 * (da + db))
        return total
