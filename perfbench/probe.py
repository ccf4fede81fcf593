"""Host speed, sampled while a workload runs, to normalize its wall time.

On a shared host the same work can take 1.6 times longer in bursts that
last from a fraction of a second to several seconds, while other work
competes for the same core.  A run of one 10–40 s workload cannot average
that out, so the benchmark samples the host's speed every ``INTERVAL_S``
with a fixed slice of pure-Python rational arithmetic (the probe) and
scales each interval of wall time by ``REF_S / probe time`` at its start.
The result is the wall time the workload would take on a host where the
probe takes ``REF_S``; the time spent in the probes themselves is removed.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.2
REF_S = 1e-3


def _probe():
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)
    return start, time.perf_counter() - start


class SpeedProbe:
    """Context manager that samples the probe on a SIGALRM timer."""

    def __enter__(self):
        self.samples = [_probe()]  # (start, seconds), in time order
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(_probe()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalized(self, start: float, end: float) -> float:
        """Normalized seconds for the wall-time interval [start, end)."""
        total = 0.0
        bounds = [t for t, _ in self.samples[1:]] + [float("inf")]
        for (t, d), nxt in zip(self.samples, bounds):
            overlap = min(end, nxt) - max(start, t)
            if overlap > 0:
                total += overlap * REF_S / d
            if start <= t < end:
                total -= REF_S  # the probe's own d seconds, scaled
        return total
