"""How fast the machine runs Python right now, measured inside the run.

The benchmark's home is a shared 2-core machine whose speed drifts by ±20%
within seconds and by more over minutes, so raw wall times of the same
compile differ by a third from one run to the next. ``SpeedProbe`` arms a
10 ms timer whose signal handler times a fixed 300-step dict loop between
the bytecodes of whatever runs, compile or set-up alike. ``scale(mark)``
turns a wall time measured since ``mark()`` into seconds at the reference
speed: ``REFERENCE`` divided by the median probe time over the same
interval. Six 25 s runs of ``qaoa256`` seed 1 gave pass medians of 3.41 s
to 4.34 s of wall time and 2.85 s to 3.05 s scaled. The probes cost about
0.4% of the time they cover.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL = 0.01
# Probe seconds at the speed the scaled times are quoted at: roughly this
# machine's usual speed, so scaled times read like wall times.
REFERENCE = 40e-6


def _loop() -> None:
    d: dict[int, int] = {}
    for i in range(300):
        d[i & 63] = d.get(i & 63, 0) + i


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []

    def _probe(self, signum, frame):
        t0 = perf_counter()
        _loop()
        self.samples.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int) -> float:
        """Factor from wall seconds since ``mark`` to seconds at the reference
        speed. An interval too short to hold a probe uses every probe so far."""
        recent = self.samples[mark:] or self.samples
        return REFERENCE / statistics.median(recent) if recent else 1.0
