"""Machine-speed sampling for the end-to-end times.

On a shared host the same single-threaded code runs at one of two speeds,
about 1.6x apart, and flips between them many times a second; the share of
time spent slow drifts over minutes. Process CPU time slows with wall time,
so neither tells a slower program from a slower machine. While a timed
stretch runs, a timer signal fires every INTERVAL_S and its handler times a
tiny fixed probe (a dict fill and a float sum); the mean probe time tracks
the machine's speed over that stretch. The stretch is reported as

    (wall time - handler time) x REFERENCE_S / mean probe time

that is, in seconds on a machine where the probe takes REFERENCE_S. The
probe never touches `holdout`, so a change to the library cannot move it.
This module imports only the standard library, so it can time the imports
of everything else.
"""

from __future__ import annotations

import signal
import statistics
import time

# About the probe's mean time inside a running op on a 2-core Intel Xeon VM
# with Python 3.11. It fixes the unit only: a reported time is the wall time
# the stretch would take on a machine where the probe takes this long.
REFERENCE_S = 50e-6
INTERVAL_S = 0.005


def _probe() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(300):
        table[i] = i * 0.5
    total = 0.0
    for value in table.values():
        total += value
    return time.perf_counter() - start


class SpeedSampler:
    """Times one stretch of work between `start()` and `stop()`, sampling
    the machine's speed while it runs. One stretch at a time."""

    def __init__(self):
        self.probes: list[float] = []
        self.handler_s = 0.0
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self._start = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probes.append(_probe())
        self.handler_s += time.perf_counter() - start

    def start(self) -> None:
        self.probes = []
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """End the stretch; returns its scaled time."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = time.perf_counter() - self._start - self.handler_s
        signal.signal(signal.SIGALRM, self._previous)
        if not self.probes:
            # Shorter than one interval: sample right after it.
            self.probes.append(_probe())
        self.scaled_s = self.wall_s * REFERENCE_S / statistics.fmean(self.probes)
        return self.scaled_s
