"""Machine-speed calibration for the end-to-end times.

On a shared machine the CPU runs the same code at very different speeds from
one stretch of seconds to the next: on a shared 2-core Xeon VM a fixed
spectrum build took 0.10 s in some 5 s windows and 0.18 s in others, and
whole 20 s runs moved by 30-40%.  Medians over a run cannot remove that, so
the benchmark times a fixed loop of its own next to every measurement and
scales each wall time to the speed at which that loop takes REFERENCE_S.
Across those windows the ratio of the spectrum build to the loop stayed
within about 10%.  The loop is the benchmark's code, not the program's, so
no change to the program moves it; the raw wall times are reported too.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from fractions import Fraction

REFERENCE_S = 0.004  # the loop's time at reference speed


def calibration_s(repeats: int = 3) -> float:
    """Fastest of `repeats` runs of a fixed loop of exact-fraction and float arithmetic."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(1, i)
        x = 0.0
        for i in range(30000):
            x += math.sin(i)
        best = min(best, time.perf_counter() - t0)
    return best


def scale(samples: list[float]) -> float:
    """Factor from wall seconds at the sampled speed to reference seconds."""
    return REFERENCE_S / statistics.fmean(samples)


def timed(fn):
    """(fn(), wall seconds, reference seconds), calibrating just before and after."""
    k0 = calibration_s()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    return out, wall, wall * scale([k0, calibration_s()])


class Sampler:
    """Calibration samples taken on a thread while this process waits for a child.

    Used only around child processes: in-process work would share the
    interpreter lock with the thread.
    """

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.samples.append(calibration_s(1))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
