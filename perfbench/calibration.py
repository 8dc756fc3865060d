"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same code runs up to about 50% slower while neighbours
are busy, in states that last from seconds to minutes, so raw wall times of
runs made minutes apart spread past any useful bound. The benchmark times this
kernel right before and right after each set-up and each pass segment of about
``TICK_S`` or more, divides the step's wall time by the mean of the two, and
multiplies by ``REFERENCE_S``.
The result reads as seconds on a host where the kernel takes ``REFERENCE_S``.

The kernel does not call the package, so a change to the package cannot move
it. It mixes the kinds of work the package does: vectorised numpy on complex
arrays, scatter-add, BLAS matrix products and interpreted Python.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# About the kernel's median wall time on the 2-core x86 VM the benchmark was
# tuned on, so reference seconds read close to wall seconds there.
REFERENCE_S = 0.13
# Shortest pass segment worth a run of the kernel.
TICK_S = 0.5


def _kernel() -> float:
    rng = np.random.default_rng(12345)
    rates = np.array([-1.0 + 2.0j, -2.0 + 0.5j, -3.0])
    total = 0.0
    for _ in range(14):
        times = rng.uniform(0.0, 1.0, 20_000)
        weights = np.exp(np.outer(times, rates))
        accum = np.zeros((4_000, 3), dtype=complex)
        np.add.at(accum, rng.integers(0, 4_000, times.size), weights)
        total += float(np.abs(accum).sum())
    A = rng.standard_normal((200, 200))
    for _ in range(40):
        A = np.tanh(A @ A.T / 200.0)
    total += float(A.sum())
    acc = Fraction(0)
    for i in range(1, 4_500):
        acc += Fraction(i % 7, i)
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return total + float(acc) + s


def calibrate() -> float:
    """Wall seconds of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """seconds measured between two calibrations, in reference seconds."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)


class SegmentClock:
    """Times one set-up or pass in segments, each between two kernel runs.

    ``tick()`` ends a segment once it has run ``TICK_S``, so short jobs share a
    segment; ``finish()`` ends the last one. The kernel's own time is left out
    of the step. With ``live`` false only ``finish()`` calibrates, so a traced
    pass has no kernel run inside its spans. ``calib`` is the run's list of
    kernel times; its last entry is the run made right before the step.
    """

    def __init__(self, calib: list, live: bool):
        self.calib, self.live = calib, live
        self.wall = self.cpu = self.ref = 0.0

    def start(self):
        self._wall0, self._cpu0 = time.perf_counter(), time.process_time()

    def _end_segment(self, calibrate_now: bool):
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        if calibrate_now:
            self.calib.append(calibrate())
        self.wall += wall
        self.cpu += cpu
        self.ref += scaled(wall, self.calib[-2 if calibrate_now else -1], self.calib[-1])
        self.start()

    def tick(self):
        if self.live and time.perf_counter() - self._wall0 >= TICK_S:
            self._end_segment(True)

    def finish(self):
        # A remainder of a few milliseconds is scaled by the last calibration.
        self._end_segment(time.perf_counter() - self._wall0 >= 0.01)
