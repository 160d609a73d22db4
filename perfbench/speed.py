"""Speed normalisation: time measured on a machine whose speed drifts, scaled
to a machine of fixed speed.

The host this benchmark runs on shares its cores, and its speed drifts by up
to 1.7x over seconds to minutes, with the process's CPU time tracking its wall
time.  A fixed reference kernel, defined here and independent of the code
under test, is timed throughout each measured interval: a ``SIGALRM`` timer
runs it every ``INTERVAL_S`` in the measuring process, between the bytecodes
of whatever that process is running, and once more before and after the
interval.  The interval's wall time, less the time spent in the kernel, is
scaled by ``REFERENCE_S`` over the kernel's mean time in that interval: the
time the interval would have taken on a machine where the kernel takes
``REFERENCE_S``.  A slower or faster ``hude`` moves this time; a slower or
faster machine does not, as far as the kernel's mix of Python and small numpy
operations slows down with it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Seconds between samples, and the kernel's time on the nominal machine (its
# median time on a 2-vCPU Intel Xeon KVM guest, Python 3.11, numpy 2.4).
INTERVAL_S = 0.03
REFERENCE_S = 4.3e-4


def reference_kernel(rows: int = 200, steps: int = 25) -> float:
    """Euler steps of a two-state ODE batch: the same mix of interpreter
    overhead and small-array numpy work as ``hude``'s integrators."""
    y = np.ones((rows, 2))
    t = np.zeros(rows)
    s = np.full(rows, 1e-3)
    for _ in range(steps):
        d = np.empty_like(y)
        d[:, 0] = -0.5 * y[:, 1] * y[:, 0]
        d[:, 1] = np.exp(-t) * y[:, 0]
        y = y + s[:, None] * d
        t = t + s
    return float(y[0, 0])


class Window:
    """Reference samples taken during one measured interval."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time spent in the kernel inside the interval

    @property
    def factor(self) -> float:
        """Nominal seconds per measured second in this interval."""
        return REFERENCE_S / statistics.fmean(self.samples)

    def normalise(self, wall: float, in_process: bool = True) -> float:
        """``wall`` on the nominal machine.  An in-process interval also ran
        the kernel, so its time there is taken out first."""
        return (wall - self.spent if in_process else wall) * self.factor


class SpeedProbe:
    """Samples the reference kernel during ``with probe.window() as w:``."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self._window: Window | None = None

    def _sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self._window.samples.append(time.perf_counter() - start)

    def _on_alarm(self, signum, frame):
        window = self._window
        if window is None:
            return
        start = time.perf_counter()
        self._sample()
        window.spent += time.perf_counter() - start

    @contextmanager
    def window(self):
        if self._window is not None:
            raise RuntimeError("speed windows do not nest")
        self._window = window = Window()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        try:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
            try:
                yield window
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._sample()
        finally:
            self._window = None
            signal.signal(signal.SIGALRM, previous)
