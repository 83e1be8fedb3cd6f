"""Time measured at a reference machine speed.

The machine this benchmark runs on is shared: the same run can take 35 s or
55 s depending on what its neighbours do, and the slow phases come and go
within seconds.  A timer interrupt (SIGALRM, no thread) fires every
INTERVAL seconds and times a fixed reference kernel, once to warm the caches
and then twice, keeping the faster.  The program time since the previous
sample is scaled by REF_SECONDS / (kernel time), so a phase in which
everything runs 1.6x slower counts 1/1.6 as much.  The kernel's own time is
left out.  The result reads in seconds at the speed at which the
kernel takes REF_SECONDS.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.02
REF_SECONDS = 1.2e-4


class SpeedClock:
    def __init__(self):
        self._cube = np.linspace(0.0, 1.0, 1024).reshape(16, 16, 4)
        self.scaled = 0.0
        self.samples = 0
        self._mark = time.perf_counter()
        self._factor = 1.0
        self._previous = None

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(8):
            total += float(np.clip(np.diff(self._cube, axis=0), -0.5, 0.5).sum())
        return total

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        # right after a large array operation the first run pays for cold
        # caches (3x after touching a 32 MB array); the warm runs see only
        # the machine's speed
        self._kernel()
        kernel_s = []
        for _ in range(2):
            begin = time.perf_counter()
            self._kernel()
            kernel_s.append(time.perf_counter() - begin)
        end = time.perf_counter()
        self._factor = REF_SECONDS / min(kernel_s)
        self.scaled += (start - self._mark) * self._factor
        self.samples += 1
        self._mark = end

    def now(self) -> float:
        """Reference-speed seconds elapsed since start()."""
        return self.scaled + (time.perf_counter() - self._mark) * self._factor

    def start(self):
        self._tick(None, None)  # a first sample sets the factor
        self.scaled = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
