"""Speed-normalised timing for a shared machine.

On a small VM that shares its host with other tenants, the CPU runs the same
code up to about 1.8x slower in phases that last from seconds to minutes;
the process's CPU time slows with it, so it is not steal time.  A run of
tens of seconds can fall wholly inside a slow phase, so neither the fastest
nor the median repetition is steady from run to run.

``SpeedSampler`` measures the machine's speed *while* the program runs: a
SIGALRM handler fires every ``PERIOD_S`` seconds of real time and times a
fixed reference kernel (a pure-Python loop, plus small BLAS products once
numpy is loaded).  The elapsed time of the timed block, less the time the
handler took, is then rescaled to reference speed::

    normalised = (elapsed - handler time) * REF_S / mean(kernel time)

``REF_S`` is the kernel's time on a quiet 2-vCPU Xeon VM, so a normalised
time reads as seconds on that machine.  The kernel is part of the benchmark,
not of the program: a change to the program moves the normalised time and
leaves the kernel alone.  Handlers run between bytecodes of the main thread,
so the program's own state is never touched.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time

PERIOD_S = 0.05
_LOOP = range(2000)
# The kernel's seconds at reference speed, keyed by whether the BLAS part
# runs: its time in the machine's fast phase, taken inside the
# nonlinear-tensor workload (BLAS) and inside the import probe (no BLAS),
# where caches are cold.  They fix the scale only; a bound compares a
# workload with itself.
REF_S = {True: 0.25e-3, False: 0.13e-3}


def _py_kernel():
    s = 0
    for x in _LOOP:
        s += x * x
    return s


class SpeedSampler:
    """Context manager: ``with SpeedSampler() as sp: ...; sp.normalise(elapsed)``."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list = []
        self.blas = "numpy" in sys.modules
        if self.blas:
            import numpy as np

            self._a = np.random.default_rng(0).standard_normal((16, 16))
            self._b = self._a.copy()

    def _kernel(self):
        _py_kernel()
        if self.blas:
            import numpy as np

            for _ in range(60):
                np.dot(self._a, self._a, out=self._b)
                self._b.sum()

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalise(self, elapsed: float) -> float:
        """``elapsed`` seconds of the timed block, rescaled to reference speed."""
        if len(self.samples) < 3:
            raise RuntimeError(f"speed sampler took {len(self.samples)} samples in {elapsed:.3f} s")
        work = elapsed - sum(self.samples)
        return work * REF_S[self.blas] / statistics.fmean(self.samples)
