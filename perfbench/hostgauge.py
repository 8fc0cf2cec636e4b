"""A gauge of the host's speed, read while the program runs.

On a shared host the same computation can take twice as long for seconds or
minutes at a time, while the guest sees its CPU busy all along (the CPU time
of a solve grows with its wall time).  Timing the program alone then measures
the host as much as the program.  ``HostGauge.running()`` therefore reads a
fixed computation every ``interval`` seconds of wall time, from a SIGALRM
handler in the benchmark's own thread, so that the readings sample the host's
speed uniformly over the time the program runs.

For a span of the program that took ``T`` seconds, of which the readings in
it took ``G``, the benchmark reports ``(T - G) * mean(1 / g)`` over the
readings ``g`` in the span: the span's time in units of one reading, that is,
how many readings the same work would have taken at the host's speed of the
moment.  The mean of the inverse (the host's speed) is the right one: a span
that is fast for half its time and half as fast for the other half did 3/4 of
the work it would have done at full speed in the same time.  The correction
is only as good as the match between the program's slow-down and the
reading's: on a 2-vCPU host where the raw time of one solve ranged 1.4-2.8 s,
its normalized time stayed within about 5% either way.

The computation mimics the solvers' inner loops (a projected gradient step,
a weighted Gram matrix with its Cholesky factor and a solve, a short
pure-Python loop) and does not touch ``minmin``, so a change to the program
does not change it.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time

import numpy as np

_RNG = np.random.default_rng(12345)
_B = _RNG.normal(size=(50, 5)) / math.sqrt(50)
_A = _RNG.normal(size=(30, 5))
KERNEL_STEPS = 25  # about 1 ms on a 2-vCPU x86 host


def kernel() -> float:
    """The fixed computation a reading times.  Its arrays are as small as the
    solvers' own, so that it does not wake BLAS threads the program would
    not have woken."""
    x, y, total = np.full(5, 0.3), np.zeros(50), 0.0
    for k in range(KERNEL_STEPS):
        # a projected gradient step, as in the inner solvers
        y = y - 0.5 * (y - _B @ x)
        norm = math.sqrt(float(y @ y))
        if norm > 1.0:
            y = y / norm
        # a weighted Gram matrix, its Cholesky factor and a solve, as in the
        # cutting plane's barrier steps
        slack = 2.0 + np.sin(_A @ x + k)
        gram = _A.T @ (_A / (slack * slack)[:, None])
        np.linalg.cholesky(gram)
        total += float(np.linalg.solve(gram, _A.T @ (1.0 / slack))[0])
        total += sum(i * i for i in range(30)) * 1e-9
    return total


class HostGauge:
    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.readings: list[float] = []  # wall seconds of each reading
        self.wall_s = 0.0  # wall seconds of all readings
        self.cpu_s = 0.0  # process CPU seconds of all readings
        self._reading = False

    def _read(self, signum, frame):
        # A signal that arrives while a reading runs (a reading slower than
        # the interval) is dropped: a nested reading would time the outer
        # one's remainder and could nest without end.
        if self._reading:
            return
        self._reading = True
        try:
            wall, cpu = time.perf_counter(), time.process_time()
            kernel()
            wall = time.perf_counter() - wall
            self.readings.append(wall)
            self.wall_s += wall
            self.cpu_s += time.process_time() - cpu
        finally:
            self._reading = False

    def clock(self) -> float:
        """``time.perf_counter()`` less the time of all readings so far."""
        return time.perf_counter() - self.wall_s

    @contextlib.contextmanager
    def running(self):
        """Take a reading every ``interval`` seconds during the block."""
        kernel()  # any lazy set-up of the libraries it calls happens here
        previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple[int, float]:
        return len(self.readings), self.cpu_s

    def span(self, mark: tuple[int, float]) -> tuple[float, float, float | None]:
        """Wall and CPU seconds of the readings since ``mark``, and the mean
        inverse reading over them (None if there was none)."""
        readings = self.readings[mark[0]:]
        speed = sum(1.0 / g for g in readings) / len(readings) if readings else None
        return sum(readings), self.cpu_s - mark[1], speed


GAUGE = HostGauge()
