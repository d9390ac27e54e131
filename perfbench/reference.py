"""Normalize measured times against the host's speed while the work runs.

On a shared VM the same operation can run 1.6x slower for a while when
neighbours are busy, and CPU time slows with wall time. A ``Meter`` therefore
times a short fixed pure-Python kernel right before and right after a block of
work, and every INTERVAL_S during it from a SIGALRM handler. The handler's
time is taken out of the block's time. The block's time is then scaled by
REFERENCE_S over the mean kernel time. A normalized time reads in seconds on
a host where the kernel takes REFERENCE_S, which is this host when quiet.

Sampling during the work matters. Over repeated D12 Mobius passes, kernels
timed only before and after cut the coefficient of variation from 15% to
11% in one experiment; sampling during the work cut it from 11% to 4.8% in
another.
"""

from __future__ import annotations

import signal
import statistics
import time

KERNEL_ITERS = 3_000
REFERENCE_S = 0.00065      # one kernel run on the quiet host
INTERVAL_S = 0.05


def reference_kernel() -> int:
    """Integer bit tricks and dict stores, like rackle's closures; no change
    to rackle can make this faster or slower."""
    table = {}
    acc = 0
    for i in range(KERNEL_ITERS):
        m = (i * 2654435761) & 0xFFFFF
        acc ^= m & -m
        table[m & 1023] = acc
    return len(table)


class Meter:
    """``with Meter() as m: work()`` then read m.wall, m.cpu (raw seconds of
    the work alone) and m.scale, m.cpu_scale (normalization factors)."""

    def __enter__(self) -> "Meter":
        self._walls: list[float] = []
        self._cpus: list[float] = []
        self._spent_wall = self._spent_cpu = 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._w0, self._c0 = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        wall, cpu = time.perf_counter() - self._w0, time.process_time() - self._c0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = wall - self._spent_wall
        self.cpu = cpu - self._spent_cpu
        self._sample()
        self.scale = REFERENCE_S / statistics.fmean(self._walls)
        self.cpu_scale = REFERENCE_S / statistics.fmean(self._cpus)

    def _sample(self) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        reference_kernel()
        self._walls.append(time.perf_counter() - w0)
        self._cpus.append(time.process_time() - c0)

    def _on_alarm(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            self._sample()
        except RecursionError:
            # the work is at the recursion limit; skip this sample rather
            # than raise inside it
            pass
        self._spent_wall += time.perf_counter() - w0
        self._spent_cpu += time.process_time() - c0
