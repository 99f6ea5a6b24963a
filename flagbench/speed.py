"""Host speed probe, for expressing times in seconds at a fixed reference speed.

The shared machines this benchmark runs on change speed by tens of percent
within a minute: the same F4 sign solve took 0.55 s to 0.97 s in one
process, with CPU time equal to wall time, so the cause is contention from
neighbouring load, not preemption.  Run medians cannot average that out.

A background thread pinned to the same core as the work times a fixed
integer loop (the probe) every INTERVAL_S.  The probe allocates nothing the
garbage collector tracks, so flagcoh's heap does not change its cost.  An
interval of wall time t, during which the median probe took p seconds,
counts as t * REFERENCE_PROBE_S / p reference seconds: the time it would
have taken with the probe at its reference duration.  Over 50-60 repeats
of the F4 all-minus solve in one process, this cut the spread
(interquartile distance over median) from 0.14 to 0.03 in a calm minute and
from 0.36 to 0.11 in a noisy one.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from array import array

PROBE_LOOPS = 3000
REFERENCE_PROBE_S = 0.0005  # one probe at the reference speed
INTERVAL_S = 0.025
MIN_SAMPLES = 20


def pin_to_one_cpu() -> None:
    """Keep this process (and the sampler thread) on one core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


class Sampler:
    """Probes the core's speed in a daemon thread between start() and stop().

    Samples go into preallocated arrays, so the thread keeps no objects alive
    among the pass's own allocations (which would change its peak RSS).
    Sampling stops silently after CAPACITY samples.
    """

    CAPACITY = 16384  # 410 s at INTERVAL_S

    def __init__(self):
        self._starts = array("d", bytes(8 * self.CAPACITY))
        self._probes = array("d", bytes(8 * self.CAPACITY))
        self._count = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while self._count < self.CAPACITY and not self._stop.is_set():
            self._starts[self._count] = time.perf_counter()
            self._probes[self._count] = probe()
            self._count += 1
            self._stop.wait(INTERVAL_S)

    @property
    def samples(self) -> list[tuple[float, float]]:
        """(start, probe seconds) pairs."""
        return list(zip(self._starts[: self._count], self._probes[: self._count]))

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end]; an interval
        holding fewer than MIN_SAMPLES probes takes the MIN_SAMPLES nearest
        to its middle."""
        samples = self.samples
        inside = [p for t, p in samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            inside = [p for _, p in nearest]
        return REFERENCE_PROBE_S / statistics.median(inside)


def probe_factor(n: int = 20) -> float:
    """Reference seconds per wall second from n probes run now."""
    return REFERENCE_PROBE_S / statistics.median(probe() for _ in range(n))
