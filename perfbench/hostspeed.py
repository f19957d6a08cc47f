"""Host speed, sampled while the workload runs, and times rescaled by it.

The host this benchmark was written on shares its cores with other guests.
Its throughput drifts by up to 2x for seconds to minutes at a time, in the
guest's CPU time as much as in its wall time, so neither clock repeats from
run to run.  While a pass runs, `SpeedSampler` runs a fixed pure-Python
kernel for about 0.6 ms every `INTERVAL_S` of the process's CPU time (on
SIGPROF).  The kernel's mean time says how fast the host was during the
pass; `rescale`
takes the sampling time back out of the pass's wall time and converts the
rest to seconds at the reference speed, where one kernel run takes
`REF_KERNEL_S`.

Time spent waiting out a fixed wall-clock deadline (an extraction that hits
its time limit) does not get faster on a faster host, so it is kept as
measured, with the sampler paused (`paused()`).
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

INTERVAL_S = 0.02        # CPU seconds between kernel samples
REF_KERNEL_S = 0.0006    # the kernel's time at the reference speed
_TABLE = list(range(4096))
_active: "SpeedSampler | None" = None


def kernel(n: int = 2000) -> int:
    """Fixed interpreter work: table reads, dict updates, integer ops."""
    d: dict[int, int] = {}
    acc = 0
    for i in range(n):
        k = (i * 2654435761) & 4095
        acc += _TABLE[k]
        d[k] = d.get(k, 0) + 1
    return acc + len(d)


class SpeedSampler:
    """Runs `kernel()` every INTERVAL_S of CPU time inside a `with` block.
    Keeps the number of samples, their kernel seconds and the wall seconds
    the sampling took in all."""

    def __init__(self):
        self.samples = 0
        self.kernel_s = 0.0
        self.spent_s = 0.0

    def _sample(self, _signum, _frame):
        clock = time.perf_counter
        t0 = clock()
        kernel()
        t1 = clock()
        self.samples += 1
        self.kernel_s += t1 - t0
        self.spent_s += clock() - t0

    @property
    def slowdown(self) -> float:
        """The host's time per unit of work relative to the reference
        speed; 1.0 when nothing was sampled."""
        if not self.samples:
            return 1.0
        return self.kernel_s / self.samples / REF_KERNEL_S

    def __enter__(self):
        global _active
        if _active is not None:
            raise RuntimeError("a SpeedSampler is already running")
        _active = self
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        global _active
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)
        _active = None
        return False


@contextmanager
def paused():
    """No samples inside the block (a no-op when no sampler runs)."""
    if _active is None:
        yield
        return
    signal.setitimer(signal.ITIMER_PROF, 0, 0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def rescale(wall_s: float, sampler: SpeedSampler,
            deadline_s: float = 0.0) -> float:
    """`wall_s` in seconds at the reference speed: the sampling time is
    removed, `deadline_s` (measured with the sampler paused) is kept as is,
    and the rest is divided by the sampled slowdown."""
    work_s = wall_s - sampler.spent_s - deadline_s
    return deadline_s + work_s / sampler.slowdown
