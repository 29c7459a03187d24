"""Host speed, sampled while the workload runs, to express times in
reference seconds.

On a shared 2-core host the same work can take 1.5x longer for minutes on
end, while other tenants load the machine.  A fixed pure-Python kernel
(tuple permutation products and dict stores, the operations `cca.perms` is
made of) is timed every `every` seconds by a timer signal, in the thread
that runs the workload, so it samples the speed the workload gets.  An
operation's reference time is its measured time, less the sampler's own time
inside it, scaled by REFERENCE_S over the mean kernel time of the samples
taken during it and of the NEIGHBOURS nearest on each side: the time it would
take on a host that runs the kernel in REFERENCE_S seconds.  The kernel
shares no code with `cca`, so a change to the program moves reference times
as it moves measured ones.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from contextlib import contextmanager

# About the kernel's time on an unloaded core of the 2-core Xeon host the
# benchmark was written on, so reference seconds read close to seconds there.
REFERENCE_S = 0.010
KERNEL_ROUNDS = 4000
# Samples taken on each side of an operation that join those taken during
# it: a short operation sees no sample of its own.
NEIGHBOURS = 2

_rng = random.Random(0)
_PERMS = [tuple(_rng.sample(range(48), 48)) for _ in range(64)]


def kernel() -> float:
    """Seconds one run of the kernel takes."""
    t0 = time.perf_counter()
    q, seen = _PERMS[0], {}
    for i in range(KERNEL_ROUNDS):
        q = tuple(q[j] for j in _PERMS[i & 63])
        seen[q[:6]] = i
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples with the interval each one took."""

    def __init__(self, every: float = 0.25):
        self.every = every
        self.begin: list[float] = []
        self.end: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self, signum=None, frame=None) -> None:
        """Time the kernel once; also the handler of the timer signal."""
        begin = time.perf_counter()
        self.kernel_s.append(kernel())
        self.begin.append(begin)
        self.end.append(time.perf_counter())

    @contextmanager
    def sampling(self):
        """Sample on entry, every `every` seconds inside, and on exit."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def _inside(self, start: float, end: float) -> range:
        """Samples that began between `start` and `end`.  A sample runs in
        the thread that reads the clock at `start` and `end`, so it lies
        wholly inside that interval or wholly outside it."""
        return range(bisect.bisect_left(self.begin, start),
                     bisect.bisect_left(self.begin, end))

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per second of work done between `start` and
        `end`, which must lie between the first and the last sample."""
        inside = self._inside(start, end)
        if inside.start == 0 or inside.stop == len(self.begin):
            raise ValueError("work outside the sampled interval")
        around = self.kernel_s[max(inside.start - NEIGHBOURS, 0):
                               inside.stop + NEIGHBOURS]
        return REFERENCE_S / statistics.fmean(around)

    def busy(self, start: float, end: float) -> float:
        """Seconds the sampler itself ran between `start` and `end`."""
        return sum(self.end[k] - self.begin[k]
                   for k in self._inside(start, end))

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of this thread's work between `start` and
        `end`."""
        return (end - start - self.busy(start, end)) * self.factor(start, end)

    def summary(self) -> dict:
        return {"samples": len(self.kernel_s),
                "kernel_ms_median": 1000 * statistics.median(self.kernel_s),
                "kernel_ms_min": 1000 * min(self.kernel_s),
                "kernel_ms_max": 1000 * max(self.kernel_s)}
