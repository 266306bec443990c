"""Machine-speed factor, measured alongside the workload.

On a shared machine the interpreter's speed switches by up to 2x every few
seconds (other tenants, frequency changes), far more than the changes the
benchmark must resolve.  A fixed piece of reference work, in the style of
the codec (small frozen dataclass objects, modular arithmetic, list and
dict building, plain integer loops), is timed at the start and end of every
timed unit (a set-up or a pass) and between its timed segments.  The unit's
wall time is multiplied by REFERENCE_S over the mean of those reference
times: the result is its time at the speed the machine had when
REFERENCE_S was recorded.  The reference must be taken next to the work it
scales, and a long call is better described by the mean over its whole pass
than by the two samples at its ends.  The two halves of the reference react
to speed switches more and less strongly than mrcodes does; their sum
reacts about as much.  The reference work never changes with mrcodes, so a
faster mrcodes gives a proportionally smaller scaled time.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

# median reference_time() (s) on the 2-vCPU Intel Xeon machine, CPython
# 3.11.7, on which baseline.json was recorded
REFERENCE_S = 0.010
_SAMPLES = 3


@dataclass(frozen=True)
class _Residue:
    value: int
    q: int

    def __post_init__(self):
        if not 0 <= self.value < self.q:
            raise ValueError(self.value)

    def __mul__(self, other):
        return _Residue(self.value * other.value % self.q, self.q)

    def __add__(self, other):
        return _Residue((self.value + other.value) % self.q, self.q)


def reference_work() -> int:
    q = 1601
    rows = [[_Residue((7 * i + 3 * j + 1) % q, q) for j in range(30)] for i in range(3)]
    buckets = {}
    for _ in range(30):
        for a, b in zip(rows, rows[1:] + rows[:1]):
            row = [x * y + x for x, y in zip(a, b)]
            buckets[sum(x.value for x in row) % 97] = row
    x = 0
    for i in range(50_000):
        x = (x + i * i) % 1_000_003
    return len(buckets) + x


def reference_time() -> float:
    """Median of a few timed runs of reference_work(), with the cyclic GC
    off so that the benchmark's own heap does not enter the reference."""
    times = []
    gc.disable()
    try:
        for _ in range(_SAMPLES):
            t0 = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


class Speed:
    """Reference times taken through a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> int:
        """Take a reference time; returns its index."""
        self.samples.append(reference_time())
        return len(self.samples) - 1

    def scale(self, seconds: float, since: int) -> float:
        """Scale the wall time of a unit whose reference times are those
        from index `since` on."""
        return seconds * REFERENCE_S / statistics.mean(self.samples[since:])
