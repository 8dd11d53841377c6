"""Host-speed reference for the benchmark's timings.

On a shared host the same Python code can run more than 1.5x slower for
tens of seconds at a time, with every kind of interpreter work slowing
together.  Raw wall times then differ between runs far more than the
program does.  ``HostClock`` runs a fixed reference routine between the
workload's operations (never inside a timed region) and turns its times
into a speed factor; the benchmark reports times divided by that factor,
that is, wall time at the host speed where the reference routine takes
``REFERENCE_NOMINAL_S``.  Raw wall times are printed too.

Each operation, or each stretch of short operations between two samples,
is scaled by the median of the nine reference samples nearest to it in
time, so a slow spell inside a run is corrected where it happens.

The routine is plain Python that touches no miakit code: it reads an 8 MiB
integer array at pseudo-random positions, so like miakit's models it mixes
interpreter work with memory traffic beyond the per-core cache.  The array
holds no Python objects, so the garbage collector never scans it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from statistics import median
from time import perf_counter

REFERENCE_NOMINAL_S = 0.005
PROBE_INTERVAL_S = 0.25
REFERENCE_READS = 10_000
LOCAL_SAMPLES = 9
_SLOTS = 1 << 20
BUFFER_BYTES = 8 * _SLOTS


class HostClock:
    """Owns the reference routine's 8 MiB array and its timed samples."""

    def __init__(self):
        self._data = array("q", range(_SLOTS))
        self.samples: list[float] = []
        self.stamps: list[float] = []
        self._last = float("-inf")

    def reference_s(self) -> float:
        """Time REFERENCE_READS reads of the array at positions from a linear
        congruential sequence."""
        data = self._data
        mask = _SLOTS - 1
        x = 12345
        acc = 0
        t0 = perf_counter()
        for _ in range(REFERENCE_READS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            acc += data[x & mask]
        return perf_counter() - t0

    def probe(self) -> bool:
        """Call between operations; times the reference when it is due and
        says whether it did."""
        now = perf_counter()
        if now - self._last < PROBE_INTERVAL_S:
            return False
        self.samples.append(self.reference_s())
        self.stamps.append(now)
        self._last = perf_counter()
        return True

    def factor(self, first: int = 0) -> float:
        """Median of the samples from index ``first`` on, over the nominal
        reference time: 1.25 means the host ran 25% slower than nominal."""
        samples = self.samples[first:] or [self.reference_s()]
        return median(samples) / REFERENCE_NOMINAL_S

    def local_factors(self, at: list[float], first: int = 0) -> list[float]:
        """The factor at each time in ``at``, from the LOCAL_SAMPLES samples
        (index ``first`` on) nearest to it."""
        stamps, samples = self.stamps[first:], self.samples[first:]
        if len(samples) <= LOCAL_SAMPLES:
            return [self.factor(first)] * len(at)
        out = []
        for t in at:
            lo = min(max(0, bisect_left(stamps, t) - LOCAL_SAMPLES // 2), len(samples) - LOCAL_SAMPLES)
            out.append(median(samples[lo : lo + LOCAL_SAMPLES]) / REFERENCE_NOMINAL_S)
        return out
