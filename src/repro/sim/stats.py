"""Measurement helpers used by experiments and benchmarks.

All recorders take explicit timestamps (nanoseconds) so they work both
inside the simulator (``sim.now``) and in plain functional code.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from operator import itemgetter
from typing import List, Optional, Sequence

from repro.sim.units import MB_DEC, S


class Counter:
    """A named monotonically increasing counter."""

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increase the counter."""
        if amount < 0:
            raise ValueError(f"cannot add negative amount {amount}")
        self.value += amount

    def reset(self) -> None:
        """Clear all recorded state."""
        self.value = 0

    def __repr__(self):
        return f"Counter({self.name!r}, value={self.value})"


class ThroughputMeter:
    """Accumulates (timestamp, nbytes) samples and reports MB/s.

    A measurement window ``[t0, t1]`` can be set to exclude warmup and
    drain phases, matching how sustained throughput is reported in the
    paper's evaluation.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: List = []  # (time_ns, nbytes)

    def record(self, time_ns: int, nbytes: int) -> None:
        """Record that ``nbytes`` finished transferring at ``time_ns``.

        ``time_ns`` may be later than "now": a recorder that already
        knows when a reserved transfer ends (an event-free link
        reservation) records it at once.  ``total_bytes`` and
        ``n_samples`` then run ahead of the clock by what is still in
        flight; windows that close at or before now are exact.
        """
        if nbytes < 0:
            raise ValueError(f"negative byte count {nbytes}")
        self._samples.append((time_ns, nbytes))

    @property
    def samples(self) -> List:
        """Copy of the ``(time_ns, nbytes)`` samples in timestamp order
        (equal timestamps in recording order), so the list does not
        depend on whether a sample was recorded at its instant or ahead
        of it."""
        return sorted(self._samples, key=itemgetter(0))

    @property
    def total_bytes(self) -> int:
        """Sum of all recorded byte counts."""
        return sum(nbytes for _, nbytes in self._samples)

    @property
    def n_samples(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    def bytes_in(self, t0: int, t1: int, include_start: bool = False) -> int:
        """Bytes recorded in the half-open window ``(t0, t1]``.

        Samples are *completion* timestamps, so the window is open at
        ``t0``: a transfer finishing exactly at the window start belongs
        to the previous window, which keeps adjacent windows disjoint.
        Pass ``include_start=True`` for the closed window ``[t0, t1]``
        (used by :meth:`mb_per_s` when it defaults ``t0`` to the
        earliest sample, which must then be counted).
        """
        if include_start:
            return sum(n for t, n in self._samples if t0 <= t <= t1)
        return sum(n for t, n in self._samples if t0 < t <= t1)

    def mb_per_s(
        self, t0: Optional[int] = None, t1: Optional[int] = None
    ) -> float:
        """Decimal MB/s over the window (defaults to first..last sample).

        An explicit ``t0`` keeps the half-open ``(t0, t1]`` convention;
        when ``t0`` is omitted the window closes at the earliest sample
        so its bytes are included rather than silently dropped.
        """
        if not self._samples:
            return 0.0
        times = [t for t, _ in self._samples]
        include_start = t0 is None
        lo = min(times) if t0 is None else t0
        hi = max(times) if t1 is None else t1
        if hi <= lo:
            return 0.0
        return (
            self.bytes_in(lo, hi, include_start) / MB_DEC / ((hi - lo) / S)
        )

    def gb_per_s(
        self, t0: Optional[int] = None, t1: Optional[int] = None
    ) -> float:
        """Decimal GB/s over the window."""
        return self.mb_per_s(t0, t1) / 1000.0

    def reset(self) -> None:
        """Clear all recorded state."""
        self._samples.clear()


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence."""
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    pos = fraction * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return float(sorted_values[lo])
    weight = pos - lo
    return float(sorted_values[lo] * (1 - weight) + sorted_values[hi] * weight)


class LatencyRecorder:
    """Collects latency samples (ns) and reports summary statistics."""

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: List[int] = []

    def record(self, latency_ns: int) -> None:
        """Record one sample."""
        if latency_ns < 0:
            raise ValueError(f"negative latency {latency_ns}")
        self._samples.append(latency_ns)

    @property
    def samples(self) -> List[int]:
        """Copy of the raw samples."""
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    @property
    def minimum(self) -> int:
        """Smallest recorded sample."""
        return min(self._samples) if self._samples else 0

    @property
    def maximum(self) -> int:
        """Largest recorded sample."""
        return max(self._samples) if self._samples else 0

    @property
    def stdev(self) -> float:
        """Sample standard deviation."""
        n = len(self._samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self._samples) / (n - 1))

    @property
    def coefficient_of_variation(self) -> float:
        """stdev / mean -- the paper's 'predictability' measure (Fig 8)."""
        mu = self.mean
        return self.stdev / mu if mu else 0.0

    def quantile(self, fraction: float) -> float:
        """Interpolated quantile of the samples."""
        return percentile(sorted(self._samples), fraction)

    def reset(self) -> None:
        """Clear all recorded state."""
        self._samples.clear()


class TimeWeighted:
    """Time-weighted average of a piecewise-constant signal.

    Used for queue depths and buffer occupancy: call ``update`` whenever
    the value changes; ``average`` integrates over time.

    The signal also accepts *deferred* relative changes via
    :meth:`shift_at`: the timeline fast path knows an op's grant instant
    at reservation time, long before any event fires there, so the
    depth change for that instant can be queued instead of scheduled.
    Pending changes are folded in -- in timestamp order -- before any
    later update and before every read, which integrates exactly the
    same area as an ``update`` call made by an event at that instant
    without the cost of the event.
    """

    def __init__(self, initial: float = 0.0, start_ns: int = 0):
        self._value = initial
        self._last_time = start_ns
        self._area = 0.0
        self._start = start_ns
        self._pending: List = []  # heap of (time_ns, order, delta)
        self._order = 0

    @property
    def value(self) -> float:
        """Current value of the signal (deferred changes excluded until
        an update or read at/after their instant folds them in)."""
        return self._value

    @property
    def horizon(self) -> int:
        """Timestamp through which the signal is known: the last update
        or the latest deferred change, whichever is later.  Reads that
        default to "as far as recorded" (registry snapshots without a
        timestamp) must use this, not ``_last_time``, so deferred
        changes count exactly as their event-scheduled equivalents do.
        """
        if self._pending:
            return max(self._last_time, max(t for t, _, _ in self._pending))
        return self._last_time

    def _settle(self, time_ns: int) -> None:
        pending = self._pending
        while pending and pending[0][0] <= time_ns:
            at, _, delta = heappop(pending)
            if at < self._last_time:
                raise ValueError("time went backwards")
            self._area += self._value * (at - self._last_time)
            self._value += delta
            self._last_time = at

    def update(self, time_ns: int, value: float) -> None:
        """Record a change of the signal at a timestamp."""
        if self._pending:
            self._settle(time_ns)
        if time_ns < self._last_time:
            raise ValueError("time went backwards")
        self._area += self._value * (time_ns - self._last_time)
        self._value = value
        self._last_time = time_ns

    def shift(self, time_ns: int, delta: float) -> None:
        """Apply a relative change at ``time_ns`` (pending folded first)."""
        if self._pending:
            self._settle(time_ns)
        self.update(time_ns, self._value + delta)

    def shift_at(self, time_ns: int, delta: float) -> None:
        """Queue a relative change for a (usually future) instant."""
        heappush(self._pending, (time_ns, self._order, delta))
        self._order += 1

    def average(self, time_ns: int) -> float:
        """Average value from start until ``time_ns``."""
        if self._pending:
            self._settle(time_ns)
        if time_ns <= self._start:
            return self._value
        area = self._area + self._value * (time_ns - self._last_time)
        return area / (time_ns - self._start)
