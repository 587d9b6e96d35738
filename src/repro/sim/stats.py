"""Measurement helpers used by experiments and benchmarks.

All recorders take explicit timestamps (nanoseconds) so they work both
inside the simulator (``sim.now``) and in plain functional code.
"""

from __future__ import annotations

import math
from array import array
from heapq import heappop, heappush
from operator import itemgetter
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.sim.units import MB_DEC, S

#: Samples summed at a time by ``LatencyRecorder.mean``: a sum of this
#: many 32-bit halves stays within int64, and the halves it splits off
#: take 16 MiB at most.
_EXACT_SPAN = 1 << 20


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

    A sample is two integers on ``array('q')`` columns, 16 bytes and no
    Python object (the link meters take one per page for the whole
    run); the windows are summed over zero-copy numpy views of them,
    exact while a sum fits in int64 (9.2 EB).
    """

    __slots__ = ("name", "_times", "_bytes")

    def __init__(self, name: str = ""):
        self.name = name
        self._times = array("q")
        self._bytes = array("q")

    def record(self, time_ns: int, nbytes: int) -> None:
        """Record that ``nbytes`` finished transferring at ``time_ns``.

        ``time_ns`` may be later than "now": a recorder that already
        knows when a reserved transfer ends (an event-free link
        reservation) records it at once.  ``total_bytes`` and
        ``n_samples`` then run ahead of the clock by what is still in
        flight; windows that close at or before now are exact.  Both
        must be integers (``TypeError`` otherwise).
        """
        if nbytes < 0:
            raise ValueError(f"negative byte count {nbytes}")
        self._bytes.append(nbytes)
        try:
            self._times.append(time_ns)
        except (TypeError, OverflowError):
            # The columns stay in step: the sample is not recorded.
            self._bytes.pop()
            raise

    def _columns(self):
        """Zero-copy int64 views of the two columns.  A view pins its
        buffer, so a caller drops them before anything records."""
        return (
            np.frombuffer(self._times, dtype=np.int64),
            np.frombuffer(self._bytes, dtype=np.int64),
        )

    @property
    def samples(self) -> List:
        """Copy of the ``(time_ns, nbytes)`` samples in timestamp order
        (equal timestamps in recording order), so the list does not
        depend on whether a sample was recorded at its instant or ahead
        of it."""
        return sorted(zip(self._times, self._bytes), key=itemgetter(0))

    @property
    def total_bytes(self) -> int:
        """Sum of all recorded byte counts."""
        return int(self._columns()[1].sum())

    @property
    def n_samples(self) -> int:
        """Number of recorded samples."""
        return len(self._times)

    def bytes_in(self, t0: int, t1: int, include_start: bool = False) -> int:
        """Bytes recorded in the half-open window ``(t0, t1]``.

        Samples are *completion* timestamps, so the window is open at
        ``t0``: a transfer finishing exactly at the window start belongs
        to the previous window, which keeps adjacent windows disjoint.
        Pass ``include_start=True`` for the closed window ``[t0, t1]``
        (used by :meth:`mb_per_s` when it defaults ``t0`` to the
        earliest sample, which must then be counted).
        """
        times, sizes = self._columns()
        after = times >= t0 if include_start else times > t0
        return int(sizes.sum(where=after & (times <= t1)))

    def mb_per_s(
        self, t0: Optional[int] = None, t1: Optional[int] = None
    ) -> float:
        """Decimal MB/s over the window (defaults to first..last sample).

        An explicit ``t0`` keeps the half-open ``(t0, t1]`` convention;
        when ``t0`` is omitted the window closes at the earliest sample
        so its bytes are included rather than silently dropped.
        """
        if not self._times:
            return 0.0
        times = self._columns()[0]
        include_start = t0 is None
        lo = int(times.min()) if t0 is None else t0
        hi = int(times.max()) if t1 is None else t1
        if hi <= lo:
            return 0.0
        return (
            self.bytes_in(lo, hi, include_start) / MB_DEC / ((hi - lo) / S)
        )

    def reset(self) -> None:
        """Clear all recorded state."""
        self._times = array("q")
        self._bytes = array("q")


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence."""
    if len(sorted_values) == 0:
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
    """Collects latency samples (ns) and reports summary statistics.

    The samples are integers on an ``array('q')``, eight bytes each and
    no Python object; every statistic is computed from the same integers
    in recording order as a list of them would give.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._samples = array("q")

    def record(self, latency_ns: int) -> None:
        """Record one sample (an integer: ``TypeError`` otherwise)."""
        if latency_ns < 0:
            raise ValueError(f"negative latency {latency_ns}")
        self._samples.append(latency_ns)

    def extend(self, samples: Iterable[int]) -> None:
        """Record each of ``samples`` in turn, checked as :meth:`record`
        checks one; nothing is recorded if any is refused."""
        more = array("q", samples)
        if more and min(more) < 0:
            raise ValueError(f"negative latency {min(more)}")
        self._samples.extend(more)

    @property
    def samples(self) -> List[int]:
        """Copy of the raw samples."""
        return self._samples.tolist()

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        samples = self._samples
        if not samples:
            return 0.0
        # Exact for any int64 samples: the high and low 32 bits of each
        # are summed apart, as int64 (an int64 sum wraps), over spans
        # short enough that neither sum can.
        values = np.frombuffer(samples, dtype=np.int64)
        total = 0
        for start in range(0, len(values), _EXACT_SPAN):
            span = values[start : start + _EXACT_SPAN]
            high = int((span >> 32).sum(dtype=np.int64))
            low = int((span & 0xFFFFFFFF).sum(dtype=np.int64))
            total += (high << 32) + low
        return total / len(samples)

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
        # Summed in recording order, one float at a time: a pairwise
        # (numpy) sum rounds differently.
        return math.sqrt(sum((x - mu) ** 2 for x in self._samples) / (n - 1))

    @property
    def coefficient_of_variation(self) -> float:
        """stdev / mean -- the paper's 'predictability' measure (Fig 8)."""
        mu = self.mean
        return self.stdev / mu if mu else 0.0

    def ordered(self):
        """The samples sorted, as an int64 array (a copy)."""
        return np.sort(np.frombuffer(self._samples, dtype=np.int64))

    def quantile(self, fraction: float) -> float:
        """Interpolated quantile of the samples."""
        return percentile(self.ordered(), fraction)

    def reset(self) -> None:
        """Clear all recorded state."""
        self._samples = array("q")


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

    def settle(self, time_ns: int) -> None:
        """Fold in the deferred changes due at or before ``time_ns``."""
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
            self.settle(time_ns)
        if time_ns < self._last_time:
            raise ValueError("time went backwards")
        self._area += self._value * (time_ns - self._last_time)
        self._value = value
        self._last_time = time_ns

    def shift_at(self, time_ns: int, delta: float) -> None:
        """Queue a relative change for a (usually future) instant."""
        heappush(self._pending, (time_ns, self._order, delta))
        self._order += 1

    def average(self, time_ns: int) -> float:
        """Average value from start until ``time_ns``."""
        if self._pending:
            self.settle(time_ns)
        if time_ns <= self._start:
            return self._value
        area = self._area + self._value * (time_ns - self._last_time)
        return area / (time_ns - self._start)
