"""A registry of named metrics with one-call snapshot and text report.

Four metric kinds cover everything the reproduction measures:

* **counters** -- monotonically increasing event counts (reuses
  :class:`repro.sim.stats.Counter`);
* **gauges** -- instantaneous values set by the instrumented code;
* **histograms** -- latency-style sample distributions (mean, quantiles);
* **time-weighted signals** -- piecewise-constant timelines such as
  queue depths (reuses :class:`repro.sim.stats.TimeWeighted`).

A fifth kind, **callbacks**, pulls values lazily at snapshot time from
live objects (per-channel utilisation, wear spread, backlog lengths)
so the hot path pays nothing for them.

``snapshot()`` flattens everything into one ``{name: value}`` dict;
``report()`` renders it as an aligned text table.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.stats import Counter, LatencyRecorder, TimeWeighted, percentile


class Gauge:
    """A named instantaneous value."""

    def __init__(self, name: str = "", value: float = 0.0):
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = value

    def add(self, delta: float) -> None:
        """Adjust the current value by ``delta`` (may be negative)."""
        self.value += delta

    def __repr__(self):
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram(LatencyRecorder):
    """Sample distribution; extends the recorder with a summary dict."""

    def summary(self) -> dict:
        """Count, mean, min/max and standard quantiles of the samples."""
        if not len(self):
            return {"count": 0}
        ordered = sorted(self.samples)
        return {
            "count": len(self),
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": percentile(ordered, 0.50),
            "p95": percentile(ordered, 0.95),
            "p99": percentile(ordered, 0.99),
        }


class MetricsRegistry:
    """Named counters, gauges, histograms and time-weighted signals.

    Accessors create on first use, so instrumented code can say
    ``registry.counter("blk.writes").add()`` without a registration
    step.  Every name lives in one flat namespace; dotted prefixes
    (``channel3.…``, ``ftl.ch3.…``) are the grouping convention.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._time_weighted: Dict[str, TimeWeighted] = {}
        self._callbacks: Dict[str, Callable[[Optional[int]], float]] = {}

    # -- accessors (create on first use) ----------------------------------------
    def counter(self, name: str) -> Counter:
        """The named counter."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """The named gauge."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        """The named histogram."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def time_weighted(self, name: str, start_ns: int = 0) -> TimeWeighted:
        """The named time-weighted signal."""
        signal = self._time_weighted.get(name)
        if signal is None:
            signal = self._time_weighted[name] = TimeWeighted(
                initial=0.0, start_ns=start_ns
            )
        return signal

    def register_counter(self, name: str, counter: Counter) -> Counter:
        """Adopt an existing Counter (e.g. a Slice's) under ``name``."""
        self._counters[name] = counter
        return counter

    def register_callback(
        self, name: str, fn: Callable[[Optional[int]], float]
    ) -> None:
        """Register a pull metric: ``fn(now_ns)`` evaluated at snapshot.

        ``now_ns`` is forwarded from :meth:`snapshot` and may be None
        when the caller did not supply a time; callbacks over simulator-
        attached objects should then fall back to their own clock.
        """
        self._callbacks[name] = fn

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(
            set(self._counters)
            | set(self._gauges)
            | set(self._histograms)
            | set(self._time_weighted)
            | set(self._callbacks)
        )

    # -- reading ---------------------------------------------------------------
    def peek(self, name: str, now_ns: Optional[int] = None, default=None):
        """Read one metric *without creating it* (policy rule reads).

        Returns the same shape :meth:`snapshot` would give the name --
        counter/gauge value, histogram summary dict, time-weighted
        average, callback result -- or ``default`` when no metric of
        that name exists.  Unlike the accessors above, a peek at an
        unknown name leaves the registry untouched, so reading a metric
        before the first event never perturbs later snapshots.
        """
        counter = self._counters.get(name)
        if counter is not None:
            return counter.value
        gauge = self._gauges.get(name)
        if gauge is not None:
            return gauge.value
        histogram = self._histograms.get(name)
        if histogram is not None:
            return histogram.summary()
        signal = self._time_weighted.get(name)
        if signal is not None:
            at = now_ns if now_ns is not None else signal.horizon
            return signal.average(at)
        fn = self._callbacks.get(name)
        if fn is not None:
            return fn(now_ns)
        return default

    def snapshot(self, now_ns: Optional[int] = None) -> dict:
        """Flatten every metric into ``{name: value}``.

        Counters and gauges contribute their value; histograms a summary
        dict; time-weighted signals their average up to ``now_ns`` (or
        their last update when no time is given); callbacks whatever
        they return.
        """
        snap: dict = {}
        for name, counter in self._counters.items():
            snap[name] = counter.value
        for name, gauge in self._gauges.items():
            snap[name] = gauge.value
        for name, histogram in self._histograms.items():
            snap[name] = histogram.summary()
        for name, signal in self._time_weighted.items():
            at = now_ns if now_ns is not None else signal.horizon
            snap[name] = signal.average(at)
        for name, fn in self._callbacks.items():
            snap[name] = fn(now_ns)
        return snap

    def report(self, now_ns: Optional[int] = None, title: str = "metrics") -> str:
        """An aligned text table of the snapshot (histograms expanded)."""
        from repro.analysis.reporting import format_metrics

        return format_metrics(self.snapshot(now_ns), title=title)

    def reset(self) -> None:
        """Clear counters and histograms (gauges/signals keep state)."""
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()
