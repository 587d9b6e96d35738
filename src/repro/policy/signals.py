"""Signals: what a policy rule reads each evaluation tick.

Every signal reduces the live system to one float through the
:class:`~repro.policy.engine.PolicyContext` -- registry metrics via the
non-creating :meth:`~repro.obs.metrics.MetricsRegistry.peek` and
windowed deltas via the plan's per-tick memory.  A plain ``callable(ctx) -> float`` works anywhere a signal does; these
classes just package the recurring shapes.

Reads never create metrics and never mutate the system, so evaluating
a rule whose condition stays quiet leaves the run untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


def _as_names(names) -> Tuple[str, ...]:
    if isinstance(names, str):
        return (names,)
    return tuple(names)


_REDUCERS = {
    "sum": sum,
    "max": max,
    "min": min,
    "mean": lambda values: sum(values) / len(values),
}


@dataclass(frozen=True)
class MetricSignal:
    """The instantaneous value of one or more registry metrics.

    ``field`` selects a histogram-summary entry (``p99``, ``mean``,
    ...) when the metric is a histogram; scalar metrics ignore it.
    Missing metrics (not yet created, empty histogram) read as
    ``default``, so a rule can reference a metric before the first
    request touches it.
    """

    names: Tuple[str, ...]
    field: Optional[str] = None
    reduce: str = "sum"
    default: float = 0.0

    def __init__(self, names, field=None, reduce="sum", default=0.0):
        object.__setattr__(self, "names", _as_names(names))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "reduce", reduce)
        object.__setattr__(self, "default", default)
        if not self.names:
            raise ValueError("MetricSignal needs at least one metric name")
        if reduce not in _REDUCERS:
            raise ValueError(f"unknown reduce {reduce!r}")

    def _one(self, ctx, name: str) -> float:
        value = ctx.metric(name)
        if value is None:
            return self.default
        if isinstance(value, dict):
            if self.field is None:
                raise ValueError(
                    f"metric {name!r} is a histogram; MetricSignal needs "
                    "a field= (e.g. 'p99')"
                )
            got = value.get(self.field)
            return self.default if got is None else float(got)
        return float(value)

    def read(self, ctx) -> float:
        return float(
            _REDUCERS[self.reduce](
                [self._one(ctx, name) for name in self.names]
            )
        )


@dataclass(frozen=True)
class DeltaRateSignal:
    """Per-second growth of scalar metrics over the last policy tick.

    Counters accumulate over a whole run, so their instantaneous value
    says little about *now*; the delta since the previous evaluation
    tick, normalised per second, is the responsive version ("deadline
    sheds per second", "lates per second").  The first tick reads 0.
    Histogram metrics are rejected -- deltas of summary dicts are
    meaningless.
    """

    names: Tuple[str, ...]
    per_second: bool = True

    def __init__(self, names, per_second=True):
        object.__setattr__(self, "names", _as_names(names))
        object.__setattr__(self, "per_second", per_second)
        if not self.names:
            raise ValueError("DeltaRateSignal needs at least one metric name")

    def read(self, ctx) -> float:
        total = 0.0
        for name in self.names:
            value = ctx.metric(name)
            if value is None:
                value = 0.0
            if isinstance(value, dict):
                raise ValueError(
                    f"DeltaRateSignal cannot window histogram {name!r}"
                )
            total += ctx.delta(("metric", name), float(value))
        if not self.per_second:
            return total
        return total / max(ctx.tick_ns, 1) * 1e9
