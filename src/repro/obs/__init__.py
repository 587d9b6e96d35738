"""Observability: end-to-end tracing and metrics for the SDF stack.

The paper's evaluation (Figs 7/8, Table 1) is all about *per-channel*
behaviour -- utilisation, queue wait vs service time, erase backlog,
wear.  This package makes those visible in any run:

* :class:`~repro.obs.trace.TraceCollector` records timestamped spans
  per channel/bus/plane/request track and exports Chrome
  ``chrome://tracing`` / Perfetto JSON;
* :class:`~repro.obs.metrics.MetricsRegistry` holds named counters,
  gauges, histograms and time-weighted signals with a one-call
  ``snapshot()`` and text report;
* :class:`~repro.obs.attach.Observability` bundles both, and its
  ``attach`` wires an already-built component to it.

Typical use::

    from repro import build_sdf_system
    from repro.obs import Observability

    obs = Observability(trace=True)
    system = build_sdf_system(capacity_scale=0.004, n_channels=4)
    obs.attach(system)
    block = system.put(b"payload")
    system.get(block, 0, 7)
    obs.trace.write("run.trace.json")          # open in ui.perfetto.dev
    print(obs.metrics.report(system.sim.now))  # text metrics table

Everything is off by default: a system that is never attached pays only
a ``None`` check per instrumentation site.
"""

from repro.obs.attach import Observability, attach_device
from repro.obs.metrics import Gauge, Histogram, MetricsRegistry
from repro.obs.trace import NullTraceCollector, Span, TraceCollector

__all__ = [
    "Observability",
    "attach_device",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTraceCollector",
    "Span",
    "TraceCollector",
]
