"""The observability facade and the wiring that threads it through a
running system.

:class:`Observability` bundles one :class:`~repro.obs.trace.TraceCollector`
(or the no-op null collector when tracing is off) with one
:class:`~repro.obs.metrics.MetricsRegistry`.  The ``attach_*`` helpers
connect an already-built system to it:

* :func:`attach_device` -- channel engines (op spans, utilisation,
  queue depth) and per-channel FTLs (host op counts, wear);
* :func:`attach_block_layer` -- block-layer counters, erase backlog
  timelines and op spans;
* :func:`attach_server` -- a CCDB storage server's request metrics and
  per-slice counters.

Attachment is optional and late-bound: systems built without an
``Observability`` run exactly as before, paying only a ``None`` check
at each instrumentation site.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTraceCollector, TraceCollector


class Observability:
    """One trace collector + one metrics registry for a whole run."""

    def __init__(self, trace: bool = False, max_trace_events: Optional[int] = None):
        self.trace = (
            TraceCollector(max_trace_events) if trace else NullTraceCollector()
        )
        self.metrics = MetricsRegistry()

    def snapshot(self, now_ns: Optional[int] = None) -> dict:
        """Shorthand for ``self.metrics.snapshot(now_ns)``."""
        return self.metrics.snapshot(now_ns)

    def __repr__(self):
        kind = "tracing" if self.trace.enabled else "metrics-only"
        return f"Observability({kind}, metrics={len(self.metrics.names())})"


def attach_device(obs: Observability, device) -> None:
    """Instrument any :class:`~repro.devices.base.DeviceModel`.

    Channel engines (when the device exposes them) get op-level spans
    and a live queue-depth timeline; the registry gains per-channel
    utilisation/busy/wait pull metrics, each exposed FTL's host-op and
    wear metrics, and the device's uniform ``device.{kind}.*`` family
    via its ``attach_metrics`` hook.
    """
    device.sim.obs = obs
    registry = obs.metrics
    for engine in getattr(device, "engines", ()):
        engine.obs = obs
        channel = engine.channel
        registry.register_callback(
            f"channel{channel}.utilization",
            lambda now, e=engine: e.utilization(now),
        )
        registry.register_callback(
            f"channel{channel}.busy_ns",
            lambda now, e=engine: e.busy_value(now),
        )
        registry.register_callback(
            f"channel{channel}.wait_ns", lambda now, e=engine: e.wait_ns.value
        )
        registry.register_callback(
            f"channel{channel}.ops", lambda now, e=engine: e.ops_executed.value
        )
    for ftl in getattr(device, "ftls", ()):
        ftl.attach_metrics(registry)
    if hasattr(device, "attach_metrics"):
        device.attach_metrics(registry)


def attach_block_layer(obs: Observability, layer) -> None:
    """Instrument a :class:`~repro.core.block_layer.UserSpaceBlockLayer`."""
    registry = obs.metrics
    layer.obs = obs
    layer._m_writes = registry.counter("blk.writes")
    layer._m_reads = registry.counter("blk.reads")
    layer._m_frees = registry.counter("blk.frees")
    layer._m_rewrites = registry.counter("blk.rewrites")
    now = layer.sim.now
    layer._m_backlog = [
        registry.time_weighted(f"blk.ch{channel}.erase_backlog", start_ns=now)
        for channel in range(layer.device.n_channels)
    ]
    registry.register_callback(
        "blk.stored_blocks", lambda _now: layer.stored_blocks
    )
    registry.register_callback(
        "blk.background_erases", lambda _now: layer.background_erases
    )


def _wire_system(obs: Observability, system) -> None:
    """Instrument an :class:`~repro.core.api.SDFSystem` end to end."""
    attach_device(obs, system.device)
    attach_block_layer(obs, system.block_layer)


def attach_server(obs: Observability, server) -> None:
    """Instrument a :class:`~repro.cluster.node.StorageServer`."""
    server.attach_obs(obs)


def attach_ecc(obs: Observability, ecc) -> None:
    """Instrument an :class:`~repro.ecc.model.EccModel`.

    Every ``read_outcome`` increments one of the ``ecc.reads_clean`` /
    ``ecc.reads_corrected`` / ``ecc.reads_uncorrectable`` counters, so
    correction pressure shows up in the same snapshot as the QoS
    shed/stall metrics it tends to precede.
    """
    ecc.obs = obs
    registry = obs.metrics
    registry.register_callback(
        "ecc.reads_clean", lambda _now: ecc.clean_reads
    )
    registry.register_callback(
        "ecc.reads_corrected", lambda _now: ecc.corrected_reads
    )
    registry.register_callback(
        "ecc.reads_uncorrectable", lambda _now: ecc.uncorrectable_reads
    )
