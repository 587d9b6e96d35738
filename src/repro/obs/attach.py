"""The observability facade and the wiring that threads it through a
running system.

:class:`Observability` bundles one :class:`~repro.obs.trace.TraceCollector`
(or the no-op null collector when tracing is off) with one
:class:`~repro.obs.metrics.MetricsRegistry`.  :meth:`Observability.attach`
instruments an already-built device (:func:`attach_device`), block
layer, SDF system (both of those), CCDB storage server, cluster
controller, controller group or ECC model, and has a fault, QoS or
policy plan mirror what it does into the registry and trace.

Attachment is optional and late-bound: systems built without an
``Observability`` run exactly as before, paying only a ``None`` check
at each instrumentation site.
"""

from __future__ import annotations

from typing import Optional

from repro.devices.base import register_device_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTraceCollector, TraceCollector
from repro.sim.stats import Counter


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

    def attach(self, target) -> "Observability":
        """Instrument one built component (see the module docstring for
        what each kind gains); returns ``self`` so calls chain."""
        from repro.cluster import ClusterController, ControllerGroup, StorageServer
        from repro.core import SDFSystem, UserSpaceBlockLayer
        from repro.devices import DEVICE_CLASSES
        from repro.ecc.model import EccModel
        from repro.faults.plan import FaultPlan
        from repro.policy.engine import PolicyPlan
        from repro.qos.config import QosPlan

        if isinstance(target, DEVICE_CLASSES):
            attach_device(self, target)
        elif isinstance(target, UserSpaceBlockLayer):
            _block_layer(self, target)
        elif isinstance(target, SDFSystem):
            attach_device(self, target.device)
            _block_layer(self, target.block_layer)
        elif isinstance(target, StorageServer):
            # The server only, never its device: an engine with ``obs``
            # set runs the per-phase path instead of reserving ahead,
            # and fleet_day depends on staying on reserve-ahead.
            _server(self, target)
        elif isinstance(target, ClusterController):
            _controller(self, target)
        elif isinstance(target, ControllerGroup):
            _group(self, target)
        elif isinstance(target, EccModel):
            _ecc(self, target)
        elif isinstance(target, QosPlan):
            target.obs = self
            for state in target._states:
                state.bind_obs(self)
        elif isinstance(target, (FaultPlan, PolicyPlan)):
            target.obs = self
        else:
            raise TypeError(
                f"Observability cannot attach to {type(target).__name__}"
            )
        return self


def attach_device(obs: Observability, device) -> None:
    """Instrument any :class:`~repro.devices.base.DeviceModel`.

    Channel engines (when the device exposes them) get op-level spans
    and a live queue-depth timeline; the registry gains per-channel
    utilisation/busy/wait pull metrics, each exposed FTL's host-op and
    wear metrics, and the device's uniform ``device.{kind}.*`` family.
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
    register_device_metrics(registry, device)


def _block_layer(obs: Observability, layer) -> None:
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


def _server(obs: Observability, server) -> None:
    # Gets/puts also record latency histograms and, when tracing is on,
    # per-slice request spans with queue-wait split out.
    server.obs = obs
    registry = obs.metrics
    registry.register_counter("server.gets", server.gets)
    registry.register_counter("server.puts", server.puts)
    registry.register_counter("server.scans", server.scans)
    for slice_ in server.slices:
        slice_.bind_metrics(registry)


def _counters(obs: Observability, target) -> None:
    """Set ``target.obs`` and export the counters of its ``__init__``."""
    target.obs = obs
    for counter in vars(target).values():
        if isinstance(counter, Counter):
            obs.metrics.register_counter(counter.name, counter)


def _controller(obs: Observability, ctrl) -> None:
    _counters(obs, ctrl)
    obs.metrics.register_callback(
        "cluster.routing_version", lambda _now: ctrl.table.version
    )
    obs.metrics.register_callback("cluster.nodes", lambda _now: len(ctrl.nodes))


def _group(obs: Observability, group) -> None:
    _counters(obs, group)
    for index, state in enumerate(("alive", "suspects", "dead")):
        obs.metrics.register_callback(
            f"cluster.membership.{state}",
            lambda _now, index=index: group.membership_counts()[index],
        )
    obs.metrics.register_callback(
        "cluster.election.term", lambda _now: group.term
    )


def _ecc(obs: Observability, ecc) -> None:
    """Every ``read_outcome`` increments one of the ``ecc.reads_clean``
    / ``ecc.reads_corrected`` / ``ecc.reads_uncorrectable`` counters,
    so correction pressure shows up in the same snapshot as the QoS
    shed/stall metrics it tends to precede."""
    ecc.obs = obs
    for outcome in ("clean", "corrected", "uncorrectable"):
        obs.metrics.register_callback(
            f"ecc.reads_{outcome}",
            lambda _now, tally=f"{outcome}_reads": getattr(ecc, tally),
        )
