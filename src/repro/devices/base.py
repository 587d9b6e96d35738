"""Shared device plumbing: the device-model protocol and per-operation
statistics.

Every member of the device zoo -- SDF, conventional, DFTL, hybrid
log-block, multi-queue, zoned -- satisfies :class:`DeviceModel`: one
geometry surface, one :class:`DeviceStats`, a functional ``prefill``, a
``drain`` generator, and a uniform ``device_metrics()`` dictionary that
:func:`register_device_metrics` exposes through ``repro.obs`` under
``device.{kind}.{key}``.

The metric keys are fixed across the zoo (a backend with no mapping
cache reports a hit rate of 1.0; a backend with no merges reports 0),
so ablation tooling can diff device kinds without per-kind schemas:

========================  =====================================================
``write_amplification``   total programs / host programs (1.0 = ideal)
``host_programs``         page programs serving host writes
``gc_programs``           page programs moved by garbage collection
``gc_runs``               GC victim collections
``merges``                log-block merges (hybrid FTLs; 0 elsewhere)
``erases``                block erases (host- or device-initiated)
``map_cache_hits``        mapping-cache hits (DFTL; 0 elsewhere)
``map_cache_misses``      mapping-cache misses (DFTL; 0 elsewhere)
``map_cache_hit_rate``    hits / lookups (1.0 when the map is all-SRAM)
========================  =====================================================
"""

from __future__ import annotations

from typing import Dict, Protocol, runtime_checkable

from repro.sim.stats import Counter, LatencyRecorder, ThroughputMeter

#: The uniform ``device_metrics()`` key set (order is the report order).
DEVICE_METRIC_KEYS = (
    "write_amplification",
    "host_programs",
    "gc_programs",
    "gc_runs",
    "merges",
    "erases",
    "map_cache_hits",
    "map_cache_misses",
    "map_cache_hit_rate",
)


class DeviceStats:
    """Latency and throughput recorders for one device."""

    def __init__(self, name: str):
        self.name = name
        self.read_latency = LatencyRecorder(f"{name}.read.latency")
        self.write_latency = LatencyRecorder(f"{name}.write.latency")
        self.erase_latency = LatencyRecorder(f"{name}.erase.latency")
        self.read_meter = ThroughputMeter(f"{name}.read.bytes")
        self.write_meter = ThroughputMeter(f"{name}.write.bytes")
        self.requests = Counter(f"{name}.requests")

    def note_read(self, now: int, nbytes: int, latency_ns: int) -> None:
        """Record one completed read."""
        self.requests.add()
        self.read_meter.record(now, nbytes)
        self.read_latency.record(latency_ns)

    def note_write(self, now: int, nbytes: int, latency_ns: int) -> None:
        """Record one completed write."""
        self.requests.add()
        self.write_meter.record(now, nbytes)
        self.write_latency.record(latency_ns)

    def note_erase(self, now: int, latency_ns: int) -> None:
        """Record one completed erase."""
        self.requests.add()
        self.erase_latency.record(latency_ns)

    def reset(self) -> None:
        """Clear every recorder (e.g. after a warmup phase)."""
        self.read_latency.reset()
        self.write_latency.reset()
        self.erase_latency.reset()
        self.read_meter.reset()
        self.write_meter.reset()
        self.requests.reset()


@runtime_checkable
class DeviceModel(Protocol):
    """What every device-zoo backend provides.

    Operation *signatures* differ by interface family -- the SDF/zoned
    devices expose block/zone operations, the LPN devices expose
    ``read(lpn, n_pages)`` / ``write(lpn, n_pages, data)`` -- but the
    construction, observation and lifecycle surface is uniform, and it
    is this protocol that ``build_device`` returns against.
    """

    #: Registry kind ("sdf", "conventional", "dftl", "hybrid", "mqftl",
    #: "zoned", ...); also the ``device.{kind}.*`` metric prefix.
    kind: str
    sim: object
    stats: DeviceStats

    @property
    def page_size(self) -> int: ...

    @property
    def user_bytes(self) -> int: ...

    @property
    def raw_bytes(self) -> int: ...

    @property
    def capacity_utilization(self) -> float: ...

    def prefill(self, fraction: float = 1.0, payload=None) -> int:
        """Functionally fill user space (no simulated time)."""
        ...

    def drain(self):
        """Generator: wait for background work (buffers, GC) to settle."""
        ...

    def device_metrics(self) -> Dict[str, float]:
        """The uniform :data:`DEVICE_METRIC_KEYS` snapshot."""
        ...


def base_device_metrics(**overrides) -> Dict[str, float]:
    """The neutral metric dict (WA 1.0, all-SRAM map, no GC/merges),
    with backend-specific keys overridden on top."""
    metrics: Dict[str, float] = {
        "write_amplification": 1.0,
        "host_programs": 0,
        "gc_programs": 0,
        "gc_runs": 0,
        "merges": 0,
        "erases": 0,
        "map_cache_hits": 0,
        "map_cache_misses": 0,
        "map_cache_hit_rate": 1.0,
    }
    for key, value in overrides.items():
        if key not in metrics:
            raise KeyError(f"unknown device metric {key!r}")
        metrics[key] = value
    return metrics


def register_device_metrics(registry, device) -> None:
    """Expose ``device.device_metrics()`` as ``device.{kind}.{key}``
    pull metrics on a :class:`repro.obs.MetricsRegistry`."""
    prefix = f"device.{device.kind}"
    for key in DEVICE_METRIC_KEYS:
        registry.register_callback(
            f"{prefix}.{key}",
            lambda _now, d=device, k=key: d.device_metrics()[k],
        )
