"""The conventional-SSD baseline (paper Figure 5a / Figure 6a).

One controller fronts every channel: the logical space is striped in
small units across channels, a page-mapped FTL with over-provisioning
runs garbage collection, writes are acknowledged from a DRAM write-back
buffer, and requests traverse the kernel I/O stack.

The controller's per-request and per-page processing costs are the
calibration knobs that reproduce each commodity device's measured
sequential bandwidth envelope (Table 1 / Table 4); the *behavioural*
effects -- GC interference, buffer-full latency spikes, striping
overheads -- emerge from the flash engines and FTL underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.channel.engine import build_engines
from repro.devices.base import DeviceStats, base_device_metrics, register_device_metrics
from repro.ftl.ops import FlashOp
from repro.ftl.page_ftl import PageFTL
from repro.interfaces.iostack import IOStackModel, KERNEL_IO_STACK
from repro.interfaces.link import HostLink, LinkSpec, PCIE_1_1_X8
from repro.nand.array import FlashArray
from repro.nand.catalog import MICRON_25NM_MLC, SDF_CHIP_GEOMETRY
from repro.nand.geometry import FlashGeometry, scaled_count
from repro.nand.timing import NandTiming
from repro.sim import AllOf, Container, Resource, Simulator, Store
from repro.sim.stats import ThroughputMeter


@dataclass(frozen=True)
class ConventionalSSDSpec:
    """Static configuration of one conventional SSD model."""

    name: str
    n_channels: int
    chips_per_channel: int
    geometry: FlashGeometry
    timing: NandTiming
    link: LinkSpec = PCIE_1_1_X8
    iostack: IOStackModel = KERNEL_IO_STACK
    op_ratio: float = 0.25
    stripe_pages: int = 1
    parity_group_size: Optional[int] = None
    dram_buffer_bytes: int = 1 << 30  # Huawei Gen3: 1 GB on-board DRAM
    #: Controller processing costs (the Table 4 calibration knobs).
    controller_request_ns: int = 2_200
    controller_read_ns_per_page: int = 6_700
    controller_write_ns_per_page: int = 12_200
    #: Outstanding flash programs the controller keeps in flight while
    #: draining the write buffer; 0 = auto (2x the number of planes).
    flush_workers: int = 0
    #: Controller scheduling degradation under high read concurrency
    #: (paper S3.3.1/S3.3.2: "the scheduling overhead may increase and
    #: the service time of unsynchronized requests at different channels
    #: may increase some requests' service time").  Up to
    #: ``congestion_free_requests`` open reads are handled at full speed
    #: (the Table 4 async-microbenchmark regime); past that the per-page
    #: cost grows linearly with a slope of 1/``congestion_knee_requests``,
    #: saturating at the max factor.
    congestion_free_requests: int = 64
    congestion_knee_requests: int = 192
    congestion_max_factor: float = 2.0

    def scaled(self, capacity_factor: float) -> "ConventionalSSDSpec":
        """Same device with ``blocks_per_plane`` scaled down -- used by
        tests/benches to shrink simulated capacity, not behaviour."""
        return replace(self, geometry=self.geometry.scaled(capacity_factor))


class ConventionalSSD:
    """Timed conventional SSD built on :class:`~repro.ftl.page_ftl.PageFTL`."""

    #: Registry kind; also the ``device.{kind}.*`` metric prefix.
    kind = "conventional"

    def __init__(
        self,
        sim: Simulator,
        spec: ConventionalSSDSpec,
        store_data: bool = False,
    ):
        self.sim = sim
        self.spec = spec
        self.array = FlashArray(
            channels=spec.n_channels,
            chips_per_channel=spec.chips_per_channel,
            geometry=spec.geometry,
            timing=spec.timing,
        )
        self.ftl = self._make_ftl(spec, store_data)
        self.engines = build_engines(
            sim,
            spec.n_channels,
            spec.geometry,
            spec.timing,
            spec.chips_per_channel,
        )
        self.link = HostLink(sim, spec.link)
        self.controller = Resource(sim, capacity=1)
        self.stats = DeviceStats(spec.name)
        #: Flash-side write progress: one sample per page as it is
        #: programmed (smooth, unlike request-completion accounting).
        self.flush_meter = ThroughputMeter(f"{spec.name}.flush")
        self._open_reads = 0
        self._buffer: Optional[Container] = None
        self._flush_queue: Optional[Store] = None
        #: lpn -> buffered payloads not yet programmed (newest last).
        #: Reads must serve these: a write acks from DRAM, so the FTL
        #: alone can be stale (or unmapped) until the flusher lands it.
        self._pending_pages: Dict[int, List] = {}
        if spec.dram_buffer_bytes > 0:
            self._buffer = Container(sim, capacity=spec.dram_buffer_bytes)
            self._flush_queue = Store(sim)
            workers = spec.flush_workers
            if workers <= 0:
                workers = 2 * spec.n_channels * (
                    spec.chips_per_channel * spec.geometry.planes_per_chip
                )
            for _ in range(workers):
                sim.process(self._flusher())

    def _make_ftl(self, spec: ConventionalSSDSpec, store_data: bool):
        """FTL factory hook; zoo backends override to swap the design."""
        return PageFTL(
            self.array,
            op_ratio=spec.op_ratio,
            stripe_pages=spec.stripe_pages,
            parity_group_size=spec.parity_group_size,
            store_data=store_data,
        )

    def _request_controller(self, lpn: int) -> Resource:
        """Controller serving request-level admission for ``lpn``."""
        return self.controller

    def _page_controller(self, lpn: int) -> Resource:
        """Controller charging the per-page processing cost for ``lpn``."""
        return self.controller

    # -- geometry ------------------------------------------------------------------
    @property
    def page_size(self) -> int:
        """Bytes in one flash page."""
        return self.spec.geometry.page_size

    @property
    def user_pages(self) -> int:
        """Logical pages exposed to the host."""
        return self.ftl.user_pages

    @property
    def user_bytes(self) -> int:
        """Bytes of user-visible capacity."""
        return self.ftl.user_bytes

    @property
    def raw_bytes(self) -> int:
        """Raw flash capacity in bytes."""
        return self.array.raw_bytes

    @property
    def capacity_utilization(self) -> float:
        """user bytes / raw bytes."""
        return self.user_bytes / self.raw_bytes

    @property
    def buffer_level(self) -> float:
        """Bytes currently held in the DRAM write buffer."""
        return self._buffer.level if self._buffer is not None else 0.0

    # -- timed operations (generators) --------------------------------------------------
    def read(self, lpn: int, n_pages: int = 1):
        """Read ``n_pages`` starting at ``lpn``; returns payload list."""
        if n_pages < 1:
            raise ValueError("n_pages must be >= 1")
        sim = self.sim
        start = sim.now
        self._open_reads += 1
        yield sim.timeout(self.spec.iostack.submit_ns)
        with self._request_controller(lpn).request() as hold:
            yield hold
            yield sim.timeout(self.spec.controller_request_ns)
        payloads: List = [None] * n_pages
        workers = [
            sim.process(self._read_one_page(lpn + index, payloads, index))
            for index in range(n_pages)
        ]
        yield AllOf(sim, workers)
        nbytes = n_pages * self.page_size
        yield sim.timeout(self.spec.iostack.complete_ns)
        self._open_reads -= 1
        self.stats.note_read(sim.now, nbytes, sim.now - start)
        return payloads

    def _read_one_page(self, lpn: int, out: List, index: int):
        excess = max(0, self._open_reads - self.spec.congestion_free_requests)
        congestion = min(
            self.spec.congestion_max_factor,
            1.0 + excess / self.spec.congestion_knee_requests,
        )
        with self._page_controller(lpn).request() as hold:
            yield hold
            yield self.sim.timeout(
                int(self.spec.controller_read_ns_per_page * congestion)
            )
        data, ops = self.ftl.read(lpn)
        pending = self._pending_pages.get(lpn)
        if pending:
            # The freshest copy is still in the DRAM write buffer;
            # timing is unchanged (the controller/flash work above is
            # what the request costs), only the payload is corrected.
            data = pending[-1]
        out[index] = data
        yield from self._execute_ops(ops)
        # Pages stream up to the host as they arrive (DMA overlaps flash).
        yield from self.link.transfer("read", self.page_size)

    def write(self, lpn: int, n_pages: int = 1, data=None):
        """Write ``n_pages`` starting at ``lpn``.

        With a DRAM buffer the request completes once the data is
        buffered (write-back); background flushers move it to flash.
        Without one, the request waits for the flash programs.
        """
        if n_pages < 1:
            raise ValueError("n_pages must be >= 1")
        sim = self.sim
        start = sim.now
        yield sim.timeout(self.spec.iostack.submit_ns)
        nbytes = n_pages * self.page_size
        with self._request_controller(lpn).request() as hold:
            yield hold
            yield sim.timeout(self.spec.controller_request_ns)
        # Data streams over the wire page by page and lands in the DRAM
        # buffer (or goes straight to flash) as it arrives, so long
        # requests do not stall the whole drain pipeline behind one DMA.
        for index in range(n_pages):
            yield from self.link.transfer("write", self.page_size)
            if self._buffer is not None:
                yield self._buffer.put(self.page_size)
                self._pending_pages.setdefault(lpn + index, []).append(data)
                yield self._flush_queue.put((lpn + index, data))
            else:
                yield from self._write_one_page(lpn + index, data)
        yield sim.timeout(self.spec.iostack.complete_ns)
        self.stats.note_write(sim.now, nbytes, sim.now - start)

    def _write_one_page(self, lpn: int, data):
        with self._page_controller(lpn).request() as hold:
            yield hold
            yield self.sim.timeout(self.spec.controller_write_ns_per_page)
        ops = self.ftl.write(lpn, data)
        yield from self._execute_ops(ops)
        self.flush_meter.record(self.sim.now, self.page_size)

    def _flusher(self):
        """Background worker draining the DRAM buffer into flash."""
        while True:
            lpn, data = yield self._flush_queue.get()
            yield from self._write_one_page(lpn, data)
            # The FTL now maps this copy; drop the oldest buffered one
            # (newer buffered writes of the lpn keep shadowing the FTL).
            pending = self._pending_pages.get(lpn)
            if pending:
                pending.pop(0)
                if not pending:
                    del self._pending_pages[lpn]
            yield self._buffer.get(self.page_size)

    def _execute_ops(self, ops: List[FlashOp]):
        """Run a batch of physical ops, grouped per channel, in parallel.

        Each per-channel group goes through ``execute_batch``: one
        completion event per channel.
        """
        if not ops:
            return
        by_channel: dict = {}
        for op in ops:
            by_channel.setdefault(op.channel, []).append(op)
        processes = [
            self.sim.process(self.engines[channel].execute_batch(channel_ops))
            for channel, channel_ops in by_channel.items()
        ]
        yield AllOf(self.sim, processes)

    def drain(self):
        """Generator: wait until the write buffer is fully flushed."""
        if self._buffer is None:
            return
        while self._buffer.level > 0 or len(self._flush_queue) > 0:
            yield self.sim.timeout(1_000_000)

    # -- observability --------------------------------------------------------------------
    def device_metrics(self) -> dict:
        """The uniform zoo metric snapshot (see ``repro.devices.base``)."""
        ftl = self.ftl
        return base_device_metrics(
            write_amplification=ftl.write_amplification,
            host_programs=ftl.user_programs,
            gc_programs=ftl.gc_programs,
            gc_runs=ftl.gc_runs,
            erases=ftl.erases,
        )

    def attach_metrics(self, registry) -> None:
        """Register ``device.{kind}.*`` pull metrics."""
        register_device_metrics(registry, self)

    # -- functional helpers ---------------------------------------------------------------
    def prefill(self, fraction: float = 1.0, payload=None) -> int:
        """Functionally fill user space (no simulated time)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction {fraction} outside [0, 1]")
        n_lpns = scaled_count(self.user_pages * fraction)
        for lpn in range(n_lpns):
            self.ftl.write(lpn, payload)
        return n_lpns

    def __repr__(self):
        return (
            f"ConventionalSSD({self.spec.name!r}, "
            f"channels={self.spec.n_channels}, "
            f"user={self.user_bytes / 2**30:.0f} GiB)"
        )
