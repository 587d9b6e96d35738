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

from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.channel.engine import build_engines
from repro.devices.base import DeviceStats, base_device_metrics
from repro.ftl.ops import FlashOp, OpParts
from repro.ftl.page_ftl import PageFTL
from repro.interfaces.iostack import IOStackModel, KERNEL_IO_STACK
from repro.interfaces.link import HostLink, LinkDropError, LinkSpec, PCIE_1_1_X8
from repro.nand.array import FlashArray
from repro.nand.catalog import MICRON_25NM_MLC, SDF_CHIP_GEOMETRY
from repro.nand.geometry import FlashGeometry, scaled_count
from repro.nand.timing import NandTiming
from repro.sim import Simulator
from repro.sim.process import bridged
from repro.sim.stats import ThroughputMeter
from repro.sim.timeline import ResourceTimeline


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


class _HostRequest:
    """One read or write: I/O-stack submit, controller admission, the
    pages (a write's one at a time), one completion hop.

    Its steps are bound methods made where they are handed on (to the
    link, the buffer's waiter queue, a controller timeline), so whoever
    a step is parked with holds the request and nothing holds it once
    it has settled: it dies there, not at the next cyclic collection as
    closures naming each other did.
    """

    __slots__ = (
        "ssd", "lpn", "n_pages", "data", "payloads", "start", "index",
        "error", "then", "fail",
    )

    def __init__(self, ssd: "ConventionalSSD", lpn, n_pages, data, payloads,
                 then, fail):
        if n_pages < 1:
            raise ValueError("n_pages must be >= 1")
        self.ssd = ssd
        self.lpn = lpn
        self.n_pages = n_pages
        self.data = data
        self.payloads = payloads
        self.then = then
        self.fail = fail
        #: A write's page on the wire (or parked for buffer space); a
        #: read's pages up the link so far.
        self.index = 0
        #: The dropped DMA the request fails with, once.
        self.error = None

    def submit(self) -> None:
        ssd = self.ssd
        sim = ssd.sim
        self.start = sim._now
        if self.payloads is not None:
            ssd._open_reads += 1
        ssd._open_requests += 1
        sim._schedule_call(self.submitted, ssd.spec.iostack.submit_ns)

    def submitted(self) -> None:
        ssd = self.ssd
        ssd._request_controller(self.lpn).reserve_and_call(
            ssd.sim,
            ssd.spec.controller_request_ns,
            self.send if self.payloads is None else self.read_pages,
        )

    # -- a read's pages ----------------------------------------------------------
    def read_pages(self) -> None:
        """Charge every page's controller cost now (FIFO, in page
        order); each page then reads flash and streams up the link on
        its own."""
        ssd = self.ssd
        spec = ssd.spec
        excess = max(0, ssd._open_reads - spec.congestion_free_requests)
        congestion = min(
            spec.congestion_max_factor,
            1.0 + excess / spec.congestion_knee_requests,
        )
        page_ns = int(spec.controller_read_ns_per_page * congestion)
        for index in range(self.n_pages):
            ssd._page_controller(self.lpn + index).reserve_and_call(
                ssd.sim, page_ns, lambda index=index: self.look_up(index)
            )

    def look_up(self, index: int) -> None:
        ssd = self.ssd
        data, ops = ssd.ftl.read(self.lpn + index)
        pending = ssd._pending_pages.get(self.lpn + index)
        if pending:
            # The freshest copy is still in the DRAM write buffer;
            # timing is unchanged (the controller/flash work is what
            # the request costs), only the payload is corrected.
            data = pending[-1]
        self.payloads[index] = data
        if ops:
            # One hop behind the flash completion: an unmapped page
            # whose controller cost ends at this same instant has no
            # flash work and takes the link lane first.
            ssd._execute_ops(ops, lambda: ssd.sim._schedule_call(self.stream))
        else:
            self.stream()

    def stream(self) -> None:
        # Pages stream up to the host as they arrive (DMA overlaps
        # flash).  A dropped page fails the request (once); its other
        # pages keep their reservations.
        ssd = self.ssd
        try:
            ssd.link.reserve_call("read", ssd.page_size, self.streamed)
        except LinkDropError as exc:
            self.dropped(exc)

    def streamed(self) -> None:
        ssd = self.ssd
        ssd.link.read_meter.record(ssd.sim.now, ssd.page_size)
        self.index += 1
        if self.index == self.n_pages:
            self.transferred()

    # -- a write's pages ---------------------------------------------------------
    def send(self) -> None:
        ssd = self.ssd
        try:
            ssd.link.reserve_call("write", ssd.page_size, self.landed)
        except LinkDropError as exc:
            self.dropped(exc)

    def landed(self) -> None:
        ssd = self.ssd
        page_size = ssd.page_size
        ssd.link.write_meter.record(ssd.sim.now, page_size)
        capacity = ssd.spec.dram_buffer_bytes  # 0: straight to flash
        if not capacity:
            ssd._write_one_page(self.lpn + self.index, self.data, self.taken)
        elif ssd._buffer_waiters or ssd._buffer_level + page_size > capacity:
            ssd._buffer_waiters.append(self.admitted)
        else:
            ssd._buffer_level += page_size
            self.admitted()

    def admitted(self) -> None:
        ssd = self.ssd
        lpn = self.lpn + self.index
        data = self.data
        ssd._pending_pages.setdefault(lpn, []).append(data)
        if ssd._idle_flushers:
            ssd._idle_flushers -= 1
            ssd._flush(lpn, data)
        else:
            ssd._flush_queue.append((lpn, data))
        self.taken()

    def taken(self) -> None:
        ssd = self.ssd
        self.index += 1
        if self.index >= self.n_pages:
            self.transferred()
        elif ssd._open_requests > 1:
            # Another open request may claim the link lane at this
            # very instant straight from a controller grant (its
            # first page); it goes first, so hop behind it.
            ssd.sim._schedule_call(self.send)
        else:
            self.send()

    # -- completion ---------------------------------------------------------------
    def transferred(self) -> None:
        """Every page is through: complete ``complete_ns`` later."""
        ssd = self.ssd
        ssd.sim._schedule_call(self.completed, ssd.spec.iostack.complete_ns)

    def dropped(self, exc: LinkDropError) -> None:
        """A page's DMA was dropped: fail once, one hop later, without
        the frames between raise and catch (``link.fail_dropped``)."""
        if self.error is None:
            self.error = exc.with_traceback(None)
            self.ssd.sim._schedule_call(self.failed)

    def completed(self) -> None:
        ssd = self.ssd
        stats = ssd.stats
        note = stats.note_write if self.payloads is None else stats.note_read
        now = ssd.sim._now
        note(now, self.n_pages * ssd.page_size, now - self.start)
        self.settle(self.then, self.payloads)

    def failed(self) -> None:
        self.settle(self.fail, self.error)

    def settle(self, to, result) -> None:
        ssd = self.ssd
        ssd._open_requests -= 1
        if self.payloads is not None:
            ssd._open_reads -= 1
        self.then = self.fail = None
        to(result)


class ConventionalSSD:
    """Timed conventional SSD built on :class:`~repro.ftl.page_ftl.PageFTL`."""

    #: Builder-table kind; also the ``device.{kind}.*`` metric prefix.
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
        self.controller = ResourceTimeline()
        self.stats = DeviceStats(spec.name)
        #: Flash-side write progress: one sample per page as it is
        #: programmed (smooth, unlike request-completion accounting).
        self.flush_meter = ThroughputMeter(f"{spec.name}.flush")
        #: Requests between submission and completion (reads feed the
        #: congestion model).
        self._open_reads = 0
        self._open_requests = 0
        #: DRAM write buffer: bytes held, and the continuations of
        #: writers parked (FIFO) until a flusher frees a page.
        self._buffer_level = 0
        self._buffer_waiters: deque = deque()
        #: Buffered ``(lpn, data)`` pages no flusher has picked up yet,
        #: and the number of flushers with nothing to pick up.
        self._flush_queue: deque = deque()
        self._idle_flushers = 0
        #: lpn -> buffered payloads not yet programmed (newest last).
        #: Reads must serve these: a write acks from DRAM, so the FTL
        #: alone can be stale (or unmapped) until the flusher lands it.
        self._pending_pages: Dict[int, List] = {}
        if 0 < spec.dram_buffer_bytes < spec.geometry.page_size:
            raise ValueError("dram_buffer_bytes cannot hold one flash page")
        if spec.dram_buffer_bytes > 0:
            self._idle_flushers = spec.flush_workers
            if self._idle_flushers <= 0:
                self._idle_flushers = 2 * spec.n_channels * (
                    spec.chips_per_channel * spec.geometry.planes_per_chip
                )

    def _make_ftl(self, spec: ConventionalSSDSpec, store_data: bool):
        """FTL factory hook; zoo backends override to swap the design."""
        return PageFTL(
            self.array,
            op_ratio=spec.op_ratio,
            stripe_pages=spec.stripe_pages,
            parity_group_size=spec.parity_group_size,
            store_data=store_data,
        )

    def _request_controller(self, lpn: int) -> ResourceTimeline:
        """Controller serving request-level admission for ``lpn``."""
        return self.controller

    def _page_controller(self, lpn: int) -> ResourceTimeline:
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
    def buffer_level(self) -> int:
        """Bytes currently held in the DRAM write buffer."""
        return self._buffer_level

    # -- timed operations ---------------------------------------------------------------
    def read(self, lpn: int, n_pages: int = 1):
        """Generator: read ``n_pages`` starting at ``lpn``; returns the
        payload list."""
        return bridged(self.sim, self.read_call, lpn, n_pages)

    def read_call(self, lpn: int, n_pages: int, then, fail) -> None:
        """:meth:`read` as a continuation (``then(payloads)``): no
        simulator process below this frame (DESIGN.md "Scheduling")."""
        _HostRequest(self, lpn, n_pages, None, [None] * n_pages, then, fail).submit()

    def write(self, lpn: int, n_pages: int = 1, data=None):
        """Generator: write ``n_pages`` starting at ``lpn``.

        With a DRAM buffer the request completes once the data is
        buffered (write-back); background flushers move it to flash.
        Without one, the request waits for the flash programs.
        """
        return bridged(self.sim, self.write_call, lpn, n_pages, data)

    def write_call(self, lpn: int, n_pages: int, data, then, fail) -> None:
        """:meth:`write` as a continuation (``then(None)``): the pages
        cross the wire one at a time and each lands in the DRAM buffer
        (or goes to flash) as it arrives, so a long request does not
        stall the drain pipeline behind one DMA."""
        _HostRequest(self, lpn, n_pages, data, None, then, fail).submit()

    def _write_one_page(self, lpn: int, data, then) -> None:
        """Controller cost, FTL write, flash programs; then ``then()``."""

        def program():
            self._execute_ops(self.ftl.write(lpn, data), programmed)

        def programmed():
            self.flush_meter.record(self.sim.now, self.page_size)
            then()

        self._page_controller(lpn).reserve_and_call(
            self.sim, self.spec.controller_write_ns_per_page, program
        )

    def _flush(self, lpn: int, data) -> None:
        """One flusher moving one buffered page into flash, then taking
        the next queued page or going idle."""

        def flushed():
            # The FTL now maps this copy; drop the oldest buffered one
            # (newer buffered writes of the lpn keep shadowing the FTL).
            pending = self._pending_pages.get(lpn)
            if pending:
                pending.pop(0)
                if not pending:
                    del self._pending_pages[lpn]
            if self._buffer_waiters:
                # The freed page goes straight to the longest-parked writer.
                self._buffer_waiters.popleft()()
            else:
                self._buffer_level -= self.page_size
            if self._flush_queue:
                self._flush(*self._flush_queue.popleft())
            else:
                self._idle_flushers += 1

        self._write_one_page(lpn, data, flushed)

    def _execute_ops(self, ops: Sequence[FlashOp], then) -> None:
        """Run a batch of physical ops, grouped per channel, in
        parallel; ``then()`` runs when the last channel's batch ends.

        This is the family's only door to the channel engines, and each
        channel's batch goes through it in one call
        (:meth:`ChannelEngine.execute_batch_call`, where a plain engine
        costs a PROGRAM one event, its end).  A write that set off a GC
        relocation hands its ops over as :class:`~repro.ftl.ops.OpParts`:
        the move stays one :class:`~repro.ftl.ops.Relocation` part, so
        its pages reach the engine as a read run and program plane runs,
        with no op built unless the batch runs per phase."""
        parts = ops.parts if type(ops) is OpParts else ops
        by_channel: dict = {}
        for part in parts:
            by_channel.setdefault(part.channel, []).append(part)
        remaining = [len(by_channel)]

        def channel_done():
            remaining[0] -= 1
            if not remaining[0]:
                then()

        for channel, channel_ops in by_channel.items():
            if parts is not ops:
                channel_ops = OpParts(channel_ops)
            self.engines[channel].execute_batch_call(channel_ops, channel_done)

    def drain(self):
        """Generator: wait until the write buffer is fully flushed."""
        while self._buffer_level > 0:
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

    # -- functional helpers ---------------------------------------------------------------
    def prefill(self, fraction: float = 1.0, payload=None) -> int:
        """Functionally fill user space (no simulated time)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction {fraction} outside [0, 1]")
        n_lpns = scaled_count(self.user_pages * fraction)
        self.ftl.fill(n_lpns, payload)
        return n_lpns

    def __repr__(self):
        return (
            f"ConventionalSSD({self.spec.name!r}, "
            f"channels={self.spec.n_channels}, "
            f"user={self.user_bytes / 2**30:.0f} GiB)"
        )
