"""The SDF device (paper Figure 2/5b).

An :class:`SDFDevice` bundles:

* one :class:`~repro.ftl.block_ftl.ChannelBlockFTL` and one
  :class:`~repro.channel.engine.ChannelEngine` per channel;
* a shared PCIe link and interrupt coalescer;
* the ultra-thin user-space I/O stack.

Each channel is exposed to software as an independent
:class:`SDFChannelDevice` (``/dev/sda0`` .. ``/dev/sda43``) with the
asymmetric interface: reads at 8 KB page granularity, writes and erases
at the 8 MB logical-block granularity, erase as an explicit host
command.

All operation methods are *generators* meant to run inside simulation
processes::

    payloads = yield from device.channels[3].read(block, 0, n_pages=2)

A page costs one event in either direction when nothing needs the
channel phase by phase.  The engine alone decides that: a read hands
it the request and learns the path from what ``read_ahead`` returns, a
write asks ``can_program_ahead`` before it books a page's DMA, and
neither reads the engine's admission gate.  The one
step that must stay an event is the page asking the **shared** link
for its DMA -- a written page at the program end that frees its window
slot, a read page at its bus end: that instant decides its place on a
lane every channel uses.  Everything else is reserved ahead of its
instant: a read hands its ops to the engine as one request
(``ChannelEngine.read_ahead``) and books each DMA without an end event
(``HostLink.reserve_ahead``), finishing at the latest DMA end; a write
reserves bus and program from the DMA end
(``ChannelEngine.program_page_ahead``).  On that path no ``FlashOp`` is
built: the block FTL returns plane runs (``repro.ftl.ops.OpRuns``), the
read hands them over whole and the write window steps through the
stripe naming each page's plane (and the page's index, from which a
trace alone builds the op for its span).  Only a STALL rule at the
site makes every phase its own hop (DESIGN.md section 7), taking the
op it is about, built then; metrics and traces change nothing.

Channel QoS is a gate in front of all this, not a reason to leave it:
each admission is one grant hop, the op's start instant, and what the
hop admits is reserved ahead from there -- a read's pages (those that
find slots free at submission share one hop), a written page's bus and
program (``ChannelEngine.execute_fast`` with the page as a
``StripePage``: by plane and size, no op built).  Only the written
page's DMA end stays an event, because the slot is taken at it.  A
wired fault plan holding no rule for the channel, the link or the
chips is no injector.

A request's continuations die with it.  A write's window
(:class:`_WriteWindow`) and a read (:class:`_PagedRead`) are each one
small object whose bound methods are the callbacks the link and the
engine hold while a page is in flight.  Nothing outlives the request's
last page waiting for the cyclic collector, whether it succeeded, lost
a page DMA or was abandoned by a crashed issuer
(``tests/sim/test_gc_hygiene.py``).  A read is a continuation all the
way (:meth:`SDFChannelDevice.read_call`, which the block layer and a
server's get call); :meth:`SDFChannelDevice.read` is its generator
form.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.channel.engine import ChannelEngine, build_engines
from repro.devices.base import DeviceStats, base_device_metrics
from repro.ftl.block_ftl import ChannelBlockFTL
from repro.ftl.ops import OpRuns, StripePage, planes_of
from repro.interfaces.interrupts import InterruptCoalescer
from repro.interfaces.iostack import IOStackModel, SDF_USER_SPACE_STACK
from repro.interfaces.link import (
    HostLink,
    LinkDropError,
    LinkSpec,
    PCIE_1_1_X8,
    fail_dropped,
)
from repro.nand.array import FlashArray
from repro.nand.catalog import MICRON_25NM_MLC, SDF_CHIP_GEOMETRY
from repro.nand.geometry import FlashGeometry, scaled_count
from repro.nand.timing import NandTiming
from repro.sim import Event, Simulator
from repro.sim.process import bridged


class _WriteWindow:
    """One 8 MB write streaming through the bounded staging window.

    The DDR3 staging buffer holds a few pages ahead of the flash
    programs, so one request cannot hog the PCIe link far in advance of
    what its planes can absorb: page ``i`` starts its host DMA when the
    ``i - 16``-th program completes.

    The request's continuations are this object's bound methods, made
    where they are handed on: the link and the engine hold the window
    while a page is in flight and nothing holds it afterwards, so it
    dies with the last page -- succeeded, failed or abandoned --
    without waiting for the cyclic collector (two closures naming each
    other kept every finished request's ops until a collection;
    DESIGN.md section 7, "Memory and the collector").

    ``ops`` is whatever ``ChannelBlockFTL.write`` returned: the stripe's
    plane runs, or a list under a chip fault plan.  A page reserved
    ahead from its DMA end needs only its plane (and ``ops`` and its
    index, for a trace to build its op from); one that reaches the
    channel at its DMA end goes to ``execute_fast`` as ``ops[index]``
    -- of plane runs, as a ``StripePage`` carrying the plane already
    drawn, which the engine builds into an op only if the page runs
    per phase.
    """

    __slots__ = (
        "sim", "engine", "link", "page_size", "ops", "planes", "done",
        "size", "next", "remaining",
    )

    def __init__(self, channel: "SDFChannelDevice", ops, done: Event):
        device = channel.device
        self.sim = device.sim
        self.engine = channel.engine
        self.link = device.link
        self.page_size = channel.page_size
        self.ops = ops
        #: Each page's ``(chip, plane)`` in turn, in step with the pages
        #: started: all the reserve-ahead path reads of an op.
        self.planes = planes_of(ops)
        self.done = done
        #: Index of the next page to admit, and pages not yet programmed.
        self.size = self.remaining = len(ops)
        self.next = min(channel.WRITE_WINDOW_PAGES, self.size)

    def open(self) -> None:
        """Start the first window's worth of pages."""
        for index in range(self.next):
            self.start_page(index)

    def start_page(self, index: int) -> None:
        # Asking the shared link for the DMA is the one step that must
        # happen at this instant.  When the DMA's end is known at once
        # and nothing needs the channel phase by phase, the bus and
        # the program are reserved from here too and the page costs one
        # event (its program end), not three -- and no op: the engine
        # is told the page's plane.
        # Otherwise -- behind an admission gate, say, where the page
        # takes its slot at the DMA end -- that end stays an event and
        # the engine picks the page's path there (``execute_fast``),
        # handed the plane drawn here.
        engine = self.engine
        link = self.link
        page_size = self.page_size
        plane = next(self.planes)
        if engine.can_program_ahead():
            dma_end = link.reserve_ahead("write", page_size)
            if dma_end is not None:
                link.write_meter.record(dma_end, page_size)
                engine.program_page_ahead(
                    plane, page_size, dma_end, self.programmed, self.ops, index
                )
                return
        try:
            link.reserve_call(
                "write", page_size, lambda: self.to_flash(index, plane)
            )
        except LinkDropError as exc:
            # The dropped page never programs and its window slot is
            # not handed on: the request fails once, the pages already
            # admitted (and those their programs admit) still run, and
            # the window dies with the last of them.
            fail_dropped(self.done, exc)

    def to_flash(self, index: int, plane) -> None:
        # DMA landed in the staging buffer; contend for the channel
        # (bus then plane program).
        self.link.write_meter.record(self.sim.now, self.page_size)
        ops = self.ops
        page = (
            StripePage(ops, index, plane) if type(ops) is OpRuns else ops[index]
        )
        self.engine.execute_fast(page, self.programmed)

    def programmed(self) -> None:
        # One program finished: free a window slot (admitting the next
        # waiting page at this exact instant, FIFO) and count down the
        # batch.
        index = self.next
        if index < self.size:
            self.next = index + 1
            self.start_page(index)
        self.remaining -= 1
        if not self.remaining:
            self.done.succeed()


class _PagedRead:
    """One page read request: I/O-stack submit, the pages off the
    channel and up the link, the interrupt, the completion.

    Its steps are bound methods: the engine holds ``stream`` while a
    page is on the channel and the link ``landed`` while its DMA is in
    flight, so the request dies with its last page -- or, when one of
    its page DMAs is dropped, with the last of the others.
    """

    __slots__ = (
        "channel", "device", "page_size", "block", "offset", "n_pages",
        "then", "fail", "start", "payloads", "ahead", "remaining", "latest",
        "error",
    )

    def __init__(self, channel, block, offset, n_pages, then, fail):
        self.channel = channel
        self.device = channel.device
        self.page_size = channel.page_size
        self.block = block
        self.offset = offset
        self.n_pages = n_pages
        self.then = then
        self.fail = fail
        #: The dropped DMA the request fails with, once.
        self.error = None

    def submit(self) -> None:
        device = self.device
        sim = device.sim
        self.start = sim._now
        sim._schedule_call(self.submitted, device.iostack.submit_ns)

    def submitted(self) -> None:
        channel = self.channel
        try:
            self.payloads, ops = channel.ftl.read(
                self.block, self.offset, self.n_pages
            )
            if ops:
                self.remaining = len(ops)
                self.latest = 0
                # The engine picks the pages' path: reserved ahead, one
                # event a page, its bus end, the DMA booked from there.
                self.ahead = channel.engine.read_ahead(ops, self.stream)
                return
        except Exception as exc:
            self.settle(self.fail, exc)
            return
        self.transferred()

    def stream(self) -> None:
        # Runs at one op's bus-phase end: asking the shared link for the
        # page's DMA is the one step that must happen at this instant.
        # A dropped page fails the request (once); its other pages keep
        # their reservations.
        link = self.device.link
        if self.ahead:
            dma_end = link.reserve_ahead("read", self.page_size)
            if dma_end is not None:
                self.landed(dma_end)
                return
        try:
            link.reserve_call("read", self.page_size, self.landed)
        except LinkDropError as exc:
            if self.error is None:
                # Without the frames between the raise and the catch
                # (as ``interfaces.link.fail_dropped``), through the hop
                # a failed completion event would have taken.
                self.error = exc.with_traceback(None)
                self.device.sim._schedule_call(self.dropped)

    def landed(self, dma_end=None) -> None:
        # One page's DMA end is settled: ``dma_end``, known ahead, or
        # now.  The request ends with the latest.
        device = self.device
        now = device.sim._now
        if dma_end is None:
            dma_end = now
        device.link.read_meter.record(dma_end, self.page_size)
        if dma_end > self.latest:
            self.latest = dma_end
        self.remaining -= 1
        if not self.remaining:
            device.sim._schedule_call(self.transferred, self.latest - now)

    def dropped(self) -> None:
        self.settle(self.fail, self.error)

    def transferred(self) -> None:
        device = self.device
        device.sim._schedule_call(
            self.interrupted, device.interrupts.on_completion()
        )

    def interrupted(self) -> None:
        device = self.device
        device.sim._schedule_call(self.completed, device.iostack.complete_ns)

    def completed(self) -> None:
        device = self.device
        now = device.sim._now
        device.stats.note_read(now, self.n_pages * self.page_size, now - self.start)
        self.settle(self.then, self.payloads)

    def settle(self, to, result) -> None:
        self.then = self.fail = None
        to(result)


class SDFChannelDevice:
    """One exposed channel: an independent block device."""

    def __init__(self, device: "SDFDevice", channel: int):
        self.device = device
        self.channel = channel
        self.ftl: ChannelBlockFTL = device.ftls[channel]
        self.engine: ChannelEngine = device.engines[channel]

    # -- geometry ---------------------------------------------------------------
    @property
    def n_logical_blocks(self) -> int:
        """Logical (8 MB) blocks exposed by this channel."""
        return self.ftl.n_logical_blocks

    @property
    def logical_block_bytes(self) -> int:
        """Bytes in one logical block."""
        return self.ftl.logical_block_bytes

    @property
    def pages_per_logical_block(self) -> int:
        """Pages in one logical block."""
        return self.ftl.pages_per_logical_block

    @property
    def page_size(self) -> int:
        """Bytes in one flash page."""
        return self.device.array.geometry.page_size

    # -- timed operations (generators) ----------------------------------------------
    #: Pages the DDR3 staging buffer holds ahead of the flash programs.
    WRITE_WINDOW_PAGES = 16

    def read(self, logical_block: int, page_offset: int = 0, n_pages: int = 1):
        """Read ``n_pages`` 8 KB pages; returns the list of payloads.

        Pages stream up the PCIe link as they come off the channel bus
        (the board's DDR3 staging buffers decouple the two), so the DMA
        overlaps the flash reads instead of trailing them.  The request
        completes at the latest DMA end among its pages, whichever way
        each was booked.
        """
        return bridged(
            self.device.sim, self.read_call, logical_block, page_offset, n_pages
        )

    def read_call(
        self, logical_block: int, page_offset: int, n_pages: int, then, fail
    ) -> None:
        """:meth:`read` as a continuation: ``then(payloads)`` or
        ``fail(exc)``."""
        _PagedRead(self, logical_block, page_offset, n_pages, then, fail).submit()

    def write(self, logical_block: int, pages: Optional[Sequence] = None):
        """Write one full 8 MB logical block.

        ``pages`` must supply every page payload (or None for a sized
        placeholder write, the common case in performance runs).
        """
        device = self.device
        sim = device.sim
        start = sim.now
        if pages is None:
            pages = [None] * self.pages_per_logical_block
        yield sim.timeout(device.iostack.submit_ns)
        nbytes = len(pages) * self.page_size
        ops = self.ftl.write(logical_block, pages)
        done = Event(sim)
        if ops:
            _WriteWindow(self, ops, done).open()
            yield done
        yield sim.timeout(device.interrupts.on_completion())
        yield sim.timeout(device.iostack.complete_ns)
        device.stats.note_write(sim.now, nbytes, sim.now - start)

    def erase(self, logical_block: int):
        """The explicit erase command (S2.3)."""
        device = self.device
        sim = device.sim
        start = sim.now
        yield sim.timeout(device.iostack.submit_ns)
        ops = self.ftl.erase(logical_block)
        done = Event(sim)
        self.engine.execute_batch_call(ops, done.succeed)
        yield done
        yield sim.timeout(device.interrupts.on_completion())
        yield sim.timeout(device.iostack.complete_ns)
        device.stats.note_erase(sim.now, sim.now - start)

    def write_fresh(self, logical_block: int, pages: Optional[Sequence] = None):
        """Erase-if-mapped then write: the host-side write discipline."""
        if self.ftl.is_mapped(logical_block):
            yield from self.erase(logical_block)
        yield from self.write(logical_block, pages)

    def __repr__(self):
        return f"SDFChannelDevice(/dev/sda{self.channel})"


class SDFDevice:
    """The full 44-channel SDF board."""

    #: Builder-table kind; also the ``device.{kind}.*`` metric prefix.
    kind = "sdf"

    def __init__(
        self,
        sim: Simulator,
        n_channels: int = 44,
        chips_per_channel: int = 2,
        geometry: FlashGeometry = SDF_CHIP_GEOMETRY,
        timing: NandTiming = MICRON_25NM_MLC,
        link_spec: LinkSpec = PCIE_1_1_X8,
        iostack: IOStackModel = SDF_USER_SPACE_STACK,
        reserve_fraction: float = 0.01,
        rng: Optional[np.random.Generator] = None,
        factory_bad_rate: float = 0.0,
        endurance: Optional[int] = None,
        name: str = "sdf",
    ):
        self.sim = sim
        self.array = FlashArray(
            channels=n_channels,
            chips_per_channel=chips_per_channel,
            geometry=geometry,
            timing=timing,
            rng=rng,
            factory_bad_rate=factory_bad_rate,
            endurance=endurance,
        )
        self.ftls: List[ChannelBlockFTL] = [
            ChannelBlockFTL(self.array, channel, reserve_fraction)
            for channel in range(n_channels)
        ]
        self.engines = build_engines(
            sim, n_channels, geometry, timing, chips_per_channel
        )
        self.link = HostLink(sim, link_spec)
        self.iostack = iostack
        self.interrupts = InterruptCoalescer(sim)
        self.stats = DeviceStats(name)
        self.channels: List[SDFChannelDevice] = [
            SDFChannelDevice(self, channel) for channel in range(n_channels)
        ]

    @property
    def n_channels(self) -> int:
        """Number of channels."""
        return len(self.channels)

    @property
    def raw_bytes(self) -> int:
        """Raw flash capacity in bytes."""
        return self.array.raw_bytes

    @property
    def user_bytes(self) -> int:
        """Capacity exposed to software (the paper's ~99% of raw)."""
        return sum(ftl.capacity_bytes for ftl in self.ftls)

    @property
    def capacity_utilization(self) -> float:
        """user bytes / raw bytes."""
        return self.user_bytes / self.raw_bytes

    @property
    def page_size(self) -> int:
        """Bytes in one flash page."""
        return self.array.geometry.page_size

    def drain(self):
        """Generator: nothing to drain -- the SDF has no device-side
        write buffer or background GC (writes complete at the flash)."""
        return
        yield  # pragma: no cover - keeps this a generator

    def device_metrics(self) -> dict:
        """The uniform zoo metric snapshot: WA is exactly 1 by design
        (no device GC, no parity, block-level SRAM mapping)."""
        return base_device_metrics(
            host_programs=sum(ftl.host_programs for ftl in self.ftls),
            erases=sum(ftl.erase_count for ftl in self.ftls),
        )

    def prefill(self, fraction: float = 1.0, payload=None) -> int:
        """Functionally fill a fraction of every channel (no simulated
        time): used to start experiments on an 'almost full' device as
        in Figure 8.  Returns the number of logical blocks written."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction {fraction} outside [0, 1]")
        written = 0
        pages = [payload] * self.ftls[0].pages_per_logical_block
        for ftl in self.ftls:
            n_blocks = scaled_count(ftl.n_logical_blocks * fraction)
            for block in range(n_blocks):
                if not ftl.is_mapped(block):
                    ftl.write(block, pages)
                    written += 1
        return written

    def __repr__(self):
        return (
            f"SDFDevice(channels={self.n_channels}, "
            f"raw={self.raw_bytes / 2**30:.0f} GiB, "
            f"user={self.user_bytes / 2**30:.0f} GiB)"
        )
