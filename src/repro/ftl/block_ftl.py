"""The SDF per-channel FTL engine (paper S2.1, Figure 4).

Each of the 44 channels runs an independent engine providing:

* **LA2PA** -- block-level logical-to-physical mapping.  The logical
  unit is the 8 MB *write block*: one 2 MB erase block on each of the
  channel's four planes, striped 2 MB per plane (S2.3).
* **DWL** -- dynamic wear leveling: fresh blocks are allocated from a
  per-plane min-erase-count pool.
* **BBM** -- bad block management: factory-bad and grown-bad blocks are
  retired and never allocated.

There is deliberately **no garbage collection, no static wear leveling
and no parity**: the host must erase a logical block before rewriting
it, so write amplification is exactly 1.

The interface has two shapes of flash work and the engine keeps them:
a write programs one run of pages per plane
(``FlashChip.program_pages``) and a read reads one run per plane it
touches (``read_pages``), and both describe what they did as those runs
(:class:`~repro.ftl.ops.OpRuns`) -- an 8 MB write is four, a 2 MB read
one -- which is the ``FlashOp`` sequence to whoever asks for ops and
costs no object per page to whoever does not.  Only under a chip fault
plan does a write go page by page, because the plan draws per page.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.faults.injector import NULL_INJECTOR, PROGRAM_FAIL
from repro.ftl.badblocks import BadBlockManager
from repro.ftl.mapping import BlockMapping
from repro.ftl.ops import FlashOp, OpKind, OpRuns, erase_op, program_op
from repro.ftl.wear import FreeBlockPool
from repro.nand.array import FlashArray, PhysicalAddress
from repro.nand.geometry import scaled_count
from repro.nand.chip import ProgramFailError, UncorrectableReadError
from repro.ftl.page_ftl import OutOfSpaceError


class EraseBeforeWriteError(Exception):
    """Write to a logical block that has not been erased (paper S2.3)."""


class ChannelBlockFTL:
    """One channel's block-mapped FTL engine."""

    def __init__(
        self,
        array: FlashArray,
        channel: int,
        reserve_fraction: float = 0.01,
    ):
        if not 0 <= channel < array.n_channels:
            raise IndexError(f"channel {channel} outside the array")
        if not 0.0 <= reserve_fraction < 1.0:
            raise ValueError("reserve_fraction outside [0, 1)")
        self.array = array
        self.channel = channel
        geo = array.geometry
        self.n_planes = array.planes_per_channel
        self.pages_per_logical_block = self.n_planes * geo.pages_per_block
        self.logical_block_bytes = self.pages_per_logical_block * geo.page_size

        # Discover factory-bad blocks and build per-plane pools.
        self._pools: List[FreeBlockPool] = []
        self._bbm: List[BadBlockManager] = []
        min_usable = geo.blocks_per_plane
        for plane_index in range(self.n_planes):
            chip, plane = self._chip_plane(plane_index)
            bad = [
                block
                for block in range(geo.blocks_per_plane)
                if array.is_bad(PhysicalAddress(channel, chip, plane, block))
            ]
            self._bbm.append(BadBlockManager(factory_bad=bad))
            good = [
                block for block in range(geo.blocks_per_plane) if block not in set(bad)
            ]
            min_usable = min(min_usable, len(good))
            self._pools.append(FreeBlockPool(good))

        self.n_logical_blocks = scaled_count(min_usable * (1.0 - reserve_fraction))
        if self.n_logical_blocks < 1:
            raise ValueError("no usable logical blocks on this channel")
        self.mapping = BlockMapping(self.n_logical_blocks)

        self.host_reads = 0
        self.host_programs = 0
        self.erase_count = 0
        self.program_remaps = 0
        #: Fault handle used only to *log* recovery actions (remaps);
        #: injection itself happens in the chips underneath.
        self.faults = NULL_INJECTOR

    # -- geometry helpers ----------------------------------------------------------
    def _chip_plane(self, plane_index: int) -> Tuple[int, int]:
        per_chip = self.array.geometry.planes_per_chip
        return plane_index // per_chip, plane_index % per_chip

    def _address(
        self, plane_index: int, block: int, page: int = 0
    ) -> PhysicalAddress:
        chip, plane = self._chip_plane(plane_index)
        return PhysicalAddress(self.channel, chip, plane, block, page)

    @property
    def capacity_bytes(self) -> int:
        """Capacity exposed to the host (99% of raw by default)."""
        return self.n_logical_blocks * self.logical_block_bytes

    @property
    def write_amplification(self) -> float:
        """Always 1.0: the engine never issues internal programs."""
        return 1.0

    # -- operations -------------------------------------------------------------------
    def write(self, logical_block: int, pages: Sequence) -> Sequence[FlashOp]:
        """Write one full logical block (8 MB: all pages, stripe order).

        ``pages[i]`` lands on plane ``i // pages_per_block`` at page
        offset ``i % pages_per_block`` -- the 2 MB-per-plane striping of
        S2.3.  The logical block must be unmapped (never written, or
        erased since).

        The ops come back as one :class:`~repro.ftl.ops.OpRuns`: a run
        per plane, in plane-interleaved order (page 0 of every plane,
        then page 1, ...) so the shared channel bus feeds all four
        planes from the start.  Each plane's run is programmed in one
        chip call, so when a later plane's run raises the earlier
        planes are programmed whole, and counted.  With a
        ``PROGRAM_FAIL`` rule wired to a chip the pages are programmed
        one call each in that order, a draw apiece
        (:meth:`_write_page_by_page`), and the ops are a list.
        """
        if len(pages) != self.pages_per_logical_block:
            raise ValueError(
                f"SDF write unit is the full logical block "
                f"({self.pages_per_logical_block} pages); got {len(pages)}"
            )
        if self.mapping.is_mapped(logical_block):
            raise EraseBeforeWriteError(
                f"logical block {logical_block} must be erased before rewrite"
            )
        physical = list(self._allocate_group())
        self.mapping.map(logical_block, tuple(physical))
        geo = self.array.geometry
        pages_per_block = geo.pages_per_block
        channel = self.channel
        # Per plane, what every one of its pages shares.
        planes = []
        for index in range(self.n_planes):
            chip, plane = self._chip_plane(index)
            planes.append((chip, plane, self.array.chip_at(channel, chip)))
        if not all(flash.faults.quiet(PROGRAM_FAIL) for _, _, flash in planes):
            return self._write_page_by_page(logical_block, physical, planes, pages)
        runs = []
        for index, (chip, plane, flash) in enumerate(planes):
            base = index * pages_per_block
            flash.program_pages(
                plane, physical[index], 0, pages[base : base + pages_per_block]
            )
            self.host_programs += pages_per_block
            runs.append((chip, plane, physical[index], 0, pages_per_block))
        return OpRuns(OpKind.PROGRAM, channel, geo.page_size, runs, True)

    def _write_page_by_page(
        self, logical_block: int, physical: List[int], planes, pages: Sequence
    ) -> List[FlashOp]:
        """:meth:`write` under a chip fault plan: every page its own
        program, in plane-interleaved order, so that ``PROGRAM_FAIL``
        is drawn page by page and a failed verify is remapped where it
        happens."""
        geo = self.array.geometry
        page_size = geo.page_size
        pages_per_block = geo.pages_per_block
        channel = self.channel
        ops: List[FlashOp] = []
        for page in range(pages_per_block):
            for plane_index, (chip, plane, flash) in enumerate(planes):
                payload = pages[plane_index * pages_per_block + page]
                try:
                    flash.program_page(
                        plane, physical[plane_index], page, payload
                    )
                except ProgramFailError:
                    ops.extend(
                        self._remap_program_failure(
                            logical_block, physical, plane_index, page, pages
                        )
                    )
                    # Retry the failed page on the replacement block; a
                    # second verify failure on a fresh block is beyond the
                    # recovery model and propagates.
                    flash.program_page(
                        plane, physical[plane_index], page, payload
                    )
                self.host_programs += 1
                ops.append(
                    program_op(
                        PhysicalAddress(
                            channel, chip, plane, physical[plane_index], page
                        ),
                        page_size,
                    )
                )
        return ops

    def _remap_program_failure(
        self,
        logical_block: int,
        physical: List[int],
        plane_index: int,
        failed_page: int,
        pages: Sequence,
    ) -> List[FlashOp]:
        """Absorb a program-verify failure: retire the bad block, bring a
        replacement into the stripe, and replay the plane's already
        programmed pages from the in-flight host buffer (``pages``).

        Mutates ``physical`` in place and refreshes the LA2PA entry.
        Returns the extra (replayed) program ops so the caller can charge
        their simulated time.
        """
        geo = self.array.geometry
        bad = physical[plane_index]
        self._bbm[plane_index].mark_grown_bad(bad)
        self._pools[plane_index].retire(bad)
        try:
            replacement = self._pools[plane_index].allocate()
        except IndexError:
            raise OutOfSpaceError(
                f"channel {self.channel} plane {plane_index} has no spare "
                f"block to remap failed block {bad}"
            )
        physical[plane_index] = replacement
        self.mapping.unmap(logical_block)
        self.mapping.map(logical_block, tuple(physical))
        self.program_remaps += 1
        ops: List[FlashOp] = []
        for page in range(failed_page):
            index = plane_index * geo.pages_per_block + page
            addr = self._address(plane_index, replacement, page)
            self.array.program_page(addr, pages[index])
            ops.append(program_op(addr, geo.page_size))
        self.faults.note(
            "program_remap",
            plane=plane_index,
            bad_block=bad,
            replacement=replacement,
            replayed_pages=failed_page,
        )
        return ops

    def read(
        self, logical_block: int, page_offset: int, n_pages: int = 1
    ) -> Tuple[List, Sequence[FlashOp]]:
        """Read ``n_pages`` 8 KB pages starting at ``page_offset``.

        The ops come back as one :class:`~repro.ftl.ops.OpRuns`, a run
        per plane the range touches, run after run."""
        if n_pages < 1:
            raise ValueError("n_pages must be >= 1")
        if not 0 <= page_offset < self.pages_per_logical_block:
            raise IndexError(f"page_offset {page_offset} out of range")
        if page_offset + n_pages > self.pages_per_logical_block:
            raise IndexError("read crosses the logical block boundary")
        physical = self.mapping.lookup(logical_block)
        if physical is None:
            return [None] * n_pages, []
        geo = self.array.geometry
        pages_per_block = geo.pages_per_block
        channel = self.channel
        payloads: List = []
        runs = []
        index = page_offset
        end = page_offset + n_pages
        while index < end:
            # One plane's share of the range at a time.
            plane_index, first = divmod(index, pages_per_block)
            count = min(pages_per_block - first, end - index)
            index += count
            chip, plane = self._chip_plane(plane_index)
            flash = self.array.chip_at(channel, chip)
            block = physical[plane_index]
            reads_before = flash.reads
            try:
                payloads += flash.read_pages(plane, block, first, count)
            except UncorrectableReadError:
                # The pages ahead of the failing one were read for the
                # host (the chip counts that one too).
                self.host_reads += flash.reads - reads_before - 1
                raise
            self.host_reads += count
            runs.append((chip, plane, block, first, count))
        return payloads, OpRuns(OpKind.READ, channel, geo.page_size, runs, False)

    def erase(self, logical_block: int) -> List[FlashOp]:
        """Host-initiated erase: the new command SDF exposes (S2.3).

        Erases the logical block's physical blocks, returns them to the
        wear-leveling pools, and unmaps the logical block.  Blocks that
        wear out during the erase are retired via BBM instead.
        """
        physical = self.mapping.unmap(logical_block)
        ops: List[FlashOp] = []
        for plane_index, block in enumerate(physical):
            addr = self._address(plane_index, block)
            self.array.erase_block(addr)
            self.erase_count += 1
            ops.append(erase_op(addr))
            if self.array.is_bad(addr):
                self._bbm[plane_index].mark_grown_bad(block)
                self._pools[plane_index].retire(block)
            else:
                self._pools[plane_index].release(block)
        return ops

    def is_mapped(self, logical_block: int) -> bool:
        """True when the logical block currently holds data."""
        return self.mapping.is_mapped(logical_block)

    # -- allocation ---------------------------------------------------------------------
    def _allocate_group(self) -> Tuple[int, ...]:
        """One min-wear free block per plane."""
        group: List[int] = []
        for plane_index, pool in enumerate(self._pools):
            try:
                group.append(pool.allocate())
            except IndexError:
                # Roll back planes already taken.
                for taken_plane, taken in enumerate(group):
                    self._pools[taken_plane].release(taken, erased=False)
                raise OutOfSpaceError(
                    f"channel {self.channel} plane {plane_index} has no "
                    "free blocks (host must erase before writing)"
                )
        return tuple(group)

    # -- observability -------------------------------------------------------------------
    def attach_metrics(self, registry) -> None:
        """Expose this engine's counters and wear state as pull metrics.

        Registers callbacks on a :class:`repro.obs.MetricsRegistry` (no
        hot-path cost) and wires the wear pools' ``on_erase`` hook to a
        live max-erase-count gauge.
        """
        prefix = f"ftl.ch{self.channel}"
        registry.register_callback(
            f"{prefix}.host_reads", lambda _now: self.host_reads
        )
        registry.register_callback(
            f"{prefix}.host_programs", lambda _now: self.host_programs
        )
        registry.register_callback(
            f"{prefix}.erases", lambda _now: self.erase_count
        )
        registry.register_callback(
            f"{prefix}.free_logical_blocks",
            lambda _now: self.free_logical_blocks(),
        )
        registry.register_callback(
            f"{prefix}.grown_bad_blocks", lambda _now: self.grown_bad_blocks()
        )
        registry.register_callback(
            f"{prefix}.program_remaps", lambda _now: self.program_remaps
        )
        registry.register_callback(
            f"wear.ch{self.channel}.spread", lambda _now: self.wear_spread()
        )
        gauge = registry.gauge(f"wear.ch{self.channel}.max_erase_count")

        def note_erase(block, count, _gauge=gauge):
            if count > _gauge.value:
                _gauge.set(count)

        for pool in self._pools:
            pool.on_erase = note_erase

    # -- introspection ---------------------------------------------------------------------
    def free_logical_blocks(self) -> int:
        """Logical blocks writable without an erase."""
        return min(len(pool) for pool in self._pools)

    def wear_spread(self) -> int:
        """max - min erase count across the pools."""
        return max(pool.wear_spread() for pool in self._pools)

    def grown_bad_blocks(self) -> int:
        """Blocks retired in service (not factory-bad)."""
        return sum(len(bbm.grown_bad) for bbm in self._bbm)

    def __repr__(self):
        return (
            f"ChannelBlockFTL(channel={self.channel}, "
            f"logical_blocks={self.n_logical_blocks}, "
            f"mapped={self.mapping.mapped_count})"
        )
