"""The conventional SSD's page-mapped, log-structured FTL.

This is the paper's baseline architecture (Figure 5a): one FTL spans
every channel, the logical address space is **striped across channels in
small units** (8 KB for the Huawei Gen3), writes go to per-plane append
frontiers, and a greedy garbage collector relocates valid pages when
free blocks run low.  Over-provisioned space (the paper's Figure 1
variable) and optional RAID-5-style channel parity (S2.2) are both
modeled.

Every logical operation returns the physical :class:`~repro.ftl.ops.FlashOp`
list it generated so the timed device layer can charge time and tests
can assert write amplification.

The definition is page by page -- :meth:`PageFTL.write` of one page,
and a GC relocation that reads, programs and remaps one valid page at a
time -- but the work has a coarser shape, and the FTL does it in that
shape where the outcome is provably the same: a sequential
:meth:`PageFTL.fill` is one chip call and one mapping update per block
it fills, and a relocation is one read of the victim and one program
per destination plane run (DESIGN.md S6, "Fills and relocations as
runs").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.faults.injector import NULL_INJECTOR, PROGRAM_FAIL, READ_UNCORRECTABLE
from repro.ftl.gc import GreedyGarbageCollector
from repro.ftl.mapping import PageMapping
from repro.ftl.ops import (
    FlashOp,
    OpParts,
    Relocation,
    erase_op,
    program_op,
    read_op,
)
from repro.ftl.wear import FreeBlockPool
from repro.nand.array import FlashArray, PhysicalAddress
from repro.nand.geometry import scaled_count


class OutOfSpaceError(Exception):
    """The FTL ran out of physical space (GC could not keep up)."""


class PageFTL:
    """Page-mapped FTL with striping, over-provisioning, GC and parity."""

    def __init__(
        self,
        array: FlashArray,
        op_ratio: float = 0.25,
        stripe_pages: int = 1,
        parity_group_size: Optional[int] = None,
        gc_free_blocks: Optional[int] = None,
        store_data: bool = True,
    ):
        if not 0.0 <= op_ratio < 1.0:
            raise ValueError(f"op_ratio {op_ratio} outside [0, 1)")
        if stripe_pages < 1:
            raise ValueError("stripe_pages must be >= 1")
        if parity_group_size is not None and parity_group_size < 2:
            raise ValueError("parity_group_size must be >= 2 (n-1 data + 1)")
        if gc_free_blocks is None:
            # GC relocation may open one fresh frontier per plane before
            # the victim's erase returns a block, so keep that much
            # headroom (plus slack) per channel.
            gc_free_blocks = (
                array.chips_per_channel * array.geometry.planes_per_chip + 2
            )
        if gc_free_blocks < 1:
            raise ValueError("gc_free_blocks must be >= 1")
        self.array = array
        self.op_ratio = op_ratio
        self.stripe_pages = stripe_pages
        self.parity_group_size = parity_group_size
        self.gc_free_blocks = gc_free_blocks
        self.store_data = store_data
        self.gc_policy = GreedyGarbageCollector()

        geo = array.geometry
        self._pages_per_block = geo.pages_per_block
        self._planes = array.planes_per_channel
        self._data_channels, self._parity_channels = self._split_channels()
        data_pages = (
            len(self._data_channels)
            * array.planes_per_channel
            * geo.blocks_per_plane
            * geo.pages_per_block
        )
        self.user_pages = scaled_count(data_pages * (1.0 - op_ratio))
        if self.user_pages < 1:
            raise ValueError("configuration leaves no user capacity")

        self.mapping = PageMapping(
            n_lpns=self.user_pages,
            n_ppns=array.n_pages,
            pages_per_block=geo.pages_per_block,
        )
        # Per-(channel, plane) free pools, so every plane keeps its own
        # append frontier busy (4-plane program parallelism).
        self._pools: Dict[Tuple[int, int], FreeBlockPool] = {}
        for channel in range(array.n_channels):
            plane_index = 0
            for chip in range(array.chips_per_channel):
                for plane in range(geo.planes_per_chip):
                    blocks = [
                        array.flat_block(
                            PhysicalAddress(channel, chip, plane, block)
                        )
                        for block in range(geo.blocks_per_plane)
                    ]
                    self._pools[(channel, plane_index)] = FreeBlockPool(blocks)
                    plane_index += 1
        #: Free blocks per channel (the pools' sizes summed, kept by
        #: allocate and release).
        self._free = [array.blocks_per_channel] * array.n_channels
        # (channel, plane_index) -> append frontier
        # [flat_block, next_page, chip, plane, block].  A frontier that
        # stole its block from a sibling pool lives on that sibling.
        self._frontiers: Dict[Tuple[int, int], List[int]] = {}
        self._plane_rr: Dict[int, int] = {c: 0 for c in range(array.n_channels)}
        self._sealed: Dict[int, Set[int]] = {
            c: set() for c in range(array.n_channels)
        }
        # Parity bookkeeping: programs since last parity write, per group.
        self._parity_pending: Dict[int, int] = {}
        self._parity_rr: Dict[int, int] = {}

        # Statistics.
        self.user_programs = 0
        self.gc_programs = 0
        self.parity_programs = 0
        self.gc_reads = 0
        self.erases = 0
        self.gc_runs = 0

    # -- layout -------------------------------------------------------------------
    def _split_channels(self) -> Tuple[List[int], List[int]]:
        """Partition channels into data and parity sets."""
        n = self.array.n_channels
        if self.parity_group_size is None:
            return list(range(n)), []
        group = self.parity_group_size
        data, parity = [], []
        for channel in range(n):
            if channel % group == group - 1:
                parity.append(channel)
            else:
                data.append(channel)
        if not data:
            raise ValueError("parity grouping left no data channels")
        return data, parity

    @property
    def user_bytes(self) -> int:
        """Bytes of user-visible capacity."""
        return self.user_pages * self.array.geometry.page_size

    def channel_of_lpn(self, lpn: int) -> int:
        """Striping: which channel serves this logical page."""
        stripe_index = lpn // self.stripe_pages
        return self._data_channels[stripe_index % len(self._data_channels)]

    # -- public operations ------------------------------------------------------------
    def write(self, lpn: int, data=None) -> Sequence[FlashOp]:
        """Write one logical page; returns every physical op performed
        (including any GC and parity traffic it triggered): a list, or
        an :class:`~repro.ftl.ops.OpParts` when it holds a relocation
        done as runs."""
        self._check_lpn(lpn)
        channel = self.channel_of_lpn(lpn)
        ops = self._ensure_free_space(channel)
        addr = self._append(channel, lpn, data)
        self.user_programs += 1
        ops.append(program_op(addr, self.array.geometry.page_size))
        ops.extend(self._maybe_write_parity(channel))
        if len(ops) > 1 and any(type(op) is Relocation for op in ops):
            return OpParts(ops)
        return ops

    def fill(self, n_lpns: int, data=None) -> None:
        """:meth:`write` ``(lpn, data)`` for each lpn in ``range(n_lpns)``
        (the ops are not kept): the functional prefill.

        Done as block runs (:meth:`_fill_by_runs`) when that is provably
        the loop's outcome; otherwise it is the loop."""
        if not self._fill_by_runs(n_lpns, data):
            for lpn in range(n_lpns):
                self.write(lpn, data)

    def read(self, lpn: int) -> Tuple[object, List[FlashOp]]:
        """Read one logical page; (payload, physical ops)."""
        self._check_lpn(lpn)
        ppn = self.mapping.lookup(lpn)
        if ppn is None:
            return None, []
        addr = self.array.unpack_ppn(ppn)
        data = self.array.read_page(addr)
        return data, [read_op(addr, self.array.geometry.page_size)]

    def trim(self, lpn: int) -> None:
        """Drop the mapping for a logical page (TRIM)."""
        self._check_lpn(lpn)
        self.mapping.unmap(lpn)

    # -- statistics ---------------------------------------------------------------------
    @property
    def total_programs(self) -> int:
        """Page programs across every chip."""
        return self.user_programs + self.gc_programs + self.parity_programs

    @property
    def write_amplification(self) -> float:
        """(all programs) / (user programs); 1.0 is the ideal."""
        if self.user_programs == 0:
            return 1.0
        return self.total_programs / self.user_programs

    def free_blocks(self, channel: int) -> int:
        """Free physical blocks on the channel."""
        return self._free[channel]

    # -- internals ------------------------------------------------------------------------
    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.user_pages:
            raise IndexError(f"lpn {lpn} outside [0, {self.user_pages})")

    def _quiet(self, channel: int, *kinds: str) -> bool:
        """True when no chip on the channel has a fault rule for any of
        ``kinds``: its chip calls then draw nothing, so a run of pages
        is the same as those pages one call each."""
        return all(
            flash.faults is NULL_INJECTOR or flash.faults.quiet(*kinds)
            for flash in self.array.chips[channel]
        )

    def _append(self, channel: int, lpn: int, data) -> PhysicalAddress:
        """Program the next page of the channel's rotating plane frontier."""
        addr, flat_block, page = self._next_slot(channel)
        self.array.chips[channel][addr.chip].program_page(
            addr.plane, addr.block, page, data if self.store_data else None
        )
        self.mapping.map(lpn, flat_block * self._pages_per_block + page)
        return addr

    def _next_slot(self, channel: int) -> Tuple[PhysicalAddress, int, int]:
        """Advance the channel's round-robin plane frontier by one page."""
        plane_index = self._plane_rr[channel] % self._planes
        self._plane_rr[channel] += 1
        frontier = self._frontiers.get((channel, plane_index))
        if frontier is None or frontier[1] >= self._pages_per_block:
            frontier = self._open_frontier(channel, plane_index, frontier)
        flat_block, page, chip, plane, block = frontier
        frontier[1] = page + 1
        return PhysicalAddress(channel, chip, plane, block, page), flat_block, page

    def _open_frontier(
        self, channel: int, plane_index: int, full: Optional[List[int]]
    ) -> List[int]:
        """Seal the plane's ``full`` frontier (if any) and open a fresh
        one on a newly allocated block."""
        if full is not None:
            self._sealed[channel].add(full[0])
        flat_block = self._allocate_block(channel, plane_index)
        addr = self.array.unpack_block(flat_block)
        frontier = [flat_block, 0, addr.chip, addr.plane, addr.block]
        self._frontiers[(channel, plane_index)] = frontier
        return frontier

    def _allocate_block(self, channel: int, plane_index: int) -> int:
        """A fresh block for the given frontier, preferring its own
        plane (keeps all planes programming in parallel) and stealing
        from the fullest sibling pool when the plane is exhausted."""
        pool = self._pools[(channel, plane_index)]
        if len(pool) == 0:
            pool = max(
                (
                    self._pools[(channel, plane)]
                    for plane in range(self._planes)
                ),
                key=len,
            )
            if len(pool) == 0:
                raise OutOfSpaceError(f"channel {channel} has no free blocks")
        self._free[channel] -= 1
        return pool.allocate()

    # -- runs of slots ----------------------------------------------------------------------
    def _plane_shares(
        self, channel: int, n: int
    ) -> List[Tuple[int, int, int, Optional[List[int]]]]:
        """What the channel's next ``n`` :meth:`_next_slot` calls take
        from each plane: ``(plane_index, k, count, frontier)`` -- the
        plane gets the ``k``-th call (0-based) and every ``planes``-th
        after it, ``count`` in all, starting on its current
        ``frontier`` (None when it has none)."""
        planes = self._planes
        rr = self._plane_rr[channel]
        shares = []
        for plane_index in range(planes):
            k = (plane_index - rr) % planes
            if k < n:
                shares.append(
                    (
                        plane_index,
                        k,
                        (n - k + planes - 1) // planes,
                        self._frontiers.get((channel, plane_index)),
                    )
                )
        return shares

    def _blocks_opened(self, shares) -> List[int]:
        """Per share, the fresh frontiers its calls open."""
        per_block = self._pages_per_block
        opened = []
        for _plane_index, _k, count, frontier in shares:
            room = 0 if frontier is None else per_block - frontier[1]
            opened.append(max(0, -(-(count - room) // per_block)))
        return opened

    def _claim_runs(self, channel: int, n: int, shares) -> List[tuple]:
        """Take the channel's next ``n`` slots (``shares`` is
        :meth:`_plane_shares` of them) as the ``n`` :meth:`_next_slot`
        calls would -- fresh frontiers opened, and full ones sealed, in
        call order, so allocation (and any steal) and ``_sealed`` order
        are the loop's -- and return them as runs ``(k, count, chip,
        plane, block, flat_block, first_page)``: calls ``k``, ``k +
        planes``, ... land on ``count`` consecutive pages of one block.
        Nothing is programmed."""
        per_block = self._pages_per_block
        planes = self._planes
        self._plane_rr[channel] += n
        opens = []
        for plane_index, k, count, frontier in shares:
            room = 0 if frontier is None else per_block - frontier[1]
            for local in range(room, count, per_block):
                opens.append((k + local * planes, plane_index))
        opens.sort()
        fresh: Dict[int, List[List[int]]] = {}
        for _call, plane_index in opens:
            fresh.setdefault(plane_index, []).append(
                self._open_frontier(
                    channel,
                    plane_index,
                    self._frontiers.get((channel, plane_index)),
                )
            )
        runs = []
        for plane_index, k, count, frontier in shares:
            frontiers = fresh.get(plane_index, [])
            if frontier is not None and frontier[1] < per_block:
                frontiers.insert(0, frontier)
            local = 0
            for target in frontiers:
                flat_block, page, chip, plane, block = target
                take = min(per_block - page, count - local)
                target[1] = page + take
                runs.append(
                    (k + local * planes, take, chip, plane, block, flat_block, page)
                )
                local += take
        return runs

    # -- fill ---------------------------------------------------------------------------------
    def _fill_by_runs(self, n_lpns: int, data) -> bool:
        """:meth:`fill` as block runs, or False (having changed nothing)
        when the loop could do something runs do not model: an lpn out
        of range or already mapped (an overwrite), a chip with a
        ``PROGRAM_FAIL`` rule (the draws are per page), or a channel the
        fill would take below ``gc_free_blocks`` (GC) or a plane it
        would empty (a sibling steal).

        Channel by channel, the k-th write goes to plane ``(rr + k) %
        planes`` as in :meth:`_next_slot`; each block it fills is one
        ``program_pages`` call and one ``map_many``.  Parity channels get
        the pages the loop's parity counters would emit."""
        if n_lpns < 1 or n_lpns > self.user_pages:
            return False
        if self.mapping.any_mapped(n_lpns):
            return False
        counts, parity_pending = self._fill_counts(n_lpns)
        shares = {}
        for channel, count in counts.items():
            shares[channel] = self._plane_shares(channel, count)
            opened = self._blocks_opened(shares[channel])
            if self._free[channel] - sum(opened) < self.gc_free_blocks:
                return False
            for (plane_index, _k, _count, _frontier), blocks in zip(
                shares[channel], opened
            ):
                if blocks > len(self._pools[(channel, plane_index)]):
                    return False
            if not self._quiet(channel, PROGRAM_FAIL):
                return False

        per_block = self._pages_per_block
        planes = self._planes
        stripe = self.stripe_pages
        n_data = len(self._data_channels)
        payload = data if self.store_data else None
        chips = self.array.chips
        data_index = {c: j for j, c in enumerate(self._data_channels)}
        for channel, count in counts.items():
            # Parity pages are unmapped placeholders.
            j = data_index.get(channel)
            for k, take, chip, plane, block, flat_block, page in self._claim_runs(
                channel, count, shares[channel]
            ):
                chips[channel][chip].program_pages(
                    plane, block, page, [None if j is None else payload] * take
                )
                if j is not None:
                    calls = np.arange(k, k + take * planes, planes)
                    first = flat_block * per_block + page
                    self.mapping.map_many(
                        (j + calls // stripe * n_data) * stripe + calls % stripe,
                        np.arange(first, first + take),
                    )
        self.user_programs += n_lpns
        self.parity_programs += sum(counts.values()) - n_lpns
        self._parity_pending.update(parity_pending)
        return True

    def _fill_counts(self, n_lpns: int) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Pages the loop over ``range(n_lpns)`` programs per channel
        (data channels first, in order; then parity channels) and the
        parity counters it leaves, per group it touches (first-touch
        order)."""
        n_data = len(self._data_channels)
        stripes, rest = divmod(n_lpns, self.stripe_pages)
        counts: Dict[int, int] = {}
        for j, channel in enumerate(self._data_channels):
            count = max(0, -(-(stripes - j) // n_data)) * self.stripe_pages
            if rest and stripes % n_data == j:
                count += rest
            if count:
                counts[channel] = count
        pending: Dict[int, int] = {}
        if self.parity_group_size is None:
            return counts, pending
        per_parity = self.parity_group_size - 1
        written: Dict[int, int] = {}
        for channel, count in counts.items():
            group = channel // self.parity_group_size
            written[group] = written.get(group, 0) + count
        parity: Dict[int, int] = {}
        for group, count in written.items():
            emitted, pending[group] = divmod(
                self._parity_pending.get(group, 0) + count, per_parity
            )
            if emitted:
                channel = self._parity_channels[group % len(self._parity_channels)]
                parity[channel] = parity.get(channel, 0) + emitted
        counts.update(parity)
        return counts, pending

    # -- garbage collection -----------------------------------------------------------------
    def _ensure_free_space(self, channel: int) -> List:
        """Run greedy GC on a channel until it has breathing room; the
        ops as parts (:class:`FlashOp` s and :class:`Relocation` s)."""
        ops: List = []
        pages_per_block = self._pages_per_block
        while self._free[channel] < self.gc_free_blocks:
            victim = self.gc_policy.select_victim(
                self.mapping.valid_counts, self._sealed[channel]
            )
            if victim is not None and (
                self.mapping.valid_count(victim) >= pages_per_block
            ):
                # Every candidate is fully valid: GC cannot reclaim
                # anything, so collecting would only shuffle data forever.
                victim = None
            if victim is None:
                # Nothing reclaimable right now.  The write itself may
                # still fit in an open frontier; if it truly needs a
                # fresh block, _allocate_block raises OutOfSpaceError.
                break
            ops.extend(self._collect_block(channel, victim))
        return ops

    def _collect_block(self, channel: int, victim: int) -> List:
        """Relocate a victim block's valid pages, erase it, free it.

        The valid pages move as runs (:meth:`_relocate_runs`) unless a
        chip on the channel has a read or program fault rule (the draws
        are per page, in order) or the channel has fewer free blocks
        than the move opens (``OutOfSpaceError`` part-way): then page
        by page (:meth:`_relocate_page_by_page`), the definition."""
        self.gc_runs += 1
        self._sealed[channel].discard(victim)
        offsets, lpns = self.mapping.valid_in_block(victim)
        shares = self._plane_shares(channel, len(offsets))
        if (
            len(offsets)
            and sum(self._blocks_opened(shares)) <= self._free[channel]
            and self._quiet(channel, READ_UNCORRECTABLE, PROGRAM_FAIL)
        ):
            ops = [self._relocate_runs(channel, victim, offsets, lpns, shares)]
        else:
            ops = self._relocate_page_by_page(channel, victim)
        victim_addr = self.array.unpack_block(victim)
        self.array.erase_block(victim_addr)
        self.mapping.note_block_erased(victim)
        self.erases += 1
        ops.append(erase_op(victim_addr, internal=True))
        plane_index = (
            victim_addr.chip * self.array.geometry.planes_per_chip
            + victim_addr.plane
        )
        self._pools[(channel, plane_index)].release(victim)
        self._free[channel] += 1
        return ops

    def _relocate_page_by_page(self, channel: int, victim: int) -> List[FlashOp]:
        """Move each valid page of the victim: read it, program it at the
        next slot, remap it."""
        page_size = self.array.geometry.page_size
        ops: List[FlashOp] = []
        for ppn, lpn in self.mapping.valid_lpns_in_block(victim):
            src = self.array.unpack_ppn(ppn)
            data = self.array.read_page(src)
            self.gc_reads += 1
            ops.append(read_op(src, page_size, internal=True))
            dst, flat_block, page = self._next_slot(channel)
            self.array.program_page(dst, data)
            self.gc_programs += 1
            self.mapping.map(lpn, flat_block * self._pages_per_block + page)
            ops.append(program_op(dst, page_size, internal=True))
        return ops

    def _relocate_runs(
        self, channel: int, victim: int, offsets, lpns, shares
    ) -> Relocation:
        """:meth:`_relocate_page_by_page` as runs: the valid pages come
        off the victim in one read, go on in one program per destination
        plane run, and are remapped in one ``map_many``.  The ops are
        the same read, program, read, program, ... sequence, handed over
        as the read run and the program plane runs
        (:class:`~repro.ftl.ops.Relocation`): the channel engine reserves
        them run by run, and a :class:`FlashOp` is built only for
        whoever indexes or iterates them."""
        page_size = self.array.geometry.page_size
        per_block = self._pages_per_block
        planes = self._planes
        chips = self.array.chips[channel]
        n = len(offsets)
        offsets = offsets.tolist()
        src = self.array.unpack_block(victim)
        flash = chips[src.chip]
        first = offsets[0]
        span = flash.block(src.plane, src.block).read_run(
            first, offsets[-1] + 1 - first
        )
        flash.reads += n
        self.gc_reads += n
        data = [span[offset - first] for offset in offsets]
        ppns = [0] * n
        runs = []
        for k, take, chip, plane, block, flat_block, page in self._claim_runs(
            channel, n, shares
        ):
            stop = k + take * planes
            chips[chip].program_pages(plane, block, page, data[k:stop:planes])
            base = flat_block * per_block + page
            ppns[k:stop:planes] = range(base, base + take)
            runs.append((k, take, chip, plane, block, page))
        self.gc_programs += n
        self.mapping.map_many(lpns, ppns)
        return Relocation(
            channel, page_size, (src.chip, src.plane, src.block), offsets,
            runs, planes,
        )

    def _maybe_write_parity(self, data_channel: int) -> List:
        """RAID-5-style channel parity: one parity program per (g-1)
        data programs within the channel's parity group."""
        if self.parity_group_size is None:
            return []
        group = data_channel // self.parity_group_size
        pending = self._parity_pending.get(group, 0) + 1
        if pending < self.parity_group_size - 1:
            self._parity_pending[group] = pending
            return []
        self._parity_pending[group] = 0
        parity_channel = self._parity_channels[group % len(self._parity_channels)]
        ops = self._ensure_free_space(parity_channel)
        addr, _, _ = self._next_slot(parity_channel)
        self.array.program_page(addr, None)
        self.parity_programs += 1
        ops.append(
            program_op(addr, self.array.geometry.page_size, internal=True)
        )
        return ops
