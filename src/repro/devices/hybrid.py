"""Hybrid log-block FTL (BAST-style; SNIPPETS.md's hmftl is the idiom).

Most of the logical space is **block-mapped**: a logical block lives in
one physical block with pages in place, so the mapping table is tiny.
Updates that would violate in-place page order land in a small, shared,
page-mapped pool of **log blocks**.  When the pool is exhausted the FTL
merges the oldest log block back into data blocks:

* **switch merge** -- the log block holds one logical block fully and
  sequentially: swap it in as the data block (1 erase);
* **partial merge** -- the log holds the sequential continuation of a
  partially-written data block: append those pages in place
  (m reads + m programs + 1 erase);
* **full merge** -- the general case: rebuild the logical block from
  the freshest copy of every page (up to ``pages_per_block`` reads +
  programs + 2 erases).

Merge traffic is the hybrid design's write amplification: sequential
workloads ride switch merges at WA ~1, random small updates degenerate
into full merges.  Logical blocks stripe across channels round-robin;
free blocks come from the same per-plane min-wear pools
(:class:`~repro.ftl.wear.FreeBlockPool`) the other FTLs use.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.devices.base import base_device_metrics
from repro.devices.conventional import ConventionalSSD, ConventionalSSDSpec
from repro.ftl.ops import FlashOp, erase_op, program_op, read_op
from repro.ftl.page_ftl import OutOfSpaceError
from repro.ftl.wear import FreeBlockPool
from repro.nand.array import FlashArray, PhysicalAddress
from repro.nand.geometry import scaled_count


class _LogBlock:
    """One page-mapped log block: an append frontier plus its entries."""

    __slots__ = ("flat_block", "wp", "entries")

    def __init__(self, flat_block: int):
        self.flat_block = flat_block
        self.wp = 0
        #: Append order: (lbn, offset) per programmed page.
        self.entries: List[Tuple[int, int]] = []


class HybridLogBlockFTL:
    """Block-mapped FTL with a bounded shared log-block pool."""

    def __init__(
        self,
        array: FlashArray,
        log_blocks_per_channel: int,
        op_ratio: float = 0.25,
        store_data: bool = True,
    ):
        if not 0.0 <= op_ratio < 1.0:
            raise ValueError(f"op_ratio {op_ratio} outside [0, 1)")
        if log_blocks_per_channel < 1:
            raise ValueError("log_blocks_per_channel must be >= 1")
        self.array = array
        self.op_ratio = op_ratio
        self.log_limit = log_blocks_per_channel
        self.store_data = store_data
        geo = array.geometry
        self.pages_per_block = geo.pages_per_block

        blocks_per_channel = array.planes_per_channel * geo.blocks_per_plane
        # Block-mapped user space: OP covers the log pool and the merge
        # spares (a full merge allocates before it erases).
        usable = scaled_count(blocks_per_channel * (1.0 - op_ratio))
        self.data_lbns_per_channel = min(
            usable, blocks_per_channel - log_blocks_per_channel - 2
        )
        if self.data_lbns_per_channel < 1:
            raise ValueError("configuration leaves no user capacity")
        self.n_lbns = self.data_lbns_per_channel * array.n_channels
        self.user_pages = self.n_lbns * geo.pages_per_block

        self._pools: Dict[Tuple[int, int], FreeBlockPool] = {}
        for channel in range(array.n_channels):
            for plane_index in range(array.planes_per_channel):
                chip = plane_index // geo.planes_per_chip
                plane = plane_index % geo.planes_per_chip
                blocks = [
                    array.flat_block(
                        PhysicalAddress(channel, chip, plane, block)
                    )
                    for block in range(geo.blocks_per_plane)
                ]
                self._pools[(channel, plane_index)] = FreeBlockPool(blocks)
        self._plane_rr: Dict[int, int] = {c: 0 for c in range(array.n_channels)}
        #: lbn -> in-place physical block / its sequential write pointer.
        self._data_block: Dict[int, int] = {}
        self._data_wp: Dict[int, int] = {}
        #: Per-channel log pool, oldest first.
        self._logs: Dict[int, List[_LogBlock]] = {
            c: [] for c in range(array.n_channels)
        }
        #: lpn -> (flat_block, page) of its freshest copy.
        self._loc: Dict[int, Tuple[int, int]] = {}
        self._store: Dict[int, object] = {}

        self.user_programs = 0
        self.merge_programs = 0
        self.merge_reads = 0
        self.erases = 0
        self.full_merges = 0
        self.partial_merges = 0
        self.switch_merges = 0

    # -- layout -------------------------------------------------------------------
    @property
    def user_bytes(self) -> int:
        """Bytes of user-visible capacity."""
        return self.user_pages * self.array.geometry.page_size

    def channel_of_lpn(self, lpn: int) -> int:
        """Block-granular striping: which channel serves this page."""
        return (lpn // self.pages_per_block) % self.array.n_channels

    @property
    def merges(self) -> int:
        """Log-block merges of any flavour."""
        return self.full_merges + self.partial_merges + self.switch_merges

    @property
    def total_programs(self) -> int:
        """Page programs across every chip."""
        return self.user_programs + self.merge_programs

    @property
    def write_amplification(self) -> float:
        """(all programs) / (user programs); 1.0 is the ideal."""
        if self.user_programs == 0:
            return 1.0
        return self.total_programs / self.user_programs

    # -- public operations ------------------------------------------------------------
    def write(self, lpn: int, data=None) -> List[FlashOp]:
        """Write one logical page; returns every physical op performed
        (including any merge traffic it triggered)."""
        self._check_lpn(lpn)
        lbn, offset = divmod(lpn, self.pages_per_block)
        channel = lbn % self.array.n_channels
        ops: List[FlashOp] = []
        self._loc.pop(lpn, None)  # overwrite invalidates the old copy
        if lbn not in self._data_block and offset == 0:
            ops.extend(self._merge_if_needed(channel, want_data_block=True))
            self._data_block[lbn] = self._allocate(channel)
            self._data_wp[lbn] = 0
        if (
            lbn in self._data_block
            and offset == self._data_wp[lbn]
        ):
            flat = self._data_block[lbn]
            page = offset
            self._data_wp[lbn] = offset + 1
        else:
            log, merge_ops = self._active_log(channel)
            ops.extend(merge_ops)
            flat, page = log.flat_block, log.wp
            log.wp += 1
            log.entries.append((lpn // self.pages_per_block, offset))
        self._loc[lpn] = (flat, page)
        if self.store_data:
            self._store[lpn] = data
        self.user_programs += 1
        ops.append(
            program_op(self._address(flat, page), self.array.geometry.page_size)
        )
        return ops

    def fill(self, n_lpns: int, data=None) -> None:
        """:meth:`write` ``(lpn, data)`` for each lpn in ``range(n_lpns)``
        (the functional prefill)."""
        for lpn in range(n_lpns):
            self.write(lpn, data)

    def read(self, lpn: int) -> Tuple[object, List[FlashOp]]:
        """Read one logical page; (payload, physical ops)."""
        self._check_lpn(lpn)
        location = self._loc.get(lpn)
        if location is None:
            return None, []
        flat, page = location
        data = self._store.get(lpn) if self.store_data else None
        return data, [
            read_op(self._address(flat, page), self.array.geometry.page_size)
        ]

    def trim(self, lpn: int) -> None:
        """Drop the mapping for a logical page (TRIM)."""
        self._check_lpn(lpn)
        self._loc.pop(lpn, None)
        self._store.pop(lpn, None)

    # -- internals ------------------------------------------------------------------------
    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.user_pages:
            raise IndexError(f"lpn {lpn} outside [0, {self.user_pages})")

    def _address(self, flat_block: int, page: int) -> PhysicalAddress:
        return self.array.unpack_block(flat_block).with_page(page)

    def _allocate(self, channel: int) -> int:
        """A fresh min-wear block, rotating the channel's planes."""
        planes = self.array.planes_per_channel
        for _ in range(planes):
            plane_index = self._plane_rr[channel] % planes
            self._plane_rr[channel] += 1
            pool = self._pools[(channel, plane_index)]
            if len(pool) > 0:
                return pool.allocate()
        raise OutOfSpaceError(f"channel {channel} has no free blocks")

    def _release(self, channel: int, flat_block: int) -> List[FlashOp]:
        """Erase a block and return it to its plane's wear pool."""
        addr = self.array.unpack_block(flat_block)
        self.erases += 1
        plane_index = (
            addr.chip * self.array.geometry.planes_per_chip + addr.plane
        )
        self._pools[(channel, plane_index)].release(flat_block)
        return [erase_op(addr, internal=True)]

    def _free_blocks(self, channel: int) -> int:
        return sum(
            len(self._pools[(channel, plane)])
            for plane in range(self.array.planes_per_channel)
        )

    def _merge_if_needed(
        self, channel: int, want_data_block: bool = False
    ) -> List[FlashOp]:
        """Merge the oldest log block when allocation headroom runs out."""
        ops: List[FlashOp] = []
        # A full merge mid-flight needs one spare block beyond this
        # allocation, so keep two blocks of headroom.
        while self._free_blocks(channel) < 2 and self._logs[channel]:
            ops.extend(self._merge_log_block(channel))
        if want_data_block and self._free_blocks(channel) == 0:
            raise OutOfSpaceError(f"channel {channel} has no free blocks")
        return ops

    def _active_log(self, channel: int) -> Tuple[_LogBlock, List[FlashOp]]:
        """The log block accepting appends, merging the oldest if the
        pool is full-and-exhausted."""
        ops: List[FlashOp] = []
        logs = self._logs[channel]
        if logs and logs[-1].wp < self.pages_per_block:
            return logs[-1], ops
        while len(logs) >= self.log_limit or self._free_blocks(channel) < 2:
            if not logs:
                raise OutOfSpaceError(
                    f"channel {channel} cannot open a log block"
                )
            ops.extend(self._merge_log_block(channel))
        log = _LogBlock(self._allocate(channel))
        logs.append(log)
        return log, ops

    def _merge_log_block(self, channel: int) -> List[FlashOp]:
        """Merge the channel's oldest log block back into data blocks."""
        log = self._logs[channel].pop(0)
        ops: List[FlashOp] = []
        # Logical blocks with *valid* pages still living in this log.
        victims: List[int] = []
        valid_of: Dict[int, List[Tuple[int, int]]] = {}
        for page, (lbn, offset) in enumerate(log.entries):
            lpn = lbn * self.pages_per_block + offset
            if self._loc.get(lpn) == (log.flat_block, page):
                if lbn not in valid_of:
                    valid_of[lbn] = []
                    victims.append(lbn)
                valid_of[lbn].append((offset, page))
        if self._try_switch_merge(channel, log, victims, valid_of, ops):
            return ops
        for lbn in victims:
            if self._try_partial_merge(channel, lbn, log, valid_of[lbn], ops):
                continue
            self._full_merge(channel, lbn, ops)
        ops.extend(self._release(channel, log.flat_block))
        return ops

    def _try_switch_merge(
        self,
        channel: int,
        log: _LogBlock,
        victims: List[int],
        valid_of: Dict[int, List[Tuple[int, int]]],
        ops: List[FlashOp],
    ) -> bool:
        """The log block holds exactly one lbn, fully and in order:
        promote it to the data block (no data movement at all)."""
        if len(victims) != 1:
            return False
        lbn = victims[0]
        pairs = valid_of[lbn]
        if len(pairs) != self.pages_per_block:
            return False
        if any(offset != page for offset, page in pairs):
            return False
        old = self._data_block.pop(lbn, None)
        if old is not None:
            ops.extend(self._release(channel, old))
        self._data_block[lbn] = log.flat_block
        self._data_wp[lbn] = self.pages_per_block
        self.switch_merges += 1
        return True

    def _try_partial_merge(
        self,
        channel: int,
        lbn: int,
        log: _LogBlock,
        pairs: List[Tuple[int, int]],
        ops: List[FlashOp],
    ) -> bool:
        """The log holds the sequential continuation of the data block:
        copy those pages in place and keep the data block."""
        data_block = self._data_block.get(lbn)
        if data_block is None:
            return False
        wp = self._data_wp[lbn]
        # The data block prefix must be fully live in place...
        base = lbn * self.pages_per_block
        for offset in range(wp):
            if self._loc.get(base + offset) != (data_block, offset):
                return False
        # ...and the log must hold exactly the next offsets, in order.
        expected = list(range(wp, wp + len(pairs)))
        if [offset for offset, _page in pairs] != expected:
            return False
        # Every remaining offset of the lbn must be unwritten.
        for offset in range(wp + len(pairs), self.pages_per_block):
            if base + offset in self._loc:
                return False
        geo = self.array.geometry
        for offset, page in pairs:
            ops.append(
                read_op(
                    self._address(log.flat_block, page),
                    geo.page_size,
                    internal=True,
                )
            )
            self.merge_reads += 1
            ops.append(
                program_op(
                    self._address(data_block, offset),
                    geo.page_size,
                    internal=True,
                )
            )
            self.merge_programs += 1
            self._loc[base + offset] = (data_block, offset)
        self._data_wp[lbn] = wp + len(pairs)
        self.partial_merges += 1
        return True

    def _full_merge(self, channel: int, lbn: int, ops: List[FlashOp]) -> None:
        """Rebuild the logical block from the freshest copy of each page."""
        geo = self.array.geometry
        fresh = self._allocate(channel)
        base = lbn * self.pages_per_block
        wp = 0
        for offset in range(self.pages_per_block):
            location = self._loc.get(base + offset)
            if location is None:
                continue
            flat, page = location
            ops.append(
                read_op(self._address(flat, page), geo.page_size, internal=True)
            )
            self.merge_reads += 1
            ops.append(
                program_op(
                    self._address(fresh, wp), geo.page_size, internal=True
                )
            )
            self.merge_programs += 1
            self._loc[base + offset] = (fresh, wp)
            wp += 1
        old = self._data_block.pop(lbn, None)
        if old is not None:
            ops.extend(self._release(channel, old))
        self._data_block[lbn] = fresh
        # The rebuilt block is compact, not offset-addressed: further
        # in-place appends would collide, so route updates via the log.
        self._data_wp[lbn] = self.pages_per_block
        self.full_merges += 1


class HybridDevice(ConventionalSSD):
    """A conventional SSD running the hybrid log-block FTL."""

    kind = "hybrid"

    def __init__(self, sim, spec: ConventionalSSDSpec, store_data=False, *,
                 log_blocks_per_channel: int):
        #: Page-mapped log blocks each channel may hold before merging.
        self.log_blocks_per_channel = log_blocks_per_channel
        super().__init__(sim, spec, store_data=store_data)

    def _make_ftl(self, spec: ConventionalSSDSpec, store_data: bool):
        return HybridLogBlockFTL(
            self.array,
            op_ratio=spec.op_ratio,
            log_blocks_per_channel=self.log_blocks_per_channel,
            store_data=store_data,
        )

    def device_metrics(self) -> dict:
        ftl = self.ftl
        return base_device_metrics(
            write_amplification=ftl.write_amplification,
            host_programs=ftl.user_programs,
            gc_programs=ftl.merge_programs,
            gc_runs=ftl.merges,
            merges=ftl.merges,
            erases=ftl.erases,
        )
