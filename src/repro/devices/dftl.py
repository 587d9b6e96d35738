"""DFTL: a page-mapped FTL with an on-demand cached mapping table.

The conventional baseline keeps its whole page map in controller DRAM.
DFTL (Gupta et al., ASPLOS'09; WiscSee's ``FtlSim/dftl2.py`` is the
reference simulator) stores the map *in flash* as translation pages and
caches only a bounded working set: a map lookup that misses the cache
costs a flash read of the translation page, and evicting a dirty cached
translation page costs a flash program.  Under workloads whose mapping
working set fits the cache, DFTL behaves like the page-mapped baseline;
past it, every host I/O drags translation traffic behind it.

The model here caches at translation-page granularity (one cached unit
maps ``page_size / 8`` logical pages), which is exactly the batching
DFTL's CMT performs on eviction.  Translation ops are timing-only
``internal`` flash ops: the *functional* map stays in
:class:`~repro.ftl.page_ftl.PageFTL` (correctness is unchanged), while
the translation reads/programs contend for the same channel buses as
host data and count toward write amplification.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Sequence

from repro.devices.base import base_device_metrics
from repro.devices.conventional import ConventionalSSD, ConventionalSSDSpec
from repro.ftl.ops import FlashOp, OpParts, program_op, read_op
from repro.nand.array import FlashArray, PhysicalAddress
from repro.ftl.page_ftl import PageFTL


class DFTLPageFTL(PageFTL):
    """PageFTL whose map lookups go through a bounded translation cache."""

    #: Bytes per map entry (4-byte PPN + metadata, the usual estimate).
    ENTRY_BYTES = 8

    def __init__(self, array: FlashArray, cmt_pages: int, **kwargs):
        super().__init__(array, **kwargs)
        if cmt_pages < 1:
            raise ValueError("cmt_pages must be >= 1")
        #: Translation pages the cached mapping table holds (each covers
        #: ``page_size / 8`` logical pages; 8-byte map entries).
        self.cmt_pages = cmt_pages
        self.entries_per_tp = max(
            1, array.geometry.page_size // self.ENTRY_BYTES
        )
        #: LRU over cached translation pages: tvpn -> dirty flag.
        self._cmt: "OrderedDict[int, bool]" = OrderedDict()
        self.map_cache_hits = 0
        self.map_cache_misses = 0
        self.translation_reads = 0
        self.translation_programs = 0

    # -- translation traffic --------------------------------------------------------
    def _tp_address(self, tvpn: int) -> PhysicalAddress:
        """A stable physical home for one translation page.

        Timing-only: translation pages round-robin over the data
        channels (plane 0) so their bus traffic interferes with host
        I/O the way a real GTD layout would, without perturbing the
        functional array state.
        """
        geo = self.array.geometry
        channel = self._data_channels[tvpn % len(self._data_channels)]
        block = (tvpn // len(self._data_channels)) % geo.blocks_per_plane
        page = tvpn % geo.pages_per_block
        return PhysicalAddress(channel, 0, 0, block, page)

    def _translate(self, lpn: int, dirty: bool) -> List[FlashOp]:
        """Consult the cached mapping table for ``lpn``.

        Returns the flash ops the lookup cost: nothing on a hit, a
        translation-page read on a miss, plus a translation-page
        program when the evicted victim was dirty.
        """
        tvpn = lpn // self.entries_per_tp
        ops: List[FlashOp] = []
        if tvpn in self._cmt:
            self.map_cache_hits += 1
            self._cmt.move_to_end(tvpn)
            if dirty:
                self._cmt[tvpn] = True
            return ops
        self.map_cache_misses += 1
        geo = self.array.geometry
        ops.append(read_op(self._tp_address(tvpn), geo.page_size, internal=True))
        self.translation_reads += 1
        self._cmt[tvpn] = dirty
        if len(self._cmt) > self.cmt_pages:
            victim, victim_dirty = self._cmt.popitem(last=False)
            if victim_dirty:
                ops.append(
                    program_op(
                        self._tp_address(victim), geo.page_size, internal=True
                    )
                )
                self.translation_programs += 1
        return ops

    # -- public operations ------------------------------------------------------------
    def write(self, lpn: int, data=None) -> Sequence[FlashOp]:
        ops = self._translate(lpn, dirty=True)
        written = super().write(lpn, data)
        if isinstance(written, OpParts):
            # A relocation stays one part (its plane runs).
            return OpParts(ops + written.parts)
        ops.extend(written)
        return ops

    def fill(self, n_lpns: int, data=None) -> None:
        """:meth:`write` for each lpn in ``range(n_lpns)``: the block
        runs of :meth:`PageFTL.fill`, with the cache charged per
        translation-page run -- the run's first lpn looked up, the rest
        hits (the first made its page the dirty, most recent entry)."""
        if not self._fill_by_runs(n_lpns, data):
            for lpn in range(n_lpns):
                self.write(lpn, data)
            return
        for first in range(0, n_lpns, self.entries_per_tp):
            self._translate(first, dirty=True)
            self.map_cache_hits += min(self.entries_per_tp, n_lpns - first) - 1

    def read(self, lpn: int):
        ops = self._translate(lpn, dirty=False)
        data, read_ops = super().read(lpn)
        return data, ops + read_ops

    # -- statistics ---------------------------------------------------------------------
    @property
    def total_programs(self) -> int:
        """Page programs including translation-page write-backs."""
        return (
            self.user_programs
            + self.gc_programs
            + self.parity_programs
            + self.translation_programs
        )

    @property
    def map_cache_hit_rate(self) -> float:
        """Hits / lookups (1.0 before any lookup happens)."""
        lookups = self.map_cache_hits + self.map_cache_misses
        if lookups == 0:
            return 1.0
        return self.map_cache_hits / lookups


class DFTLDevice(ConventionalSSD):
    """A conventional SSD whose FTL pages its map in and out of flash."""

    kind = "dftl"

    def __init__(self, sim, spec: ConventionalSSDSpec, store_data=False, *,
                 cmt_pages: int):
        self.cmt_pages = cmt_pages
        super().__init__(sim, spec, store_data=store_data)

    def _make_ftl(self, spec: ConventionalSSDSpec, store_data: bool):
        return DFTLPageFTL(
            self.array,
            cmt_pages=self.cmt_pages,
            op_ratio=spec.op_ratio,
            stripe_pages=spec.stripe_pages,
            parity_group_size=spec.parity_group_size,
            store_data=store_data,
        )

    def device_metrics(self) -> dict:
        ftl = self.ftl
        return base_device_metrics(
            write_amplification=ftl.write_amplification,
            host_programs=ftl.user_programs,
            gc_programs=ftl.gc_programs,
            gc_runs=ftl.gc_runs,
            erases=ftl.erases,
            map_cache_hits=ftl.map_cache_hits,
            map_cache_misses=ftl.map_cache_misses,
            map_cache_hit_rate=ftl.map_cache_hit_rate,
        )
