"""Address mapping tables.

* :class:`PageMapping` -- numpy-backed logical-page -> physical-page map
  with a reverse map and per-block valid-page counters; the heart of the
  conventional SSD's page-mapped FTL.
* :class:`BlockMapping` -- the SDF channel engine's LA2PA table mapping a
  logical (8 MB) block to the group of physical erase blocks (one per
  plane) that store it.  The paper keeps this in on-chip SRAM with
  one-cycle lookups; functionally it is a small array.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

UNMAPPED = -1


class PageMapping:
    """Bidirectional LPN <-> PPN map plus valid-page accounting."""

    def __init__(self, n_lpns: int, n_ppns: int, pages_per_block: int):
        if n_lpns < 1 or n_ppns < 1:
            raise ValueError("page counts must be positive")
        if n_ppns % pages_per_block != 0:
            raise ValueError("n_ppns must be a whole number of blocks")
        self.n_lpns = n_lpns
        self.n_ppns = n_ppns
        self.pages_per_block = pages_per_block
        self._l2p = np.full(n_lpns, UNMAPPED, dtype=np.int64)
        self._p2l = np.full(n_ppns, UNMAPPED, dtype=np.int64)
        self._valid_per_block = np.zeros(
            n_ppns // pages_per_block, dtype=np.int32
        )

    # -- lookups -----------------------------------------------------------------
    def lookup(self, lpn: int) -> Optional[int]:
        """PPN currently holding ``lpn``, or None if never written/trimmed."""
        ppn = int(self._l2p[lpn])
        return None if ppn == UNMAPPED else ppn

    def reverse(self, ppn: int) -> Optional[int]:
        """LPN stored at ``ppn`` if that page holds valid data."""
        lpn = int(self._p2l[ppn])
        return None if lpn == UNMAPPED else lpn

    def is_valid(self, ppn: int) -> bool:
        """True when the physical page holds live data."""
        return self._p2l[ppn] != UNMAPPED

    def valid_count(self, block_index: int) -> int:
        """Valid pages currently in the block."""
        return int(self._valid_per_block[block_index])

    @property
    def valid_counts(self) -> np.ndarray:
        """Read-only view of per-block valid-page counts."""
        view = self._valid_per_block.view()
        view.flags.writeable = False
        return view

    @property
    def mapped_lpns(self) -> int:
        """Logical pages that currently map somewhere."""
        return int(np.count_nonzero(self._l2p != UNMAPPED))

    def any_mapped(self, stop: int) -> bool:
        """True when some lpn in ``range(stop)`` maps somewhere (a
        reduction over the slice: no temporary of its size)."""
        return stop > 0 and int(self._l2p[:stop].max()) != UNMAPPED

    # -- updates -----------------------------------------------------------------
    def map(self, lpn: int, ppn: int) -> Optional[int]:
        """Point ``lpn`` at ``ppn``; returns the invalidated old PPN (if any).

        The target physical page must not already hold valid data.
        """
        if self._p2l[ppn] != UNMAPPED:
            raise ValueError(
                f"ppn {ppn} already holds valid lpn {int(self._p2l[ppn])}"
            )
        old_ppn = self.lookup(lpn)
        if old_ppn is not None:
            self._invalidate_ppn(old_ppn)
        self._l2p[lpn] = ppn
        self._p2l[ppn] = lpn
        self._valid_per_block[ppn // self.pages_per_block] += 1
        return old_ppn

    def map_many(self, lpns, ppns) -> None:
        """:meth:`map` for each ``(lpn, ppn)`` pair, with every check
        made before anything changes: a target that holds valid data,
        or is named twice, raises ``ValueError`` and a valid count that
        would go negative ``AssertionError``, the map left as it was.
        ``lpns`` are distinct (as a block's valid pages, or a fill's,
        are)."""
        lpns = np.asarray(lpns, dtype=np.int64)
        ppns = np.asarray(ppns, dtype=np.int64)
        if not len(ppns):
            return
        held = self._p2l[ppns]
        if held.max() != UNMAPPED:
            taken = np.flatnonzero(held != UNMAPPED)[0]
            raise ValueError(
                f"ppn {int(ppns[taken])} already holds valid lpn "
                f"{int(held[taken])}"
            )
        if len(set(ppns.tolist())) != len(ppns):
            raise ValueError("map_many names a target ppn twice")
        old = self._l2p[lpns]
        if old.max() != UNMAPPED:
            old = old[old != UNMAPPED]
            removed_at, removed = self._per_block(old)
            short = np.flatnonzero(self._valid_per_block[removed_at] < removed)
            if len(short):
                raise AssertionError(
                    f"valid count of block {int(removed_at[short[0]])} went negative"
                )
            self._p2l[old] = UNMAPPED
            self._valid_per_block[removed_at] -= removed
        self._l2p[lpns] = ppns
        self._p2l[ppns] = lpns
        added_at, added = self._per_block(ppns)
        self._valid_per_block[added_at] += added

    def _per_block(self, ppns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The blocks the (non-empty) ``ppns`` fall in, each once, and how
        many fall in each: a bincount over the span they cover (no sort,
        and not numpy's ``unique``, which imports ``numpy.ma`` -- a
        megabyte of resident memory)."""
        blocks = ppns // self.pages_per_block
        low = int(blocks.min())
        counts = np.bincount(blocks - low)
        at = counts.nonzero()[0]
        return at + low, counts[at].astype(np.int32)

    def unmap(self, lpn: int) -> Optional[int]:
        """TRIM: drop the mapping for ``lpn``; returns the freed PPN."""
        ppn = self.lookup(lpn)
        if ppn is None:
            return None
        self._invalidate_ppn(ppn)
        self._l2p[lpn] = UNMAPPED
        return ppn

    def _invalidate_ppn(self, ppn: int) -> None:
        self._p2l[ppn] = UNMAPPED
        block = ppn // self.pages_per_block
        self._valid_per_block[block] -= 1
        if self._valid_per_block[block] < 0:
            raise AssertionError(f"valid count of block {block} went negative")

    def valid_lpns_in_block(self, block_index: int) -> List[Tuple[int, int]]:
        """(ppn, lpn) pairs still valid inside a block (for GC movement)."""
        start = block_index * self.pages_per_block
        offsets, lpns = self.valid_in_block(block_index)
        return [
            (start + offset, lpn)
            for offset, lpn in zip(offsets.tolist(), lpns.tolist())
        ]

    def valid_in_block(self, block_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """The block's valid pages as two arrays: their offsets in the
        block, in order, and the lpns they hold."""
        start = block_index * self.pages_per_block
        segment = self._p2l[start : start + self.pages_per_block]
        offsets = np.flatnonzero(segment != UNMAPPED)
        return offsets, segment[offsets]

    def note_block_erased(self, block_index: int) -> None:
        """Assert-and-reset after an erase: the block must hold no valid data."""
        if self._valid_per_block[block_index] != 0:
            raise ValueError(
                f"erasing block {block_index} with "
                f"{int(self._valid_per_block[block_index])} valid pages"
            )
        start = block_index * self.pages_per_block
        self._p2l[start : start + self.pages_per_block] = UNMAPPED


class BlockMapping:
    """SDF LA2PA: logical block -> tuple of physical blocks (one per plane).

    Lookups are one SRAM cycle in hardware; here, one dict access.
    """

    def __init__(self, n_logical_blocks: int):
        if n_logical_blocks < 1:
            raise ValueError("need at least one logical block")
        self.n_logical_blocks = n_logical_blocks
        self._table: Dict[int, Tuple[int, ...]] = {}

    def lookup(self, logical_block: int) -> Optional[Tuple[int, ...]]:
        """Current mapping for the logical unit, or None."""
        self._check(logical_block)
        return self._table.get(logical_block)

    def map(self, logical_block: int, physical_blocks: Tuple[int, ...]) -> None:
        """Install a mapping."""
        self._check(logical_block)
        if logical_block in self._table:
            raise ValueError(
                f"logical block {logical_block} is already mapped; erase first"
            )
        self._table[logical_block] = tuple(physical_blocks)

    def unmap(self, logical_block: int) -> Tuple[int, ...]:
        """Remove a mapping."""
        self._check(logical_block)
        try:
            return self._table.pop(logical_block)
        except KeyError:
            raise KeyError(f"logical block {logical_block} is not mapped")

    def is_mapped(self, logical_block: int) -> bool:
        """True when the logical block currently holds data."""
        self._check(logical_block)
        return logical_block in self._table

    @property
    def mapped_count(self) -> int:
        """Number of mapped logical blocks."""
        return len(self._table)

    def _check(self, logical_block: int) -> None:
        if not 0 <= logical_block < self.n_logical_blocks:
            raise IndexError(
                f"logical block {logical_block} outside "
                f"[0, {self.n_logical_blocks})"
            )
