"""Wear leveling: free-block allocation.

**Dynamic wear leveling** (what SDF implements, S2.1): when a write
needs a fresh block, pick the free block with the smallest erase count.
The paper stores the erase-count table in banked SRAM so the minimum
search can proceed in parallel; functionally this is a min-heap.
Static wear leveling -- migrating cold data out of low-wear blocks --
is what SDF deliberately *omits* (S2.2), and no FTL here runs it.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class FreeBlockPool:
    """Min-erase-count allocator over a set of free blocks.

    Erase counts are tracked internally: blocks re-enter the pool via
    :meth:`release` after an erase, which bumps their count.
    """

    def __init__(self, blocks: Iterable[int]):
        self._erase_counts: Dict[int, int] = {}
        self._heap: List[Tuple[int, int]] = []  # (erase_count, block)
        self._free: set = set()
        #: Optional wear hook ``fn(block, new_erase_count)`` invoked on
        #: every recorded erase; used by the observability layer to keep
        #: live wear metrics.  None (the default) costs one check.
        self.on_erase: Optional[Callable[[int, int], None]] = None
        for block in blocks:
            self._erase_counts[block] = 0
            self._free.add(block)
            heapq.heappush(self._heap, (0, block))

    def __len__(self) -> int:
        return len(self._free)

    def __contains__(self, block: int) -> bool:
        return block in self._free

    def erase_count(self, block: int) -> int:
        """Erase count of the given block."""
        return self._erase_counts[block]

    def allocate(self) -> int:
        """Pop the free block with the lowest erase count."""
        while self._heap:
            count, block = heapq.heappop(self._heap)
            if block in self._free and count == self._erase_counts[block]:
                self._free.discard(block)
                return block
        raise IndexError("no free blocks available")

    def release(self, block: int, erased: bool = True) -> None:
        """Return a block to the pool (after erasing it, normally)."""
        if block in self._free:
            raise ValueError(f"block {block} is already free")
        if block not in self._erase_counts:
            # A block entering the pool for the first time (e.g. a BBM
            # replacement brought into service late).
            self._erase_counts[block] = 0
        if erased:
            self._erase_counts[block] += 1
            if self.on_erase is not None:
                self.on_erase(block, self._erase_counts[block])
        self._free.add(block)
        heapq.heappush(self._heap, (self._erase_counts[block], block))

    def retire(self, block: int) -> None:
        """Permanently remove a (bad) block from circulation."""
        self._free.discard(block)
        self._erase_counts.pop(block, None)

    def wear_spread(self) -> int:
        """max - min erase count over every block this pool has seen."""
        if not self._erase_counts:
            return 0
        counts = self._erase_counts.values()
        return max(counts) - min(counts)
