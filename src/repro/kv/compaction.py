"""Merge-sort compaction (paper S2.4).

"Patches on the storage experience multiple merge-sorts, or multiple
reads and writes, before they are placed in the final large log."  We
implement classic tiered compaction: when a level accumulates ``fanout``
runs they are merge-sorted into one run on the next level.  Each merge
is the paper's compaction traffic: read every input patch, write the
merged patch -- all in 8 MB units on the SDF.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.kv.common import TOMBSTONE
from repro.kv.patch import Patch


@dataclass(frozen=True)
class CompactionTask:
    """A unit of compaction work decided by the policy.

    ``run_ids`` are ordered newest-first; the driver must read these
    runs, call :func:`merge_patches` on their patches (same order), store
    the result, and report back via ``LSMTree.apply_compaction``.
    """

    level: int
    run_ids: tuple

    @property
    def n_runs(self) -> int:
        """Number of runs involved/stored."""
        return len(self.run_ids)


@dataclass
class TieredCompactionPolicy:
    """Merge a level once it holds ``fanout`` runs.

    ``max_patch_bytes`` is the write-unit cap merge outputs are split
    at; a final-level merge whose output would be just as many patches
    as its input (all inputs already full of live data) is pointless
    churn and is never planned.
    """

    fanout: int = 4
    max_levels: int = 4
    max_patch_bytes: int = 8 * 1024 * 1024

    def __post_init__(self):
        if self.fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {self.fanout}")
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if self.max_patch_bytes < 1:
            raise ValueError("max_patch_bytes must be positive")

    def plan(
        self,
        levels: Sequence[Sequence[int]],
        run_bytes: Optional[dict] = None,
    ) -> Optional[CompactionTask]:
        """``levels[i]`` = run ids at level i, newest first.

        ``run_bytes`` (run id -> live bytes), when available, lets the
        policy prove a final-level re-merge would make progress.
        """
        for level, runs in enumerate(levels):
            final = level == self.max_levels - 1
            threshold = self.fanout * 2 if final else self.fanout
            if len(runs) < threshold:
                continue
            if final and run_bytes is not None:
                total = sum(run_bytes[run_id] for run_id in runs)
                min_outputs = max(
                    1, -(-total // self.max_patch_bytes)  # ceil
                )
                if min_outputs >= len(runs):
                    continue  # cannot shrink the final log: skip
            return CompactionTask(level=level, run_ids=tuple(runs))
        return None

    def output_level(self, task: CompactionTask) -> int:
        """Level where the task's merge output lands."""
        return min(task.level + 1, self.max_levels - 1)


def merge_patches(
    patches_newest_first: Sequence[Patch], drop_tombstones: bool = False
) -> Patch:
    """K-way merge; for duplicate keys the newest patch wins."""
    if not patches_newest_first:
        raise ValueError("nothing to merge")
    heap = []
    iterators = []
    for age, patch in enumerate(patches_newest_first):
        iterator = iter(patch.items())
        iterators.append(iterator)
        first = next(iterator, None)
        if first is not None:
            heapq.heappush(heap, (first[0], age, first[1]))
    merged = []
    while heap:
        key, age, value = heapq.heappop(heap)
        # Collect every same-key entry; the smallest age (newest) wins.
        best_age, best_value = age, value
        while heap and heap[0][0] == key:
            _, other_age, other_value = heapq.heappop(heap)
            if other_age < best_age:
                best_age, best_value = other_age, other_value
            nxt = next(iterators[other_age], None)
            if nxt is not None:
                heapq.heappush(heap, (nxt[0], other_age, nxt[1]))
        nxt = next(iterators[age], None)
        if nxt is not None:
            heapq.heappush(heap, (nxt[0], age, nxt[1]))
        if best_value is TOMBSTONE and drop_tombstones:
            continue
        merged.append((key, best_value))
    return Patch(merged)


def split_patch(patch: Patch, max_bytes: int) -> List[Patch]:
    """Split a (possibly oversized) merge output into <= ``max_bytes``
    patches -- merge results larger than the 8 MB write unit are written
    as several consecutive patches of the final log."""
    if max_bytes < 1:
        raise ValueError("max_bytes must be positive")
    parts: List[Patch] = []
    current: List = []
    current_bytes = 0
    from repro.kv.common import sizeof_key, sizeof_value

    for key, value in patch.items():
        entry = sizeof_key(key) + sizeof_value(value)
        if entry > max_bytes:
            raise ValueError(
                f"single entry of {entry} bytes cannot fit a "
                f"{max_bytes}-byte patch"
            )
        if current and current_bytes + entry > max_bytes:
            parts.append(Patch(current))
            current, current_bytes = [], 0
        current.append((key, value))
        current_bytes += entry
    if current or not parts:
        parts.append(Patch(current))
    return parts


def drain_compactions(lsm, load, store, free, max_patch_bytes: int) -> int:
    """Run every compaction ``lsm``'s policy wants, synchronously,
    through the storage's immediate ``load(handle) -> Patch``,
    ``store(patch) -> handle`` and ``free(handle)``; merge outputs are
    split at ``max_patch_bytes``.  Returns the number of merges run."""
    merges = 0
    while True:
        task = lsm.pick_compaction()
        if task is None:
            return merges
        patches = [load(handle) for handle in lsm.run_handles(task)]
        merged = lsm.merge_for_task(task, patches)
        parts = split_patch(merged, max_patch_bytes)
        new_handles = [store(part) for part in parts]
        for freed in lsm.apply_compaction(task, parts, new_handles):
            free(freed)
        merges += 1
