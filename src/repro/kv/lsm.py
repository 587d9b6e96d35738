"""The LSM tree: CCDB's per-slice data structure (paper S2.4).

Design constraints lifted straight from the paper:

* the write container (memtable) holds at most 8 MB; full containers
  freeze into patches that are stored in exactly one SDF write unit;
* *all* KV metadata lives in DRAM, so a client read costs **one** device
  read: the tree keeps a global ``key -> run`` map plus per-run offset
  indexes;
* patches experience multiple merge-sorts (tiered compaction) on their
  way into the final large log.

The tree performs no I/O itself.  ``put`` may return a frozen
:class:`~repro.kv.patch.Patch` the caller must persist;
``pick_compaction`` returns merge work for the caller to execute.  This
lets the same state machine drive the synchronous in-memory store, the
functional SDF store, and the fully timed cluster simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kv.common import TOMBSTONE, sizeof_key, sizeof_value
from repro.kv.compaction import (
    CompactionTask,
    TieredCompactionPolicy,
    merge_patches,
)
from repro.kv.memtable import MemTable
from repro.kv.patch import Patch
from repro.kv.wal import PUT, WriteAheadLog
from repro.sim.units import MIB


@dataclass
class Run:
    """One immutable sorted run persisted on storage."""

    run_id: int
    level: int
    handle: object
    freeze_token: int
    nbytes: int
    n_items: int
    #: key -> (byte offset of value within the patch, value size,
    #: is_tombstone).  This is the DRAM metadata of S2.4.
    index: Dict[object, Tuple[int, int, bool]]


@dataclass(frozen=True)
class Lookup:
    """Everything a driver needs to fetch one value with one read."""

    run_id: int
    handle: object
    offset: int
    size: int


class FrozenPatch:
    """A patch flushed from the memtable but not yet registered."""

    __slots__ = ("token", "patch")

    def __init__(self, token: int, patch: Patch):
        self.token = token
        self.patch = patch


class LSMTree:
    """A single slice's log-structured merge tree."""

    def __init__(
        self,
        memtable_bytes: int = 8 * MIB,
        policy: Optional[TieredCompactionPolicy] = None,
        enable_wal: bool = True,
        durable_wal: bool = False,
    ):
        if durable_wal and not enable_wal:
            raise ValueError("durable_wal requires enable_wal")
        self.policy = policy if policy is not None else TieredCompactionPolicy()
        self.memtable = MemTable(memtable_bytes)
        self.wal: Optional[WriteAheadLog] = (
            WriteAheadLog() if enable_wal else None
        )
        #: Durable-truncation mode: the WAL keeps records for frozen
        #: patches until :meth:`register_patch` confirms them on storage,
        #: so a crash between freeze and store loses nothing (needed by
        #: the crash/recovery path; off by default to preserve the
        #: original truncate-at-freeze behaviour).
        self.durable_wal = durable_wal
        self._frozen_order: List[int] = []  # tokens awaiting durability
        self._durable_tokens: set = set()
        self._pending: List[FrozenPatch] = []  # frozen, awaiting storage
        #: token -> storage handle for patches whose store completed
        #: before an earlier freeze's store did (awaiting in-order
        #: registration).
        self._staged_handles: Dict[int, object] = {}
        self._runs: Dict[int, Run] = {}
        self._levels: List[List[int]] = [[] for _ in range(self.policy.max_levels)]
        self._key_map: Dict[object, int] = {}
        self._next_token = 0
        self._next_run_id = 0
        #: Run ids produced by the most recent final-level self-merge.
        self._final_merge_family: set = set()
        # Statistics (drive Figure 14's read/write split).
        self.flushes = 0
        self.compactions = 0
        self.bytes_flushed = 0
        self.bytes_compaction_read = 0
        self.bytes_compaction_written = 0

    # -- writes ------------------------------------------------------------------
    def put(self, key, value) -> Optional[FrozenPatch]:
        """Insert a pair.  If the container was full, returns the frozen
        patch that the caller must store and then ``register_patch``."""
        frozen = None
        if not self.memtable.fits(key, value) and not self.memtable.is_empty:
            frozen = self._freeze()
        if self.wal is not None:
            if value is TOMBSTONE:
                self.wal.append_delete(key)
            else:
                self.wal.append_put(key, value)
        self.memtable.put(key, value)
        return frozen

    def delete(self, key) -> Optional[FrozenPatch]:
        """Record a deletion (tombstone insert)."""
        return self.put(key, TOMBSTONE)

    def flush(self) -> Optional[FrozenPatch]:
        """Force-freeze the current container (e.g. at shutdown)."""
        if self.memtable.is_empty:
            return None
        return self._freeze()

    def _freeze(self) -> FrozenPatch:
        patch = Patch.from_memtable(self.memtable)
        frozen = FrozenPatch(self._next_token, patch)
        self._next_token += 1
        self._pending.append(frozen)
        self.memtable.clear()
        if self.wal is not None:
            if self.durable_wal:
                self.wal.mark(frozen.token)
                self._frozen_order.append(frozen.token)
            else:
                self.wal.truncate()
        self.flushes += 1
        self.bytes_flushed += patch.nbytes
        return frozen

    def register_patch(self, frozen: FrozenPatch, handle) -> Optional[Run]:
        """Record that a frozen patch now lives on storage at ``handle``.

        Registration is applied in **freeze order**.  Concurrent flushes
        can complete out of order (one stalled by a device fault or a
        busy channel), but registering a later patch while an earlier
        one is still pending would let the older pending copy shadow the
        newer registered run on reads -- ``get`` checks pending patches
        first.  An early arrival is therefore staged and installed once
        its predecessors land.  Returns the :class:`Run` when this
        patch was installed by this call, ``None`` when it was staged.
        """
        if frozen not in self._pending:
            raise ValueError("patch is not pending (already registered?)")
        self._staged_handles[frozen.token] = handle
        installed = None
        # _pending is append-ordered by freeze, so its head gates
        # everything frozen after it.
        while self._pending and self._pending[0].token in self._staged_handles:
            head = self._pending.pop(0)
            run = self._install_run(head, self._staged_handles.pop(head.token))
            if head is frozen:
                installed = run
        return installed

    def _install_run(self, frozen: FrozenPatch, handle) -> Run:
        run = self._make_run(
            level=0, handle=handle, token=frozen.token, patch=frozen.patch
        )
        self._insert_newest_first(0, run)
        self._index_run(run, frozen.patch)
        if self.durable_wal and self.wal is not None:
            # Truncate in freeze order only: a later patch landing first
            # must not drop WAL records protecting an earlier one still
            # in flight.
            self._durable_tokens.add(frozen.token)
            while (
                self._frozen_order
                and self._frozen_order[0] in self._durable_tokens
            ):
                token = self._frozen_order.pop(0)
                self._durable_tokens.discard(token)
                self.wal.truncate_through(token)
        return run

    def _insert_newest_first(self, level: int, run: Run) -> None:
        """Insert keeping the level sorted by descending freeze token.

        Concurrent flushes can complete out of order (one stalled by a
        device fault or a slow channel), so registration order is not
        write order.  Compaction resolves duplicate keys by level-list
        position, so the list must be ordered by freeze token, not by
        arrival.
        """
        runs = self._levels[level]
        pos = 0
        while (
            pos < len(runs)
            and self._runs[runs[pos]].freeze_token > run.freeze_token
        ):
            pos += 1
        runs.insert(pos, run.run_id)

    def _make_run(self, level: int, handle, token: int, patch: Patch) -> Run:
        index = {}
        offset = 0
        for key, value in patch.items():
            offset += sizeof_key(key)
            size = sizeof_value(value)
            index[key] = (offset, size, value is TOMBSTONE)
            offset += size
        run = Run(
            run_id=self._next_run_id,
            level=level,
            handle=handle,
            freeze_token=token,
            nbytes=patch.nbytes,
            n_items=len(patch),
            index=index,
        )
        self._next_run_id += 1
        self._runs[run.run_id] = run
        return run

    def _index_run(self, run: Run, patch: Patch) -> None:
        """Point the global key map at this run where it is the newest."""
        for key in patch.keys():
            current = self._key_map.get(key)
            if current is not None:
                if self._runs[current].freeze_token > run.freeze_token:
                    continue
            self._key_map[key] = run.run_id

    # -- migration (snapshot transfer) --------------------------------------------
    def empty_like(self) -> "LSMTree":
        """A new, empty LSM with this one's memtable size and WAL mode
        (and the default compaction policy): the tree a migration twin
        or a split/merge child starts from."""
        return LSMTree(
            memtable_bytes=self.memtable.capacity_bytes,
            enable_wal=self.wal is not None,
            durable_wal=self.durable_wal,
        )

    def runs_snapshot(self) -> List[Run]:
        """The registered runs, oldest freeze first.

        This is the unit of the control plane's snapshot transfer: each
        run's patch is read from the source storage, shipped over the
        network, stored on the target and re-installed there with
        :meth:`adopt_run`.  Oldest-first order means a partially adopted
        prefix is always a consistent (if stale) view.
        """
        return sorted(self._runs.values(), key=lambda run: run.freeze_token)

    def adopt_run(self, patch: Patch, handle, level: int, freeze_token: int) -> Run:
        """Install a run transferred from another node.

        The run keeps its source ``freeze_token`` so newest-wins
        shadowing resolves identically on the target; future local
        freezes are pushed past the adopted tokens so they stay newer.
        """
        if level < 0 or level >= self.policy.max_levels:
            raise ValueError(f"level {level} outside the level range")
        run = self._make_run(
            level=level, handle=handle, token=freeze_token, patch=patch
        )
        self._insert_newest_first(level, run)
        self._index_run(run, patch)
        self._next_token = max(self._next_token, freeze_token + 1)
        return run

    # -- crash / recovery --------------------------------------------------------
    def lose_volatile(self) -> int:
        """Simulate power loss: drop everything DRAM-resident that the
        WAL protects -- the memtable and any frozen-but-unstored patches.

        Registered runs survive (they are on storage) and so does their
        DRAM index (rebuildable from on-storage patch headers; we model
        that rebuild as free).  Returns the number of lost pending
        patches.  With ``durable_wal`` their records are still in the
        WAL, so :meth:`recover` loses nothing.
        """
        lost = len(self._pending)
        self.memtable.clear()
        self._pending.clear()
        self._staged_handles.clear()
        self._frozen_order.clear()
        self._durable_tokens.clear()
        return lost

    def recover(self):
        """Replay the WAL after :meth:`lose_volatile`.

        Re-applies every surviving record through :meth:`put`, which may
        re-freeze full containers; the caller must store and
        ``register_patch`` each returned patch, exactly as for live
        writes.  Returns ``(n_records, refrozen_patches)``.
        """
        if self.wal is None:
            return 0, []
        records = self.wal.records()
        self.wal.reset()
        refrozen = []
        for kind, key, value in records:
            if kind == PUT:
                frozen = self.put(key, value)
            else:
                frozen = self.put(key, TOMBSTONE)
            if frozen is not None:
                refrozen.append(frozen)
        return len(records), refrozen

    # -- reads -------------------------------------------------------------------
    def get(self, key):
        """Resolve a key against DRAM state.

        Returns ``("value", v)`` when the value is still in memory,
        ``("lookup", Lookup)`` when one device read is needed, or
        ``("miss", None)``.
        """
        found, value = self.memtable.get(key)
        if found:
            if value is TOMBSTONE:
                return ("miss", None)
            return ("value", value)
        for frozen in sorted(self._pending, key=lambda f: -f.token):
            found, value = frozen.patch.get(key)
            if found:
                if value is TOMBSTONE:
                    return ("miss", None)
                return ("value", value)
        run_id = self._key_map.get(key)
        if run_id is None:
            return ("miss", None)
        run = self._runs[run_id]
        offset, size, is_tombstone = run.index[key]
        if is_tombstone:
            return ("miss", None)
        return ("lookup", Lookup(run_id, run.handle, offset, size))

    def scan_plan(self, lo, hi):
        """What a range scan must read.

        Returns ``(memory_items, run_list)``: the in-memory pairs in the
        range, plus the runs (newest first) whose patches the driver
        must read in full and merge.
        """
        memory_items = [
            (key, value)
            for key, value in self.memtable.items_sorted()
            if lo <= key < hi
        ]
        for frozen in sorted(self._pending, key=lambda f: -f.token):
            memory_items.extend(frozen.patch.range_items(lo, hi))
        run_ids = set()
        for key, run_id in self._key_map.items():
            if lo <= key < hi:
                run_ids.add(run_id)
        runs = sorted(
            (self._runs[run_id] for run_id in run_ids),
            key=lambda run: -run.freeze_token,
        )
        return memory_items, runs

    # -- compaction -----------------------------------------------------------------
    def pick_compaction(self) -> Optional[CompactionTask]:
        """Merge work, if the policy wants any (run ids newest first).

        A same-level (final-log) re-merge is only allowed when at least
        one run arrived since the previous such merge -- re-merging a
        level made entirely of the last merge's own outputs would churn
        the same data forever.
        """
        run_bytes = {
            run_id: run.nbytes for run_id, run in self._runs.items()
        }
        task = self.policy.plan(self._levels, run_bytes)
        if task is not None and self.policy.output_level(task) == task.level:
            if set(task.run_ids) <= self._final_merge_family:
                return None
        return task

    def run_handles(self, task: CompactionTask) -> List[object]:
        """Storage handles for a task's input runs (newest first)."""
        return [self._runs[run_id].handle for run_id in task.run_ids]

    def merge_for_task(self, task: CompactionTask, patches: List[Patch]) -> Patch:
        """Merge loaded input patches (same order as ``task.run_ids``)."""
        output_level = self.policy.output_level(task)
        final_level = self.policy.max_levels - 1
        # A tombstone may only be dropped when nothing older can
        # resurrect the key: the merge lands on the final level and
        # consumes every run already there.
        survivors = [
            run_id
            for run_id in self._levels[final_level]
            if run_id not in task.run_ids
        ]
        drop = output_level == final_level and not survivors
        self.bytes_compaction_read += sum(p.nbytes for p in patches)
        return merge_patches(patches, drop_tombstones=drop)

    def apply_compaction(
        self,
        task: CompactionTask,
        parts: Sequence[Patch],
        new_handles: Sequence,
    ) -> List[object]:
        """Install the merge result (already split into <= write-unit
        patches, one handle each); returns the replaced runs' handles
        (now free for the driver to release/erase)."""
        if len(parts) != len(new_handles) or not parts:
            raise ValueError("need one handle per output patch")
        for run_id in task.run_ids:
            if run_id not in self._runs or run_id not in self._levels[task.level]:
                raise ValueError(f"run {run_id} is not at level {task.level}")
        output_level = self.policy.output_level(task)
        newest_token = max(
            self._runs[run_id].freeze_token for run_id in task.run_ids
        )
        replaced = set(task.run_ids)
        same_level_merge = output_level == task.level
        new_run_ids: List[int] = []
        new_run_of_key: Dict[object, int] = {}
        for part, handle in zip(parts, new_handles):
            new_run = self._make_run(
                level=output_level, handle=handle, token=newest_token,
                patch=part,
            )
            self._insert_newest_first(output_level, new_run)
            new_run_ids.append(new_run.run_id)
            for key in part.keys():
                new_run_of_key[key] = new_run.run_id
            self.bytes_compaction_written += part.nbytes
        if same_level_merge:
            self._final_merge_family = set(new_run_ids)
        # Re-point (or drop) every key that lived in a replaced run.
        for key in list(self._key_map):
            if self._key_map[key] in replaced:
                new_run_id = new_run_of_key.get(key)
                if new_run_id is not None:
                    self._key_map[key] = new_run_id
                else:
                    del self._key_map[key]  # tombstone dropped at max level
        freed = []
        for run_id in task.run_ids:
            self._levels[task.level].remove(run_id)
            freed.append(self._runs.pop(run_id).handle)
        self.compactions += 1
        return freed

    # -- introspection ----------------------------------------------------------------
    @property
    def n_runs(self) -> int:
        """Number of runs involved/stored."""
        return len(self._runs)

    @property
    def n_pending(self) -> int:
        """Frozen patches awaiting storage registration."""
        return len(self._pending)

    def write_pressure(self, config) -> str:
        """``"ok"``/``"stall"``/``"stop"`` against a
        :class:`~repro.qos.config.WriteStallConfig`.

        The pressure signals are the flush backlog (frozen patches not
        yet durable on storage) and the level-0 run count (patches
        flushed but not yet merged down) -- the same pair RocksDB keys
        its write stalls on.  ``stop`` dominates ``stall``.
        """
        pending = self.n_pending
        l0_runs = len(self._levels[0])
        if (
            config.stop_pending_patches is not None
            and pending >= config.stop_pending_patches
        ) or (
            config.stop_l0_runs is not None
            and l0_runs >= config.stop_l0_runs
        ):
            return "stop"
        if (
            config.stall_pending_patches is not None
            and pending >= config.stall_pending_patches
        ) or (
            config.stall_l0_runs is not None
            and l0_runs >= config.stall_l0_runs
        ):
            return "stall"
        return "ok"

    def level_sizes(self) -> List[int]:
        """Run count per level."""
        return [len(level) for level in self._levels]

    @property
    def write_amplification(self) -> float:
        """(flush + compaction writes) / flush writes."""
        if self.bytes_flushed == 0:
            return 1.0
        return (
            self.bytes_flushed + self.bytes_compaction_written
        ) / self.bytes_flushed

    def __repr__(self):
        return (
            f"LSMTree(runs={self.n_runs}, pending={self.n_pending}, "
            f"levels={self.level_sizes()})"
        )
