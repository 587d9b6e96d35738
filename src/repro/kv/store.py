"""CCDBStore: the synchronous KV facade.

Binds an :class:`~repro.kv.lsm.LSMTree` to a patch-storage backend and
drives flushes and compactions to completion on every call.  Two
backends ship:

* :class:`MemoryPatchStore` -- patches in a dict (pure functional use);
* :class:`SDFPatchStore` -- patches serialized onto a simulated SDF
  through the user-space block layer, one 8 MB block per patch, which is
  exactly the correspondence the paper engineered.

The timed cluster model (:mod:`repro.cluster`) drives the same LSM state
machine against the same devices but inside simulation processes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.api import SDFSystem
from repro.kv.common import TOMBSTONE
from repro.kv.compaction import TieredCompactionPolicy, drain_compactions
from repro.kv.lsm import LSMTree
from repro.kv.patch import Patch
from repro.sim.units import MIB


class MemoryPatchStore:
    """Patch storage in host memory."""

    def __init__(self):
        self._patches: Dict[int, Patch] = {}
        self._next_handle = 0

    def store(self, patch: Patch) -> int:
        """Store a patch; returns its handle."""
        handle = self._next_handle
        self._next_handle += 1
        self._patches[handle] = patch
        return handle

    def load(self, handle: int) -> Patch:
        """Load a patch by handle."""
        return self._patches[handle]

    def free(self, handle: int) -> None:
        """Release a handle."""
        del self._patches[handle]

    @property
    def n_patches(self) -> int:
        """Patches currently stored."""
        return len(self._patches)


class SDFPatchStore:
    """Patch storage on a simulated SDF (one 8 MB block per patch)."""

    def __init__(self, system: Optional[SDFSystem] = None, **system_kwargs):
        if system is None:
            from repro.core.api import build_sdf_system

            system_kwargs.setdefault("capacity_scale", 0.05)
            system = build_sdf_system(**system_kwargs)
        self.system = system

    def store(self, patch: Patch) -> int:
        """Store a patch; returns its handle."""
        raw = patch.serialize()
        if len(raw) > self.system.block_layer.block_bytes:
            raise ValueError(
                f"serialized patch ({len(raw)} B) exceeds the SDF block"
            )
        return self.system.put(raw)

    def load(self, handle: int) -> Patch:
        """Load a patch by handle."""
        raw = self.system.get(handle)
        return Patch.deserialize(raw)

    def free(self, handle: int) -> None:
        """Release a handle."""
        self.system.delete(handle)

    @property
    def n_patches(self) -> int:
        """Patches currently stored."""
        return self.system.block_layer.stored_blocks


class CCDBStore:
    """A synchronous, compaction-driving KV store."""

    def __init__(
        self,
        backend=None,
        memtable_bytes: int = 8 * MIB,
        policy: Optional[TieredCompactionPolicy] = None,
        enable_wal: bool = True,
        max_patch_bytes: int = 8 * MIB,
    ):
        self.backend = backend if backend is not None else MemoryPatchStore()
        self.lsm = LSMTree(memtable_bytes, policy, enable_wal)
        self.max_patch_bytes = max_patch_bytes

    # -- mutations --------------------------------------------------------------
    def put(self, key, value) -> None:
        """Insert; the returned event fires once accepted."""
        frozen = self.lsm.put(key, value)
        if frozen is not None:
            self._persist(frozen)

    def delete(self, key) -> None:
        """Record a deletion (tombstone insert)."""
        frozen = self.lsm.delete(key)
        if frozen is not None:
            self._persist(frozen)

    def flush(self) -> None:
        """Force the write container onto storage."""
        frozen = self.lsm.flush()
        if frozen is not None:
            self._persist(frozen)

    def _persist(self, frozen) -> None:
        handle = self.backend.store(frozen.patch)
        self.lsm.register_patch(frozen, handle)
        self.compact_pending()

    # -- compaction --------------------------------------------------------------
    def compact_pending(self) -> int:
        """Run every compaction the policy wants; returns merge count."""
        backend = self.backend
        return drain_compactions(
            self.lsm,
            backend.load,
            backend.store,
            backend.free,
            self.max_patch_bytes,
        )

    # -- reads -------------------------------------------------------------------
    def get(self, key, default=None):
        """Remove/fetch; the returned event fires with the result."""
        kind, payload = self.lsm.get(key)
        if kind == "value":
            return payload
        if kind == "miss":
            return default
        patch = self.backend.load(payload.handle)
        found, value = patch.get(key)
        if not found or value is TOMBSTONE:  # pragma: no cover - metadata
            return default  # and storage disagree: treat as miss
        return value

    def __contains__(self, key) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def scan(self, lo, hi) -> Iterator[Tuple[object, object]]:
        """All live pairs with lo <= key < hi, in key order."""
        memory_items, runs = self.lsm.scan_plan(lo, hi)
        view: Dict = {}
        # Overlay oldest to newest so the most recent entry wins: runs
        # (oldest first), then pending patches (older before newer), then
        # the memtable.  ``memory_items`` is ordered memtable first, then
        # pendings newest-first, so reversing it yields exactly the
        # older-to-newer application order.
        for run in reversed(runs):
            patch = self.backend.load(run.handle)
            for key, value in patch.range_items(lo, hi):
                view[key] = value
        for key, value in reversed(memory_items):
            view[key] = value
        for key in sorted(view):
            value = view[key]
            if value is not TOMBSTONE:
                yield key, value

    def __len__(self) -> int:
        """Number of live keys (walks DRAM metadata only)."""
        return sum(1 for _ in self.scan_keys())

    def scan_keys(self) -> Iterator:
        """All live keys, from DRAM metadata (no device reads)."""
        seen = set()
        for key, value in self.lsm.memtable.items_sorted():
            seen.add(key)
            if value is not TOMBSTONE:
                yield key
        for frozen in sorted(self.lsm._pending, key=lambda f: -f.token):
            for key, value in frozen.patch.items():
                if key not in seen:
                    seen.add(key)
                    if value is not TOMBSTONE:
                        yield key
        for key, run_id in self.lsm._key_map.items():
            if key not in seen:
                offset, size, is_tombstone = self.lsm._runs[run_id].index[key]
                if not is_tombstone:
                    yield key
