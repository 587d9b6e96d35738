"""Unit tests for the LSM tree state machine."""

import pytest

from repro.kv import LSMTree, MemoryPatchStore, TieredCompactionPolicy
from repro.kv.common import PlaceholderValue


def small_tree(**kwargs):
    kwargs.setdefault("memtable_bytes", 64)
    kwargs.setdefault("policy", TieredCompactionPolicy(fanout=2, max_levels=2))
    return LSMTree(**kwargs)


def drive(tree, backend, frozen):
    """Store a frozen patch and register it (what a driver does)."""
    if frozen is not None:
        handle = backend.store(frozen.patch)
        tree.register_patch(frozen, handle)


def compact_fully(tree, backend, max_patch_bytes=8 << 20):
    from repro.kv.compaction import drain_compactions

    drain_compactions(
        tree, backend.load, backend.store, backend.free, max_patch_bytes
    )


def lookup_value(tree, backend, key):
    kind, payload = tree.get(key)
    if kind == "value":
        return payload
    if kind == "miss":
        return None
    found, value = backend.load(payload.handle).get(key)
    assert found
    return value


def test_get_from_memtable():
    tree = small_tree()
    assert tree.put("k", b"v") is None
    assert tree.get("k") == ("value", b"v")


def test_get_miss():
    tree = small_tree()
    assert tree.get("nope") == ("miss", None)


def test_put_returns_frozen_patch_when_container_full():
    tree = small_tree(memtable_bytes=16)
    assert tree.put("a", b"12345678") is None  # 9 bytes
    frozen = tree.put("b", b"12345678")  # would overflow -> freeze
    assert frozen is not None
    assert list(frozen.patch.keys()) == ["a"]
    assert tree.n_pending == 1
    assert tree.flushes == 1


def test_pending_patch_still_readable():
    tree = small_tree(memtable_bytes=16)
    tree.put("a", b"12345678")
    frozen = tree.put("b", b"12345678")
    assert frozen is not None
    assert tree.get("a") == ("value", b"12345678")  # from pending


def test_register_patch_moves_reads_to_lookup():
    tree = small_tree(memtable_bytes=16)
    backend = MemoryPatchStore()
    tree.put("a", b"12345678")
    drive(tree, backend, tree.put("b", b"12345678"))
    kind, lookup = tree.get("a")
    assert kind == "lookup"
    assert lookup.size == 8
    assert lookup_value(tree, backend, "a") == b"12345678"


def test_register_unknown_patch_rejected():
    tree = small_tree()
    backend = MemoryPatchStore()
    tree.put("a", b"1")
    frozen = tree.flush()
    drive(tree, backend, frozen)
    with pytest.raises(ValueError):
        tree.register_patch(frozen, 99)


def test_flush_on_empty_returns_none():
    tree = small_tree()
    assert tree.flush() is None


def test_wal_protects_unflushed_data():
    tree = small_tree(memtable_bytes=1024)
    tree.put("a", b"1")
    tree.delete("b")
    from repro.kv import MemTable

    rebuilt = MemTable(1024)
    tree.wal.replay(rebuilt)
    assert rebuilt.get("a") == (True, b"1")
    assert len(tree.wal) == 2


def test_wal_truncated_at_freeze():
    tree = small_tree(memtable_bytes=16)
    tree.put("a", b"12345678")
    tree.put("b", b"12345678")  # freezes "a"
    assert tree.wal.truncations == 1
    assert len(tree.wal) == 1  # only the post-freeze put


def test_tombstone_resolved_from_metadata_without_read():
    tree = small_tree(memtable_bytes=16)
    backend = MemoryPatchStore()
    tree.put("a", b"12345678")
    drive(tree, backend, tree.flush())
    tree.delete("a")
    drive(tree, backend, tree.flush())
    assert tree.get("a") == ("miss", None)


def test_newest_run_wins_after_out_of_order_registration():
    """If an older frozen patch is registered *after* a newer one, the
    key map must still point at the newer data."""
    tree = small_tree(memtable_bytes=1024)
    backend = MemoryPatchStore()
    tree.put("k", b"old")
    older = tree.flush()
    tree.put("k", b"new")
    newer = tree.flush()
    drive(tree, backend, newer)
    drive(tree, backend, older)  # late registration of older data
    assert lookup_value(tree, backend, "k") == b"new"


def test_compaction_merges_runs_and_frees_handles():
    tree = small_tree(memtable_bytes=16)
    backend = MemoryPatchStore()
    for tag in range(4):
        tree.put(f"k{tag}", b"12345678")
        drive(tree, backend, tree.flush())
    assert tree.n_runs == 4
    compact_fully(tree, backend)
    assert tree.n_runs < 4
    assert tree.compactions >= 1
    for tag in range(4):
        assert lookup_value(tree, backend, f"k{tag}") == b"12345678"


def test_compaction_preserves_newest_value():
    tree = small_tree(memtable_bytes=1024)
    backend = MemoryPatchStore()
    for version in range(4):
        tree.put("hot", f"v{version}".encode())
        drive(tree, backend, tree.flush())
    compact_fully(tree, backend)
    assert lookup_value(tree, backend, "hot") == b"v3"


def test_tombstones_dropped_only_at_final_level():
    tree = small_tree(
        memtable_bytes=1024,
        policy=TieredCompactionPolicy(fanout=2, max_levels=2),
    )
    backend = MemoryPatchStore()
    tree.put("a", b"live")
    drive(tree, backend, tree.flush())
    tree.delete("a")
    drive(tree, backend, tree.flush())
    compact_fully(tree, backend)
    # Merge landed on the final level with no survivors -> tombstone gone.
    assert tree.get("a") == ("miss", None)
    assert "a" not in tree._key_map


def test_write_amplification_counts_compaction_traffic():
    tree = small_tree(memtable_bytes=16)
    backend = MemoryPatchStore()
    for tag in range(6):
        tree.put(f"k{tag}", b"12345678")
        drive(tree, backend, tree.flush())
        compact_fully(tree, backend)
    assert tree.write_amplification > 1.0
    assert tree.bytes_compaction_read > 0


def test_scan_plan_covers_memory_and_runs():
    tree = small_tree(memtable_bytes=32)
    backend = MemoryPatchStore()
    tree.put("a", b"12345678")
    drive(tree, backend, tree.flush())
    tree.put("b", b"12345678")
    memory_items, runs = tree.scan_plan("a", "z")
    assert [k for k, _ in memory_items] == ["b"]
    assert len(runs) == 1
    memory_items, runs = tree.scan_plan("c", "z")
    assert memory_items == [] and runs == []


def test_apply_compaction_validates_task():
    from repro.kv.compaction import CompactionTask

    from repro.kv import Patch

    tree = small_tree()
    with pytest.raises(ValueError):
        tree.apply_compaction(
            CompactionTask(level=0, run_ids=(99,)), [Patch([])], [0]
        )
    with pytest.raises(ValueError):
        tree.apply_compaction(
            CompactionTask(level=0, run_ids=(99,)), [], []
        )


def test_placeholder_values_work_end_to_end():
    tree = small_tree(memtable_bytes=10_000)
    backend = MemoryPatchStore()
    tree.put("big", PlaceholderValue(4096))
    drive(tree, backend, tree.flush())
    kind, lookup = tree.get("big")
    assert kind == "lookup"
    assert lookup.size == 4096
