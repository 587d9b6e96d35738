"""Unit tests for FreeBlockPool, BadBlockManager, GC."""

import numpy as np
import pytest

from repro.ftl import (
    BadBlockManager,
    FreeBlockPool,
    GreedyGarbageCollector,
)


def test_pool_allocates_min_wear_first():
    pool = FreeBlockPool([1, 2, 3])
    first = pool.allocate()
    pool.release(first)  # erase count 1 now
    # The next two allocations must be the never-erased blocks.
    second = pool.allocate()
    third = pool.allocate()
    assert {second, third} == {1, 2, 3} - {first}
    assert pool.allocate() == first  # the worn one comes last


def test_pool_membership_and_len():
    pool = FreeBlockPool([5, 6])
    assert len(pool) == 2 and 5 in pool
    block = pool.allocate()
    assert len(pool) == 1 and block not in pool


def test_pool_exhaustion_raises():
    pool = FreeBlockPool([1])
    pool.allocate()
    with pytest.raises(IndexError):
        pool.allocate()


def test_pool_double_release_rejected():
    pool = FreeBlockPool([1])
    with pytest.raises(ValueError):
        pool.release(1)


def test_pool_release_without_erase_keeps_count():
    pool = FreeBlockPool([1])
    block = pool.allocate()
    pool.release(block, erased=False)
    assert pool.erase_count(block) == 0


def test_pool_retire_removes_block():
    pool = FreeBlockPool([1, 2])
    pool.retire(1)
    assert len(pool) == 1
    assert pool.allocate() == 2


def test_pool_wear_spread():
    pool = FreeBlockPool([1, 2])
    block = pool.allocate()
    pool.release(block)  # that block now has one more erase than the other
    assert pool.wear_spread() == 1


def test_pool_wear_stays_balanced_over_many_cycles():
    """Allocate-release churn must keep erase counts within 1 of each
    other -- the dynamic-wear-leveling guarantee."""
    pool = FreeBlockPool(range(10))
    for _ in range(500):
        block = pool.allocate()
        pool.release(block)
    assert pool.wear_spread() <= 1


def test_bad_block_manager():
    bbm = BadBlockManager(factory_bad=[3, 7])
    assert bbm.is_bad(3) and not bbm.is_bad(4)
    bbm.mark_grown_bad(4)
    assert bbm.is_bad(4)
    assert bbm.factory_bad == [3, 7]
    assert bbm.grown_bad == [4]
    assert bbm.n_bad == 3
    assert bbm.usable(range(8)) == [0, 1, 2, 5, 6]
    with pytest.raises(ValueError):
        bbm.mark_grown_bad(3)


def test_greedy_gc_picks_fewest_valid():
    gc = GreedyGarbageCollector()
    valid = np.array([5, 0, 3, 9, 1], dtype=np.int32)
    assert gc.select_victim(valid, [0, 2, 3, 4]) == 4
    assert gc.select_victim(valid, [0, 3]) == 0
    assert gc.select_victim(valid, []) is None
    assert gc.victims_selected == 2
