"""Unit tests for the node storage adapters in isolation."""

from dataclasses import replace

import pytest

from repro.cluster import ConventionalNodeStorage, SDFNodeStorage
from repro.core.api import build_sdf_system
from repro.devices import build_device, HUAWEI_GEN3_SPEC
from repro.kv import Patch, PlaceholderValue
from repro.kv.lsm import Lookup
from repro.sim import Simulator


def sdf_storage():
    system = build_sdf_system(capacity_scale=0.008, n_channels=2)
    return SDFNodeStorage(system.block_layer), system


def conventional_storage():
    """An 8-channel Gen3 (6 data + 2 parity): the adapter's extent
    bookkeeping is what these tests exercise, and filling every extent
    of the 44-channel board costs ~490k simulated page writes."""
    sim = Simulator()
    spec = replace(HUAWEI_GEN3_SPEC, n_channels=8, parity_group_size=4)
    device = build_device(
        "conventional", sim, spec=spec, capacity_scale=0.008, store_data=True
    )
    return ConventionalNodeStorage(device), sim


def sample_patch(n=8, size=4096):
    return Patch([(f"k{i:02d}", PlaceholderValue(size)) for i in range(n)])


def run(sim, gen):
    return sim.run(until=sim.process(gen))


def test_sdf_store_and_read_value():
    storage, system = sdf_storage()
    patch = sample_patch()
    handle = run(system.sim, storage.store_patch(patch))
    # Value of k03: offset = 3 * (3 + 4096) + 3 (its key).
    lookup = Lookup(0, handle, 3 * 4099 + 3, 4096)
    value = run(system.sim, storage.read_value(lookup, "k03"))
    assert value == PlaceholderValue(4096)


def test_sdf_read_patch_roundtrip():
    storage, system = sdf_storage()
    patch = sample_patch()
    handle = run(system.sim, storage.store_patch(patch))
    loaded = run(system.sim, storage.read_patch(handle))
    assert loaded is patch  # object storage: same patch reference


def test_sdf_free_patch_recycles_block():
    storage, system = sdf_storage()
    handle = run(system.sim, storage.store_patch(sample_patch()))
    assert system.block_layer.stored_blocks == 1
    run(system.sim, storage.free_patch(handle))
    assert system.block_layer.stored_blocks == 0


def test_sdf_functional_paths_cost_no_time():
    storage, system = sdf_storage()
    handle = storage.functional_store(sample_patch())
    assert system.sim.now == 0
    assert storage.functional_load(handle).get("k00")[0]
    storage.functional_free(handle)
    assert system.sim.now == 0


def test_sdf_oversized_patch_rejected():
    storage, system = sdf_storage()
    huge = Patch([("k", PlaceholderValue(9 << 20))])
    with pytest.raises(ValueError):
        run(system.sim, storage.store_patch(huge))


def test_conventional_store_read_free_cycle():
    storage, sim = conventional_storage()
    patch = sample_patch()
    handle = run(sim, storage.store_patch(patch))
    assert run(sim, storage.read_patch(handle)) is patch
    lookup = Lookup(0, handle, 4099 + 3, 4096)
    assert run(sim, storage.read_value(lookup, "k01")) == PlaceholderValue(4096)
    run(sim, storage.free_patch(handle))


def test_conventional_extent_reuse():
    storage, sim = conventional_storage()
    first = run(sim, storage.store_patch(sample_patch()))
    run(sim, storage.free_patch(first))
    # Keep allocating: the freed extent eventually comes back around.
    handles = [
        run(sim, storage.store_patch(sample_patch()))
        for _ in range(len(storage._free_extents))
    ]
    assert first in handles


def test_conventional_exhaustion_raises():
    storage, sim = conventional_storage()
    n = len(storage._free_extents)
    for _ in range(n):
        run(sim, storage.store_patch(sample_patch()))
    with pytest.raises(RuntimeError, match="extents"):
        run(sim, storage.store_patch(sample_patch()))


def test_conventional_missing_key_raises():
    storage, sim = conventional_storage()
    handle = run(sim, storage.store_patch(sample_patch()))
    lookup = Lookup(0, handle, 0, 10)
    with pytest.raises(KeyError):
        run(sim, storage.read_value(lookup, "absent"))
