"""The patch-store contract, for every device kind a cluster can run on.

One suite, parametrized over ``device_kinds()`` and built through
``build_storage_server``: what :class:`~repro.cluster.PatchStore`
promises must hold whichever extent backend is underneath.
"""

from dataclasses import replace

import pytest

from repro import StorageFullError
from repro.cluster import build_storage_server
from repro.devices import HUAWEI_GEN3_SPEC, device_kinds
from repro.faults import DROP, FaultPlan
from repro.kv import Patch, PlaceholderValue
from repro.kv.lsm import Lookup, LSMTree
from repro.kv.slice import KeyRange, Slice
from repro.qos import ChannelQosConfig, QosPlan
from repro.sim import S, Simulator

KINDS = device_kinds()
every_kind = pytest.mark.parametrize("kind", KINDS)


def make_server(kind, lsm=None):
    """An 8-channel device of each kind: the store's extent bookkeeping
    is what these tests exercise, and filling every extent of a
    44-channel board costs ~490k simulated page writes."""
    return build_storage_server(
        Simulator(),
        [Slice(0, KeyRange(0, 1_000_000), lsm=lsm)],
        device_kind=kind,
        capacity_scale=0.008,
        n_channels=8,
    )


def make_store(kind):
    return make_server(kind).storage


def sample_patch(n=8, size=4096):
    return Patch([(f"k{i:02d}", PlaceholderValue(size)) for i in range(n)])


def run(sim, gen):
    return sim.run(until=sim.process(gen))


def free_units(store):
    """Units a store could still claim once writes in flight and
    background erases settle."""
    store.sim.run(until=store.sim.now + 1 * S)
    if store.block_layer is not None:
        return sum(len(ready) for ready in store.block_layer._ready)
    return len(store.backend._free)


def read(store, patch, handle, key, size):
    """``read_value`` of ``key``; returns (value, device bytes read)."""
    meter = store.device.stats.read_meter
    before = meter.total_bytes
    lookup = Lookup(0, handle, patch.offset_of(key), size)
    value = run(store.sim, store.read_value(lookup, key))
    return value, meter.total_bytes - before


# -- store -> read_value -> read_patch -> free -> reuse -----------------------------
@every_kind
def test_store_read_free_reuse(kind):
    store = make_store(kind)
    page = store.device.page_size
    # 4099-byte entries: k00 sits in the first page, k01's value
    # straddles the first page boundary, k05 is mid-patch, and "z" is a
    # zero-size value (still one page read).
    patch = Patch(
        list(sample_patch().items()) + [("z", PlaceholderValue(0))]
    )
    units = free_units(store)
    handle = run(store.sim, store.store_patch(patch))
    assert free_units(store) == units - 1

    assert patch.offset_of("k03") == 3 * 4099 + 3
    assert read(store, patch, handle, "k00", 4096) == (
        PlaceholderValue(4096),
        page,
    )
    assert read(store, patch, handle, "k01", 4096) == (
        PlaceholderValue(4096),
        2 * page,
    )
    assert read(store, patch, handle, "k05", 4096)[0] == PlaceholderValue(4096)
    assert read(store, patch, handle, "z", 0) == (PlaceholderValue(0), page)

    # Object storage: the same patch reference comes back.
    assert run(store.sim, store.read_patch(handle)) is patch

    run(store.sim, store.free_patch(handle))
    assert free_units(store) == units
    run(store.sim, store.store_patch(patch))
    assert free_units(store) == units - 1


@every_kind
def test_oversized_patch_rejected(kind):
    store = make_store(kind)
    huge = Patch([("k", PlaceholderValue(store.patch_capacity_bytes + 1))])
    units = free_units(store)
    with pytest.raises(ValueError):
        run(store.sim, store.store_patch(huge))
    with pytest.raises(ValueError):
        run(store.sim, store.store_patches([sample_patch(), huge]))
    with pytest.raises(ValueError):
        store.functional_store(huge)
    assert free_units(store) == units


@every_kind
def test_missing_key_and_empty_extent_raise(kind):
    store = make_store(kind)
    handle = run(store.sim, store.store_patch(sample_patch()))
    with pytest.raises(KeyError, match="absent"):
        run(store.sim, store.read_value(Lookup(0, handle, 0, 10), "absent"))
    # A unit nothing was ever stored in.
    unwritten = 7 if store.block_layer is not None else store.backend._free[0]
    with pytest.raises(KeyError):
        run(store.sim, store.read_value(Lookup(0, unwritten, 0, 10), "k00"))
    with pytest.raises(KeyError):
        store.functional_load(unwritten)


@every_kind
def test_functional_paths_cost_no_time(kind):
    store = make_store(kind)
    units = free_units(store)
    start = store.sim.now
    patch = sample_patch()
    handle = store.functional_store(patch)
    assert store.functional_load(handle) is patch
    # What preloading stored, the timed path reads.
    assert read(store, patch, handle, "k00", 4096)[0] == PlaceholderValue(4096)
    timed = store.sim.now
    assert timed > start
    store.functional_free(handle)
    assert store.sim.now == timed
    assert free_units(store) == units


@every_kind
def test_store_patches_returns_handles_in_input_order(kind):
    store = make_store(kind)
    patches = [sample_patch(n) for n in (3, 5, 2, 7)]
    handles = run(store.sim, store.store_patches(patches))
    assert len(set(handles)) == len(patches)
    for handle, patch in zip(handles, patches):
        assert run(store.sim, store.read_patch(handle)) is patch
    assert run(store.sim, store.store_patches([])) == []


@every_kind
def test_exhaustion_is_typed_and_claims_nothing(kind):
    store = make_store(kind)
    units = free_units(store)
    handles = [store.functional_store(sample_patch()) for _ in range(units)]
    assert len(set(handles)) == units
    with pytest.raises(StorageFullError):
        store.functional_store(sample_patch())
    store.functional_free(handles.pop())
    assert free_units(store) == 1
    if store.block_layer is None:
        # An SDF block write waits for its eraser instead; a free-list
        # backend cannot, and a batch that does not fit claims nothing.
        with pytest.raises(StorageFullError):
            run(store.sim, store.store_patches([sample_patch()] * 2))
        assert free_units(store) == 1
        run(store.sim, store.store_patch(sample_patch()))


# -- a failed store gives its extent back --------------------------------------------
def failing_server(kind):
    """A server whose fifth page DMA is dropped."""
    server = make_server(kind)
    plan = FaultPlan(seed=0)
    plan.add("n0.link", DROP, at_op=5)
    plan.attach(server, "n0")
    return server.storage, plan


@every_kind
def test_failed_store_patch_leaks_no_extent(kind):
    store, plan = failing_server(kind)
    units = free_units(store)
    with pytest.raises(Exception, match="dropped"):
        run(store.sim, store.store_patch(sample_patch()))
    assert plan.fault_count("n0.link", DROP) == 1
    assert free_units(store) == units
    handle = run(store.sim, store.store_patch(sample_patch()))
    assert run(store.sim, store.read_patch(handle)) is not None
    assert free_units(store) == units - 1


@every_kind
def test_failed_store_patches_leaks_no_sibling_extent(kind):
    store, _plan = failing_server(kind)
    units = free_units(store)
    with pytest.raises(Exception, match="dropped"):
        run(store.sim, store.store_patches([sample_patch()] * 3))
    # The two writes that landed were freed: nobody registered them.
    assert free_units(store) == units


# -- plane wiring reaches the device under every kind ----------------------------------
@every_kind
def test_server_planes_reach_engines_chips_and_link(kind):
    server = make_server(kind)
    device = server.device
    assert device is server.storage.device
    assert device.kind == kind

    faults = FaultPlan(seed=0)
    faults.attach(server, "n0")
    assert all(engine.faults is not None for engine in device.engines)
    assert all(
        chip.faults is not None
        for channel_chips in device.array.chips
        for chip in channel_chips
    )
    assert device.link.faults is not None

    qos = QosPlan(
        channel=ChannelQosConfig(max_inflight_ops=4, max_inflight_writes=1)
    )
    qos.attach(server, "n0")
    assert all(engine.qos is not None for engine in device.engines)
    if kind == "sdf":
        assert server.system.device is device
        assert server.storage.block_layer.qos is not None
    else:
        assert server.storage.block_layer is None


# -- sdf and zoned are one model ---------------------------------------------------
def test_sdf_and_zoned_servers_finish_on_the_same_instant():
    def drive(kind):
        server = make_server(kind, lsm=LSMTree(memtable_bytes=128 * 1024))
        sim, stats = server.sim, server.device.stats
        value = PlaceholderValue(5 * 1024)

        def puts():
            for key in range(60):
                yield from server.handle_put(key, value)

        def gets():
            for key in range(60):
                assert (yield from server.handle_get(key)) == value

        run(sim, puts())
        sim.run(until=sim.now + 1 * S)  # the flushes land
        run(sim, gets())
        return sim.now, stats.write_meter.total_bytes, stats.read_meter.total_bytes

    sdf = drive("sdf")
    assert sdf == drive("zoned")
    assert all(sdf)


# -- the cases this file held before the store was one class, under the
# -- names the test floor knows them by ------------------------------------------------
def test_sdf_store_and_read_value():
    store = make_store("sdf")
    patch = sample_patch()
    handle = run(store.sim, store.store_patch(patch))
    # Value of k03: offset = 3 * (3 + 4096) + 3 (its key).
    lookup = Lookup(0, handle, 3 * 4099 + 3, 4096)
    value = run(store.sim, store.read_value(lookup, "k03"))
    assert value == PlaceholderValue(4096)


def test_sdf_read_patch_roundtrip():
    store = make_store("sdf")
    patch = sample_patch()
    handle = run(store.sim, store.store_patch(patch))
    assert run(store.sim, store.read_patch(handle)) is patch
    # A full 8 MB sequential read.
    assert store.device.stats.read_meter.total_bytes == 8 << 20


def test_sdf_free_patch_recycles_block():
    store = make_store("sdf")
    handle = run(store.sim, store.store_patch(sample_patch()))
    assert store.block_layer.stored_blocks == 1
    run(store.sim, store.free_patch(handle))
    assert store.block_layer.stored_blocks == 0


def test_sdf_functional_paths_cost_no_time():
    store = make_store("sdf")
    handle = store.functional_store(sample_patch())
    assert store.sim.now == 0
    assert store.functional_load(handle).get("k00")[0]
    store.functional_free(handle)
    assert store.sim.now == 0


def test_sdf_oversized_patch_rejected():
    store = make_store("sdf")
    assert store.patch_capacity_bytes == 8 << 20
    huge = Patch([("k", PlaceholderValue(9 << 20))])
    with pytest.raises(ValueError):
        run(store.sim, store.store_patch(huge))


def test_conventional_store_read_free_cycle():
    store = make_store("conventional")
    patch = sample_patch()
    handle = run(store.sim, store.store_patch(patch))
    assert run(store.sim, store.read_patch(handle)) is patch
    lookup = Lookup(0, handle, 4099 + 3, 4096)
    value = run(store.sim, store.read_value(lookup, "k01"))
    assert value == PlaceholderValue(4096)
    run(store.sim, store.free_patch(handle))


def test_conventional_extent_reuse():
    store = make_store("conventional")
    first = run(store.sim, store.store_patch(sample_patch()))
    run(store.sim, store.free_patch(first))
    # Keep allocating: the freed extent eventually comes back around.
    handles = [
        run(store.sim, store.store_patch(sample_patch()))
        for _ in range(len(store.backend._free))
    ]
    assert first in handles


def test_conventional_exhaustion_raises():
    store = make_store("conventional")
    for _ in range(len(store.backend._free)):
        run(store.sim, store.store_patch(sample_patch()))
    with pytest.raises(StorageFullError, match="no free"):
        run(store.sim, store.store_patch(sample_patch()))


def test_conventional_missing_key_raises():
    store = make_store("conventional")
    handle = run(store.sim, store.store_patch(sample_patch()))
    with pytest.raises(KeyError):
        run(store.sim, store.read_value(Lookup(0, handle, 0, 10), "absent"))


def test_conventional_server_without_parity_takes_any_channel_count():
    """A parity-less spec stays parity-less when the server rewrites its
    channel count (``None`` is no group to clamp)."""
    spec = replace(HUAWEI_GEN3_SPEC, parity_group_size=None)
    server = build_storage_server(
        Simulator(),
        [Slice(0, KeyRange(0, 1000))],
        device_kind="conventional",
        spec=spec,
        capacity_scale=0.008,
        n_channels=8,
    )
    assert server.device.spec.n_channels == 8
    assert server.device.spec.parity_group_size is None
    assert server.device.ftl.parity_group_size is None
