"""Integration tests: storage server + clients over SDF and Gen3."""

import numpy as np
import pytest

from repro.cluster import (
    BatchSpec,
    KVClient,
    Network,
    ReplicatedKV,
    ReplicaReadError,
    build_conventional_server,
    build_sdf_server,
    run_clients,
)
from repro.faults import READ_UNCORRECTABLE, FaultPlan
from repro.kv import PlaceholderValue
from repro.kv.slice import KeyRange, Slice, partition_key_space
from repro.sim import MS, S, Simulator


def make_slices(n, span=1_000_000):
    return [
        Slice(i, key_range)
        for i, key_range in enumerate(partition_key_space(n, 0, span))
    ]


def sdf_server(sim, n_slices=2, n_channels=4, **kwargs):
    kwargs.setdefault("capacity_scale", 0.01)
    return build_sdf_server(
        sim, make_slices(n_slices), n_channels=n_channels, **kwargs
    )


def test_route_finds_owning_slice():
    sim = Simulator()
    server = sdf_server(sim, n_slices=4)
    slice_ = server.route(600_000)
    assert slice_.owns(600_000)
    with pytest.raises(KeyError):
        server.route(10**9)


def test_put_get_roundtrip_through_server():
    sim = Simulator()
    server = sdf_server(sim)

    def scenario():
        yield from server.handle_put(5, PlaceholderValue(1024))
        value = yield from server.handle_get(5)
        return value

    value = sim.run(until=sim.process(scenario()))
    assert value == PlaceholderValue(1024)


def test_get_missing_key_returns_none():
    sim = Simulator()
    server = sdf_server(sim)

    def scenario():
        return (yield from server.handle_get(77))

    assert sim.run(until=sim.process(scenario())) is None


def test_delete_hides_key():
    sim = Simulator()
    server = sdf_server(sim)

    def scenario():
        yield from server.handle_put(5, PlaceholderValue(64))
        yield from server.handle_delete(5)
        return (yield from server.handle_get(5))

    assert sim.run(until=sim.process(scenario())) is None


def test_sustained_puts_flush_patches_to_storage():
    sim = Simulator()
    server = sdf_server(sim, n_slices=1)
    slice_ = server.slices[0]
    value = PlaceholderValue(512 * 1024)

    def writer():
        for key in range(40):  # 20 MB: >2 patches
            yield from server.handle_put(key, value)

    sim.run(until=sim.process(writer()))
    sim.run(until=sim.now + 2 * S)  # let background flushes finish
    assert slice_.lsm.flushes >= 2
    assert slice_.lsm.n_runs >= 1
    assert server.system.device.stats.write_meter.total_bytes > 0


def test_get_after_flush_costs_one_device_read():
    sim = Simulator()
    server = sdf_server(sim, n_slices=1)
    server.preload(server.slices[0], range(100), value_bytes=64 * 1024)
    device = server.system.device
    reads_before = device.stats.read_meter.n_samples

    def scenario():
        return (yield from server.handle_get(50))

    value = sim.run(until=sim.process(scenario()))
    assert value == PlaceholderValue(64 * 1024)
    assert device.stats.read_meter.n_samples == reads_before + 1


def test_preload_populates_and_compacts():
    sim = Simulator()
    server = sdf_server(sim, n_slices=1)
    slice_ = server.slices[0]
    server.preload(slice_, range(200), value_bytes=256 * 1024)  # 50 MB
    assert slice_.lsm.n_runs >= 1
    assert slice_.lsm.compactions > 0
    assert sim.now == 0  # all functional


def test_compaction_runs_in_background_under_write_load():
    sim = Simulator()
    server = sdf_server(sim, n_slices=1, n_channels=8)
    value = PlaceholderValue(1024 * 1024)

    def writer():
        for key in range(120):  # 120 MB of writes -> flushes + compactions
            yield from server.handle_put(key % 30, value)

    sim.run(until=sim.process(writer()))
    sim.run(until=sim.now + 5 * S)
    assert server.compaction_read_meter.total_bytes > 0
    assert server.compaction_write_meter.total_bytes > 0
    assert server.slices[0].lsm.compactions > 0


def test_client_read_loop_measures_throughput():
    sim = Simulator()
    server = sdf_server(sim, n_slices=1, n_channels=4)
    slice_ = server.slices[0]
    keys = list(range(64))
    server.preload(slice_, keys, value_bytes=512 * 1024)
    network = Network(sim)
    client = KVClient(
        sim,
        network,
        server,
        slice_,
        BatchSpec(batch_size=4, value_bytes=512 * 1024, mode="read"),
        keys=keys,
        rng=np.random.default_rng(1),
    )
    throughput = run_clients(sim, [client], duration_ns=300 * MS)
    assert throughput > 10.0  # MB/s; sanity floor
    assert client.requests_completed > 3
    assert len(client.latency) == client.requests_completed


def test_client_write_loop():
    sim = Simulator()
    server = sdf_server(sim, n_slices=1, n_channels=4)
    network = Network(sim)
    client = KVClient(
        sim,
        network,
        server,
        server.slices[0],
        BatchSpec(batch_size=1, value_bytes=512 * 1024, mode="write"),
        rng=np.random.default_rng(2),
    )
    throughput = run_clients(sim, [client], duration_ns=300 * MS)
    assert throughput > 5.0
    assert server.puts.value > 0


def test_conventional_server_roundtrip():
    sim = Simulator()
    server = build_conventional_server(
        sim, make_slices(1), capacity_scale=0.01
    )
    server.preload(server.slices[0], range(20), value_bytes=128 * 1024)

    def scenario():
        return (yield from server.handle_get(10))

    assert sim.run(until=sim.process(scenario())) == PlaceholderValue(
        128 * 1024
    )


def test_scan_plan_covers_requested_range_only():
    sim = Simulator()
    server = sdf_server(sim, n_slices=4)
    for slice_ in server.slices:
        lo = slice_.key_range.lo
        server.preload(slice_, range(lo, lo + 20), value_bytes=64 * 1024)
    plan = server.scan_plan(0, 250_001)
    touched = {slice_.slice_id for slice_, _, _ in plan}
    assert touched == {0, 1}  # only the first two slices overlap


def test_replication_recovers_from_injected_failures():
    sim = Simulator()
    servers = [sdf_server(sim, n_slices=1) for _ in range(4)]
    plan = FaultPlan(seed=7).add(
        "replication", READ_UNCORRECTABLE, rate=0.3
    )
    for index, server in enumerate(servers):
        plan.attach(server, f"n{index}")
    replicated = ReplicatedKV(sim, servers)
    plan.attach(replicated)

    def scenario():
        yield from replicated.put(3, PlaceholderValue(4096))
        results = []
        for _ in range(20):
            value = yield from replicated.get(3)
            results.append(value)
        return results

    results = sim.run(until=sim.process(scenario()))
    assert all(value == PlaceholderValue(4096) for value in results)
    assert replicated.recoveries.value > 0
    assert replicated.data_loss_events.value == 0


def test_replication_total_failure_raises():
    sim = Simulator()
    servers = [sdf_server(sim, n_slices=1)]
    plan = FaultPlan(seed=1).add(
        "replication", READ_UNCORRECTABLE, rate=0.999
    )
    for index, server in enumerate(servers):
        plan.attach(server, f"n{index}")
    replicated = ReplicatedKV(sim, servers)
    plan.attach(replicated)

    def scenario():
        yield from replicated.put(1, PlaceholderValue(16))
        return (yield from replicated.get(1))

    with pytest.raises(ReplicaReadError):
        sim.run(until=sim.process(scenario()))
    assert replicated.data_loss_events.value == 1


def test_replication_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        ReplicatedKV(sim, [])
    with pytest.raises(ValueError):
        # fixed server list and a dynamic router are mutually exclusive
        ReplicatedKV(sim, [object()], router=lambda: [object()])
