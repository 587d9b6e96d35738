"""Control-plane unit + integration tests: versioned routing, epoch
rejection, elastic membership, online migration, split/merge and the
load-driven rebalancer (crash-during-migration safety lives in
``test_migration_faults.py``).
"""

import hashlib

import pytest

from repro.cluster import (
    ClusterController,
    MigrationError,
    Network,
    RoutingView,
    SliceLocation,
    build_sdf_server,
)
from repro.errors import WrongEpochError
from repro.faults import FaultPlan
from repro.kv.slice import KeyRange
from repro.obs import Observability
from repro.qos import MigrationConfig, QosPlan
from repro.sim import MS, Simulator

VALUE = b"v" * 4096

#: The schedules of the multi-step control-plane runs at the last commit
#: before the control plane was refactored (``schedule_digest``).
GOLDEN = {
    "drain_remove": "af2dcc07d6aeaf02",
    "split_merge_migrate": "446d1b0e99ba1ea4",
    "rebalance": "b42a50b558683268",
}


def schedule_digest(sim, ctrl, slice_id) -> str:
    """Sim time, event sequence number, the slice's routing entry and
    the migration counters, hashed."""
    state = (
        sim.now,
        sim._seq,
        ctrl.table.entry(slice_id),
        ctrl.migrations_started.value,
        ctrl.migrations_completed.value,
        ctrl.migrations_aborted.value,
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


def make_cluster(n_nodes=2, **server_kwargs):
    server_kwargs.setdefault("capacity_scale", 0.01)
    server_kwargs.setdefault("n_channels", 4)
    sim = Simulator()
    network = Network(sim)
    ctrl = ClusterController(sim, network)
    for i in range(n_nodes):
        ctrl.add_node(f"n{i}", build_sdf_server(sim, [], **server_kwargs))
    return sim, network, ctrl


def fill(sim, server, keys, value=VALUE):
    def _fill():
        for key in keys:
            yield from server.handle_put(key, value)

    sim.run(until=sim.process(_fill()))


def read_all(sim, ctrl, keys, value=VALUE):
    """Route every key through a fresh view; returns the missing count."""
    view = ctrl.view()

    def _read():
        missing = 0
        for key in keys:
            server, entry = view.lookup(key)
            got = yield from server.handle_get(key, epoch=entry.epoch)
            if got != value:
                missing += 1
        return missing

    return sim.run(until=sim.process(_read()))


# -- routing table + view ----------------------------------------------------------------


def test_routing_table_versioning_and_lookup():
    sim, network, ctrl = make_cluster(2)
    v0 = ctrl.table.version
    sid = ctrl.create_slice(KeyRange(0, 100), on=["n0"])
    assert ctrl.table.version == v0 + 1
    entry = ctrl.table.lookup(50)
    assert entry.slice_id == sid
    assert entry.replicas == ("n0",)
    assert entry.epoch == 0
    assert 99 in entry and 100 not in entry
    with pytest.raises(KeyError):
        ctrl.table.lookup(100)


def test_create_slice_rejects_overlap_and_empty_placement():
    sim, network, ctrl = make_cluster(1)
    ctrl.create_slice(KeyRange(0, 100), on=["n0"])
    with pytest.raises(ValueError, match="overlaps"):
        ctrl.create_slice(KeyRange(50, 150), on=["n0"])
    with pytest.raises(ValueError, match="at least one"):
        ctrl.create_slice(KeyRange(200, 300), on=[])


def test_view_is_a_stale_snapshot_until_refreshed():
    sim, network, ctrl = make_cluster(2)
    ctrl.create_slice(KeyRange(0, 100), on=["n0"])
    view = ctrl.view()
    assert isinstance(view, RoutingView)
    assert not view.stale
    ctrl.create_slice(KeyRange(100, 200), on=["n1"])
    assert view.stale
    with pytest.raises(KeyError):
        view.lookup(150)  # the cached snapshot predates the new slice
    view.refresh()
    assert not view.stale
    server, entry = view.lookup(150)
    assert server is ctrl.node("n1")


def test_stale_epoch_stamp_is_rejected_by_the_server():
    sim, network, ctrl = make_cluster(1)
    sid = ctrl.create_slice(KeyRange(0, 100), on=["n0"])
    server = ctrl.node("n0")
    stale = ctrl.table.entry(sid).epoch
    ctrl.replica(sid, "n0").epoch = stale + 7  # ownership moved on

    def _put():
        yield from server.handle_put(1, VALUE, epoch=stale)

    with pytest.raises(WrongEpochError):
        sim.run(until=sim.process(_put()))
    # Unstamped (legacy, un-routed) requests still work.
    fill(sim, server, [1])


# -- membership --------------------------------------------------------------------------


def test_add_node_adopts_pre_hosted_slices():
    sim = Simulator()
    network = Network(sim)
    from repro.kv.lsm import LSMTree
    from repro.kv.slice import Slice

    slice_ = Slice(7, KeyRange(0, 100), lsm=LSMTree())
    server = build_sdf_server(
        sim, [slice_], capacity_scale=0.01, n_channels=4
    )
    ctrl = ClusterController(sim, network)
    ctrl.add_node("n0", server)
    entry = ctrl.table.entry(7)
    assert entry.replicas == ("n0",)
    assert ctrl.replica(7, "n0") is slice_
    # Fresh slice ids don't collide with the adopted one.
    assert ctrl.create_slice(KeyRange(100, 200), on=["n0"]) == 8
    with pytest.raises(ValueError, match="already enrolled"):
        ctrl.add_node("n0", server)


def test_drain_then_remove_node():
    sim, network, ctrl = make_cluster(2)
    sid = ctrl.create_slice(KeyRange(0, 1000), on=["n0"])
    fill(sim, ctrl.node("n0"), range(0, 200))
    moved = sim.run(until=sim.process(ctrl.drain_node("n0")))
    assert moved == 1
    assert ctrl.table.entry(sid).replicas == ("n1",)
    assert read_all(sim, ctrl, range(0, 200)) == 0
    removed = ctrl.remove_node("n0")
    assert removed.slices == []
    assert "n0" not in ctrl.nodes
    assert schedule_digest(sim, ctrl, sid) == GOLDEN["drain_remove"]


def test_remove_node_refuses_while_hosting():
    sim, network, ctrl = make_cluster(1)
    ctrl.create_slice(KeyRange(0, 100), on=["n0"])
    with pytest.raises(MigrationError, match="drain it first"):
        ctrl.remove_node("n0")


# -- migration ---------------------------------------------------------------------------


def test_migrate_slice_moves_data_and_bumps_epoch():
    sim, network, ctrl = make_cluster(2)
    sid = ctrl.create_slice(
        KeyRange(0, 10_000), on=["n0"], memtable_bytes=64 * 1024
    )
    fill(sim, ctrl.node("n0"), range(0, 300))
    sim.run(until=sim.now + 50 * MS)  # let background flushes register runs
    old_epoch = ctrl.table.entry(sid).epoch
    sim.run(until=sim.process(ctrl.migrate_slice(sid, "n0", "n1")))
    entry = ctrl.table.entry(sid)
    assert entry.replicas == ("n1",)
    assert entry.epoch > old_epoch
    assert ctrl.replica(sid, "n1").epoch == entry.epoch
    # The source stopped hosting; the target serves every acked write.
    assert all(s.slice_id != sid for s in ctrl.node("n0").slices)
    assert read_all(sim, ctrl, range(0, 300)) == 0
    assert ctrl.migrations_completed.value == 1
    assert ctrl.bytes_migrated.value > 0


def test_migrate_slice_argument_validation():
    sim, network, ctrl = make_cluster(2)
    sid = ctrl.create_slice(KeyRange(0, 100), on=["n0", "n1"])

    def run_mig(*args):
        sim.run(until=sim.process(ctrl.migrate_slice(*args)))

    with pytest.raises(KeyError):
        run_mig(sid, "n0", "ghost")
    with pytest.raises(MigrationError, match="same node"):
        run_mig(sid, "n0", "n0")
    with pytest.raises(MigrationError, match="no replica"):
        run_mig(99, "n0", "n1")
    with pytest.raises(MigrationError, match="already has a replica"):
        run_mig(sid, "n0", "n1")


def test_migration_respects_concurrency_budget():
    sim, network, ctrl = make_cluster(3)
    ctrl.attach(
        QosPlan(
            migration=MigrationConfig(max_concurrent=1, copy_mb_per_s=1.0)
        )
    )
    a = ctrl.create_slice(
        KeyRange(0, 1000), on=["n0"], memtable_bytes=64 * 1024
    )
    b = ctrl.create_slice(KeyRange(1000, 2000), on=["n0"])
    fill(sim, ctrl.node("n0"), range(0, 100))
    mig1 = sim.process(ctrl.migrate_slice(a, "n0", "n1"))

    def second():
        yield sim.timeout(MS)  # while the paced first copy is in flight
        yield from ctrl.migrate_slice(b, "n0", "n2")

    with pytest.raises(MigrationError, match="budget"):
        sim.run(until=sim.process(second()))
    sim.run(until=mig1)  # the first migration is unaffected
    assert ctrl.table.entry(a).replicas == ("n1",)


def test_migration_copy_budget_slows_the_transfer():
    def timed(qos):
        sim, network, ctrl = make_cluster(2)
        if qos is not None:
            ctrl.attach(qos)
        sid = ctrl.create_slice(
            KeyRange(0, 10_000), on=["n0"], memtable_bytes=64 * 1024
        )
        fill(sim, ctrl.node("n0"), range(0, 200))
        sim.run(until=sim.now + 50 * MS)
        start = sim.now
        sim.run(until=sim.process(ctrl.migrate_slice(sid, "n0", "n1")))
        return sim.now - start

    unpaced = timed(None)
    # Patch stores burn a full 8 MB write unit each, so only a budget
    # well under the device bandwidth shows up in the elapsed time.
    paced = timed(QosPlan(migration=MigrationConfig(copy_mb_per_s=0.05)))
    assert paced > 2 * unpaced


def test_replica_router_tracks_migration():
    sim, network, ctrl = make_cluster(2)
    sid = ctrl.create_slice(KeyRange(0, 1000), on=["n0"])
    router = ctrl.replica_router(sid)
    assert router() == [ctrl.node("n0")]
    fill(sim, ctrl.node("n0"), range(0, 50))
    sim.run(until=sim.process(ctrl.migrate_slice(sid, "n0", "n1")))
    assert router() == [ctrl.node("n1")]


def test_routed_writes_survive_a_concurrent_migration():
    """Writers stamped with the old epoch are redirected mid-stream and
    every acknowledged write is readable afterwards."""
    sim, network, ctrl = make_cluster(2)
    sid = ctrl.create_slice(
        KeyRange(0, 10_000), on=["n0"], memtable_bytes=64 * 1024
    )
    fill(sim, ctrl.node("n0"), range(0, 100))
    sim.run(until=sim.now + 20 * MS)
    view = ctrl.view()
    acked = []

    def writer():
        for key in range(100, 400):
            for _ in range(10):  # redirect-and-retry
                server, entry = view.lookup(key)
                try:
                    yield from server.handle_put(
                        key, VALUE, epoch=entry.epoch
                    )
                except WrongEpochError:
                    yield sim.timeout(MS)
                    view.refresh()
                    continue
                acked.append(key)
                break

    mig = sim.process(ctrl.migrate_slice(sid, "n0", "n1"))
    wr = sim.process(writer())
    sim.run(until=wr)
    sim.run(until=mig)
    assert ctrl.table.entry(sid).replicas == ("n1",)
    assert len(acked) == 300  # nothing was dropped, only redirected
    assert view.refreshes >= 1
    assert read_all(sim, ctrl, range(0, 400)) == 0


# -- split / merge -----------------------------------------------------------------------


def test_split_slice_partitions_keys_and_redirects():
    sim, network, ctrl = make_cluster(1)
    sid = ctrl.create_slice(
        KeyRange(0, 1000), on=["n0"], memtable_bytes=64 * 1024
    )
    fill(sim, ctrl.node("n0"), range(0, 500))
    sim.run(until=sim.now + 50 * MS)
    stale = ctrl.table.entry(sid)
    low, high = sim.run(until=sim.process(ctrl.split_slice(sid, 300)))
    assert ctrl.table.entry(low).key_range == KeyRange(0, 300)
    assert ctrl.table.entry(high).key_range == KeyRange(300, 1000)
    assert ctrl.table.entry(low).epoch == ctrl.table.entry(high).epoch
    with pytest.raises(KeyError):
        ctrl.table.entry(sid)  # the parent is gone
    assert read_all(sim, ctrl, range(0, 500)) == 0
    # A request stamped with the parent's epoch is rejected.
    server = ctrl.node("n0")

    def stale_put():
        yield from server.handle_put(10, VALUE, epoch=stale.epoch)

    with pytest.raises(WrongEpochError):
        sim.run(until=sim.process(stale_put()))
    assert ctrl.splits.value == 1


def test_merge_slices_recombines_without_data_loss():
    sim, network, ctrl = make_cluster(1)
    sid = ctrl.create_slice(
        KeyRange(0, 1000), on=["n0"], memtable_bytes=64 * 1024
    )
    fill(sim, ctrl.node("n0"), range(0, 500))
    sim.run(until=sim.now + 50 * MS)
    low, high = sim.run(until=sim.process(ctrl.split_slice(sid, 250)))
    merged = sim.run(until=sim.process(ctrl.merge_slices(low, high)))
    assert ctrl.table.entry(merged).key_range == KeyRange(0, 1000)
    assert read_all(sim, ctrl, range(0, 500)) == 0
    assert ctrl.merges.value == 1


def test_merged_slice_survives_migration():
    sim, network, ctrl = make_cluster(2)
    sid = ctrl.create_slice(
        KeyRange(0, 1000), on=["n0"], memtable_bytes=64 * 1024
    )
    fill(sim, ctrl.node("n0"), range(0, 400))
    sim.run(until=sim.now + 50 * MS)
    low, high = sim.run(until=sim.process(ctrl.split_slice(sid, 200)))
    merged = sim.run(until=sim.process(ctrl.merge_slices(low, high)))
    sim.run(until=sim.process(ctrl.migrate_slice(merged, "n0", "n1")))
    assert ctrl.table.entry(merged).replicas == ("n1",)
    assert read_all(sim, ctrl, range(0, 400)) == 0
    assert schedule_digest(sim, ctrl, merged) == GOLDEN["split_merge_migrate"]


def test_merge_requires_matching_replica_sets():
    sim, network, ctrl = make_cluster(2)
    a = ctrl.create_slice(KeyRange(0, 100), on=["n0"])
    b = ctrl.create_slice(KeyRange(100, 200), on=["n1"])
    with pytest.raises(MigrationError, match="same replica set"):
        sim.run(until=sim.process(ctrl.merge_slices(a, b)))


# -- rebalancer --------------------------------------------------------------------------


def test_rebalance_moves_the_hottest_slice_to_the_coldest_node():
    sim, network, ctrl = make_cluster(2)
    hot = ctrl.create_slice(KeyRange(0, 1000), on=["n0"])
    ctrl.create_slice(KeyRange(1000, 2000), on=["n0"])
    fill(sim, ctrl.node("n0"), range(0, 100))  # all load on `hot`
    move = sim.run(until=sim.process(ctrl.rebalance()))
    assert move == (hot, "n0", "n1")
    assert ctrl.table.entry(hot).replicas == ("n1",)
    assert ctrl.rebalance_moves.value == 1
    # Watermarks reset: with no fresh traffic, the next pass is a no-op.
    move = sim.run(until=sim.process(ctrl.rebalance()))
    assert move is None
    assert schedule_digest(sim, ctrl, hot) == GOLDEN["rebalance"]


def test_rebalance_balanced_cluster_is_a_no_op():
    sim, network, ctrl = make_cluster(2)
    ctrl.create_slice(KeyRange(0, 100), on=["n0"])
    ctrl.create_slice(KeyRange(100, 200), on=["n1"])
    fill(sim, ctrl.node("n0"), range(0, 20))
    fill(sim, ctrl.node("n1"), range(100, 120))
    move = sim.run(until=sim.process(ctrl.rebalance()))
    assert move is None
    assert ctrl.migrations_started.value == 0


def test_rebalance_never_strands_a_single_slice_node():
    sim, network, ctrl = make_cluster(2)
    ctrl.create_slice(KeyRange(0, 1000), on=["n0"])  # n0's only slice
    fill(sim, ctrl.node("n0"), range(0, 100))
    move = sim.run(until=sim.process(ctrl.rebalance()))
    assert move is None  # a node's last slice never moves


# -- plane wiring ------------------------------------------------------------------------


def test_controller_attach_obs_exports_metrics():
    sim, network, ctrl = make_cluster(2)
    obs = Observability()
    assert ctrl.attach(obs) is ctrl
    sid = ctrl.create_slice(KeyRange(0, 1000), on=["n0"])
    fill(sim, ctrl.node("n0"), range(0, 50))
    sim.run(until=sim.process(ctrl.migrate_slice(sid, "n0", "n1")))
    snap = obs.snapshot(sim.now)
    assert snap["cluster.migrations_completed"] == 1
    assert snap["cluster.routing_version"] == ctrl.table.version
    assert snap["cluster.nodes"] == 2
    assert snap["cluster.bytes_migrated"] > 0


def test_controller_attach_fault_plan_arms_abort_points():
    from repro.cluster import MIGRATION_ABORT, MIGRATION_SITE
    from repro.errors import TransientFault

    sim, network, ctrl = make_cluster(2)
    plan = FaultPlan(seed=3).add(
        MIGRATION_SITE, MIGRATION_ABORT, at_op=1, where={"phase": "copy"}
    )
    ctrl.attach(plan)
    sid = ctrl.create_slice(KeyRange(0, 1000), on=["n0"])
    fill(sim, ctrl.node("n0"), range(0, 50))
    with pytest.raises(TransientFault):
        sim.run(until=sim.process(ctrl.migrate_slice(sid, "n0", "n1")))
    assert ctrl.migrations_aborted.value == 1
    # Aborted cleanly: source still serves, routing unchanged.
    assert ctrl.table.entry(sid).replicas == ("n0",)
    assert read_all(sim, ctrl, range(0, 50)) == 0


def _abort_cluster(kind):
    """An SDF source holding a slice with registered runs, and a
    ``kind`` target."""
    from repro.cluster import build_storage_server

    sim, network, ctrl = make_cluster(1)
    ctrl.add_node(
        "n1",
        build_storage_server(
            sim, [], device_kind=kind, capacity_scale=0.01, n_channels=4
        ),
    )
    sid = ctrl.create_slice(
        KeyRange(0, 10_000), on=["n0"], memtable_bytes=64 * 1024
    )
    fill(sim, ctrl.node("n0"), range(0, 300))
    sim.run(until=sim.now + 50 * MS)  # let background flushes register runs
    return sim, ctrl, sid


def free_units(server) -> int:
    return len(server.storage.backend._free)


@pytest.mark.parametrize("kind", ["zoned", "conventional"])
@pytest.mark.parametrize("phase", ["prepare", "copy", "catchup", "cutover"])
def test_aborted_migration_gives_the_target_its_units_back(phase, kind):
    from repro.cluster import MIGRATION_ABORT, MIGRATION_SITE
    from repro.errors import TransientFault

    sim, ctrl, sid = _abort_cluster(kind)
    ctrl.attach(
        FaultPlan(seed=3).add(
            MIGRATION_SITE, MIGRATION_ABORT, at_op=1, where={"phase": phase}
        )
    )
    target = ctrl.node("n1")
    before = free_units(target)
    with pytest.raises(TransientFault):
        sim.run(until=sim.process(ctrl.migrate_slice(sid, "n0", "n1")))
    sim.run(until=sim.now + 50 * MS)
    assert free_units(target) == before
    assert ctrl.migrations_aborted.value == 1
    # The retry starts over from a target with every unit free.
    sim.run(until=sim.process(ctrl.migrate_slice(sid, "n0", "n1")))
    assert ctrl.table.entry(sid).replicas == ("n1",)
    assert read_all(sim, ctrl, range(0, 300)) == 0


def test_target_out_of_units_aborts_cleanly_and_retries():
    from repro.errors import StorageFullError
    from repro.kv import Patch, PlaceholderValue

    sim, ctrl, sid = _abort_cluster("zoned")
    target = ctrl.node("n1")
    entry = ctrl.table.entry(sid)
    hogs = [
        target.storage.functional_store(Patch([(-1, PlaceholderValue(8))]))
        for _ in range(free_units(target) - 1)
    ]
    assert free_units(target) == 1
    with pytest.raises(StorageFullError):
        sim.run(until=sim.process(ctrl.migrate_slice(sid, "n0", "n1")))
    assert ctrl.table.entry(sid) == entry
    assert not ctrl.replica(sid, "n0").write_blocked
    assert all(s.slice_id != sid for s in target.slices)
    assert ctrl.migrations_aborted.value == 1
    assert free_units(target) == 1
    for handle in hogs:
        target.storage.functional_free(handle)
    sim.run(until=sim.process(ctrl.migrate_slice(sid, "n0", "n1")))
    assert ctrl.table.entry(sid).replicas == ("n1",)
    assert read_all(sim, ctrl, range(0, 300)) == 0


def test_controller_attach_rejects_unknown_plane():
    sim, network, ctrl = make_cluster(1)
    with pytest.raises(TypeError, match="don't know how to attach"):
        ctrl.attach(object())


# -- no-drift ----------------------------------------------------------------------------


def test_idle_control_plane_is_byte_identical_no_drift():
    """Enrolling nodes and publishing routes must not perturb the data
    path: a workload run under an idle controller is byte-identical
    (timeline, metrics, trace) to the same run without one."""
    import json

    from repro.kv.lsm import LSMTree
    from repro.kv.slice import Slice

    def run_workload(with_controller: bool):
        sim = Simulator()
        obs = Observability(trace=True)
        slice_ = Slice(
            0, KeyRange(0, 1_000_000), lsm=LSMTree(memtable_bytes=128 * 1024)
        )
        server = build_sdf_server(
            sim, [slice_], capacity_scale=0.01, n_channels=4
        )
        network = Network(sim)
        server.system.attach(obs)
        server.attach(obs)
        if with_controller:
            ctrl = ClusterController(sim, network)
            ctrl.add_node("n0", server)  # adopts + publishes the slice

        def scenario():
            for key in range(40):
                yield from server.handle_put(key, VALUE)
            for key in range(40):
                got = yield from server.handle_get(key)
                assert got == VALUE

        sim.run(until=sim.process(scenario()))
        sim.run(until=sim.now + 50 * MS)
        trace = json.dumps(obs.trace.chrome_trace(), sort_keys=True)
        return sim.now, obs.snapshot(sim.now), trace

    bare = run_workload(False)
    ruled = run_workload(True)
    assert ruled[0] == bare[0]
    assert ruled[1] == bare[1]
    assert ruled[2] == bare[2]
