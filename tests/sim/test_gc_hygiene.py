"""Nothing for the cyclic collector: the invariant the kernel's paced
collection rests on (DESIGN.md section 7, "Memory and the collector").

With automatic collection off and the finished system still referenced,
``gc.collect()`` must find **nothing**: every request's continuations,
ops and events died by reference count when the request settled -- on
success, on a dropped DMA, across a crash.  The count is deterministic,
so a reference cycle on a request path fails here by name and number
instead of surfacing as unexplained resident memory.
"""

import gc
import struct
from collections import Counter
from dataclasses import replace

import pytest

from repro.cluster import build_storage_server
from repro.devices import HUAWEI_GEN3_SPEC, build_device, device_kinds
from repro.faults import FaultPlan
from repro.interfaces.link import LinkDropError
from repro.kv.lsm import LSMTree
from repro.kv.slice import Slice, partition_key_space
from repro.qos import AdmissionConfig, BreakerConfig, ChannelQosState, QosPlan
from repro.sim import KIB, MS, Simulator
from repro.sim.engine import GC_PACE
from repro.workloads import FaultBurst, ScenarioRunner
from tests.cluster.test_node_continuations import play
from tests.devices.test_device_zoo import run_cast
from tests.workloads.test_scenarios import tiny_scenario, tiny_tenant


@pytest.fixture
def found():
    """``found()`` -> what a full collection finds, as a count per type
    name (empty wanted: a failure names the cycle that came back), with
    the automatic collector off for the whole test so that nothing is
    found early and missed.  A failed test's traceback keeps its system
    alive into the next one: read the first failure."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()

    def collect():
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    try:
        yield collect
    finally:
        if enabled:
            gc.enable()


# -- (a) every device kind ------------------------------------------------------


@pytest.mark.parametrize(
    "observed,pinned",
    [(True, False), (False, False), (True, True)],
    ids=["observed", "bare", "per-phase"],
)
@pytest.mark.parametrize("kind", device_kinds())
def test_device_cast_leaves_nothing_to_collect(kind, observed, pinned, found):
    """The zoo's mixed cast reserved ahead, observed and not, and
    observed with every engine pinned to its per-phase hops."""
    system = run_cast(kind, seed=3, observed=observed, pinned=pinned)  # kept whole
    assert found() == {}


def test_gated_sdf_requests_leave_nothing_to_collect(found):
    """Behind admission slots, with a rule-less fault plan wired: the
    pages are reserved ahead from their grant hops, and the hops, the
    releases and the queued waiters die with the request."""
    sim = Simulator()
    sdf = build_device("sdf", sim, capacity_scale=0.004, n_channels=2)
    FaultPlan(seed=1).attach(sdf)
    for engine in sdf.engines:
        engine.qos = ChannelQosState(sim, engine.channel, max_inflight=4)
    channel = sdf.channels[0]
    assert channel.engine.can_reserve_ahead()

    def issuer():
        yield from channel.write(0)
        yield from channel.read(0, 0, 64)
        yield from channel.erase(0)

    sim.run(until=sim.process(issuer()))
    assert channel.engine.qos.throttled.value > 64
    assert channel.engine.ops_executed.value > 1024 + 64
    assert found() == {}


def test_no_op_objects_exist_mid_drive_on_the_ahead_path(found):
    """Four writers and four readers in full flight, nothing watching
    per phase: the block FTL hands the engine plane runs and the
    reserve-ahead path builds no ``FlashOp`` and no ``PhysicalAddress``
    -- not one is alive anywhere in the process."""
    sim = Simulator()
    sdf = build_device("sdf", sim, capacity_scale=0.004, n_channels=8)
    sdf.prefill(0.5)
    assert all(engine.can_reserve_ahead() for engine in sdf.engines)
    pages = sdf.channels[0].pages_per_logical_block
    free = sdf.ftls[0].n_logical_blocks - 1

    def writer(channel):
        yield from channel.write(free)
        yield from channel.write(free - 1)

    def reader(channel):
        for offset in (0, 7, pages // 2 - 3):
            yield from channel.read(0, offset, pages // 2)
            yield from channel.read(1, offset, 1)

    drives = [sim.process(writer(channel)) for channel in sdf.channels[:4]]
    drives += [sim.process(reader(channel)) for channel in sdf.channels[4:]]
    sim.run(until=40 * MS)
    in_flight = sum(len(engine._ahead) for engine in sdf.engines)
    assert in_flight >= 4 * 16 and not any(drive.triggered for drive in drives)
    assert sum(engine.ops_executed.value for engine in sdf.engines) > 400
    alive = Counter(type(obj).__name__ for obj in gc.get_objects())
    assert alive["FlashOp"] == alive["PhysicalAddress"] == 0
    assert alive["_Ahead"] >= in_flight
    sim.run(until=sim.all_of(drives))
    assert found() == {}


def test_no_op_objects_exist_mid_drive_behind_the_admission_gate(found):
    """Gated writes in full flight, a rule-less fault plan wired: each
    page's grant hop reserves it ahead by plane and size, so no
    ``FlashOp`` or ``PhysicalAddress`` is alive either."""
    sim = Simulator()
    sdf = build_device("sdf", sim, capacity_scale=0.004, n_channels=4)
    FaultPlan(seed=1).attach(sdf)
    for engine in sdf.engines:
        engine.qos = ChannelQosState(sim, engine.channel, max_inflight=4)
    assert all(engine.can_reserve_ahead() for engine in sdf.engines)

    def writer(channel):
        yield from channel.write(0)
        yield from channel.write(1)

    drives = [sim.process(writer(channel)) for channel in sdf.channels]
    sim.run(until=20 * MS)
    assert not any(drive.triggered for drive in drives)
    assert sum(engine.qos.throttled.value for engine in sdf.engines) > 100
    assert sum(len(engine._ahead) for engine in sdf.engines) >= 4
    alive = Counter(type(obj).__name__ for obj in gc.get_objects())
    assert alive["FlashOp"] == alive["PhysicalAddress"] == 0
    sim.run(until=sim.all_of(drives))
    assert found() == {}


# -- (b) the LSM on an SDF server -------------------------------------------------


def test_lsm_flush_and_compaction_leave_nothing_to_collect(found):
    sim = Simulator()
    slices = [
        Slice(index, key_range, lsm=LSMTree(memtable_bytes=64 * KIB))
        for index, key_range in enumerate(partition_key_space(2, 0, 10_000))
    ]
    server = build_storage_server(
        sim, slices, device_kind="sdf", capacity_scale=0.01, n_channels=4
    )
    pad = b"\0" * (4 * KIB - 8)

    def client(slice_):
        lo = slice_.key_range.lo
        for index in range(160):
            key = lo + index % 40
            yield from server.handle_put(key, struct.pack(">Q", index) + pad)
            if index % 4 == 0:
                yield from server.handle_get(key)

    sim.run(until=sim.all_of([sim.process(client(s)) for s in slices]))
    sim.run()  # background flushes and compactions finish
    assert all(s.lsm.flushes >= 8 and s.lsm.compactions >= 2 for s in slices)
    assert found() == {}


@pytest.mark.parametrize("via_process", [True, False], ids=["bridged", "called"])
def test_gets_dropped_or_abandoned_by_a_crash_leave_nothing_to_collect(
    via_process, found
):
    """A get and a patch read whose page DMA is dropped mid-flight, gets
    and a put a crash abandons while they queue, sheds, an epoch move:
    every one settles and leaves nothing behind, continuation or
    generator."""
    seen, server = play(via_process)  # server kept whole
    outcomes = [value for _, _, value in seen]
    assert outcomes.count("LinkDropError") == 2
    assert outcomes.count("NodeDownError") == 3
    assert found() == {}


# -- (c) a fleet with crash, brownout and a migration --------------------------------


def test_fleet_with_faults_and_migration_leaves_nothing_to_collect(found):
    scenario = tiny_scenario(
        tenants=(tiny_tenant("web", rps=1500.0), tiny_tenant("bulk", rps=500.0)),
        duration_ns=80 * MS,
        n_nodes=3,
        n_slices=6,
        faults=(
            FaultBurst(node=1, at_ns=20 * MS, duration_ns=15 * MS),
            FaultBurst(
                node=2, at_ns=30 * MS, duration_ns=10 * MS,
                kind="brownout", multiplier=10.0,
            ),
        ),
    )
    runner = ScenarioRunner(
        scenario,
        qos=QosPlan(
            admission=AdmissionConfig(max_reads=32, max_writes=16),
            breaker=BreakerConfig(failure_threshold=4, reset_ns=20 * MS),
        ),
    )
    sim = runner.sim

    def planned_migration():
        yield sim.timeout(10 * MS)
        yield from runner.ctrl.migrate_slice(3, "n0", "n2")

    sim.process(planned_migration())
    result = runner.run()
    assert result.faults_fired == 2
    assert result.migrations_completed == 1
    assert sum(report.retries for report in result.tenants.values()) > 0
    assert found() == {}


# -- a write that fails mid-window ------------------------------------------------


def _fail_a_write(sim, device, write, found):
    """Drop one page DMA of the first of two writes: it fails exactly
    once, the device serves the next one, and nothing is left."""
    plan = FaultPlan(seed=1)
    plan.add("link", "drop", at_op=40)
    plan.attach(device)
    outcomes = []

    def issuer():
        for index in range(2):
            try:
                yield from write(index)
                outcomes.append("ok")
            except LinkDropError:
                outcomes.append("dropped")

    sim.run(until=sim.process(issuer()))
    sim.run()  # the failed request's surviving pages drain
    assert outcomes == ["dropped", "ok"]
    assert len(plan.signatures()) == 1
    assert found() == {}


def test_sdf_write_dropped_mid_window_releases_everything(found):
    sim = Simulator()
    sdf = build_device("sdf", sim, capacity_scale=0.004, n_channels=2)
    channel = sdf.channels[0]
    _fail_a_write(sim, sdf, channel.write, found)
    # Every page but the dropped one was programmed, the next write whole.
    pages = channel.pages_per_logical_block
    assert channel.engine.ops_executed.value == 2 * pages - 1


@pytest.mark.parametrize("buffer_bytes", [0, 1 << 20], ids=["unbuffered", "buffered"])
def test_conventional_write_dropped_mid_request_releases_everything(
    buffer_bytes, found
):
    sim = Simulator()
    ssd = build_device(
        "conventional", sim, capacity_scale=0.01,
        spec=replace(HUAWEI_GEN3_SPEC, dram_buffer_bytes=buffer_bytes),
    )
    _fail_a_write(sim, ssd, lambda index: ssd.write(index * 64, 64), found)
    assert ssd.buffer_level == 0 and not ssd._pending_pages


# -- the kernel hands back the thresholds it found ---------------------------------


@pytest.fixture
def thresholds():
    before = gc.get_threshold()
    yield before
    gc.set_threshold(*before)


class _Boom(Exception):
    pass


def test_run_paces_collection_and_restores_thresholds(thresholds):
    sim = Simulator()
    seen = []
    sim._schedule_call(lambda: seen.append(gc.get_threshold()), 5)
    sim.run()
    assert seen == [(GC_PACE,) + thresholds[1:]]
    assert gc.get_threshold() == thresholds

    sim.timeout(10)
    sim.run(until=sim.now + 100)
    assert gc.get_threshold() == thresholds
    sim.run(until=sim.timeout(10))
    assert gc.get_threshold() == thresholds


def test_run_restores_thresholds_when_a_callback_raises(thresholds):
    sim = Simulator()

    def boom():
        raise _Boom()

    sim._schedule_call(boom, 1)
    with pytest.raises(_Boom):
        sim.run()
    assert gc.get_threshold() == thresholds
    failing = sim.event()
    failing.fail(_Boom())
    with pytest.raises(_Boom):
        sim.run(until=failing)
    assert gc.get_threshold() == thresholds
    with pytest.raises(ValueError):
        sim.run(until=sim.now - 1)
    assert gc.get_threshold() == thresholds


def test_nested_runs_restore_in_order(thresholds):
    outer, inner = Simulator(), Simulator()
    seen = []

    def nested():
        inner._schedule_call(lambda: seen.append(gc.get_threshold()), 1)
        inner.run()
        seen.append(gc.get_threshold())  # still paced: the outer loop runs

    outer._schedule_call(nested, 1)
    outer.run()
    paced = (GC_PACE,) + thresholds[1:]
    assert seen == [paced, paced]
    assert gc.get_threshold() == thresholds


def test_run_leaves_a_caller_s_own_pacing_alone(thresholds):
    """A threshold already above the kernel's, or 0 (collection off),
    is the caller's decision."""
    for own in (GC_PACE * 4, 0):
        gc.set_threshold(own, *thresholds[1:])
        sim = Simulator()
        seen = []
        sim._schedule_call(lambda: seen.append(gc.get_threshold()[0]), 1)
        sim.run()
        assert seen == [own]
        assert gc.get_threshold()[0] == own
