"""Per-layer injection tests: each instrumented layer consumes its
faults the way the paper's host-software recovery story says it should.

chip program/erase failure -> FTL bad-block remap; uncorrectable read ->
propagates to the host; channel stall / link delay -> extra latency;
link & network drop -> transient errors the client retries; node crash ->
WAL replay restores every acknowledged write.
"""

import numpy as np
import pytest

from repro.cluster import (
    BatchSpec,
    KVClient,
    MessageDroppedError,
    Network,
    NodeDownError,
    build_sdf_server,
)
from repro.channel.engine import ChannelEngine
from repro.faults import (
    DELAY,
    DROP,
    ERASE_FAIL,
    PROGRAM_FAIL,
    READ_UNCORRECTABLE,
    STALL,
    FaultPlan,
    RetryPolicy,
)
from repro.ftl.block_ftl import ChannelBlockFTL
from repro.ftl.ops import read_op
from repro.interfaces.link import (
    HostLink,
    LinkDropError,
    PCIE_1_1_X8,
)
from repro.kv import PlaceholderValue
from repro.kv.lsm import LSMTree
from repro.kv.slice import KeyRange, Slice
from repro.nand.array import FlashArray, PhysicalAddress
from repro.nand.chip import ProgramFailError, UncorrectableReadError
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming
from repro.sim import MS, S, Simulator
from tests.channel.reference_engine import execute

SMALL_GEO = FlashGeometry(
    page_size=512, pages_per_block=4, blocks_per_plane=8, planes_per_chip=2
)


def small_array():
    return FlashArray(1, 2, SMALL_GEO, NandTiming())


def stripe(ftl, tag="p"):
    return [f"{tag}{i}".encode() for i in range(ftl.pages_per_logical_block)]


# -- NAND chip ---------------------------------------------------------------------------
def test_uncorrectable_read_raises_transient_error():
    array = small_array()
    plan = FaultPlan()
    plan.add("nand", READ_UNCORRECTABLE, at_op=2)
    for chip in array.chips[0]:
        chip.faults = plan.injector("nand")
    addr = PhysicalAddress(0, 0, 0, 0, 0)
    array.program_page(addr, b"x")
    assert array.read_page(addr) == b"x"  # first read clean
    with pytest.raises(UncorrectableReadError):
        array.read_page(addr)
    assert plan.fault_count("nand", READ_UNCORRECTABLE) == 1
    assert array.read_page(addr) == b"x"  # data itself is intact


def test_uncorrectable_read_mid_run_draws_and_counts_page_by_page():
    """A multi-page FTL read with an injector wired draws once per page:
    the fourth page fails, the three before it count as read for the
    host, the chip counts the failing one too, and nothing after it is
    drawn."""
    array = small_array()
    ftl = ChannelBlockFTL(array, channel=0, reserve_fraction=0.2)
    payload = [("v", index) for index in range(ftl.pages_per_logical_block)]
    ftl.write(0, payload)
    plan = FaultPlan()
    plan.add("nand", READ_UNCORRECTABLE, at_op=4)
    injector = plan.injector("nand")
    for chip in array.chips[0]:
        chip.faults = injector
    # Pages 2..7: two of plane 0, then the second page of plane 1 fails.
    with pytest.raises(UncorrectableReadError, match="plane 1 block . page 1"):
        ftl.read(0, 2, 6)
    assert ftl.host_reads == 3
    assert array.chips[0][0].reads == 4
    assert plan.fault_count("nand", READ_UNCORRECTABLE) == 1
    data, ops = ftl.read(0, 2, 6)
    assert data == payload[2:8] and len(ops) == 6
    assert ftl.host_reads == 9 and array.chips[0][0].reads == 10


def test_program_fail_marks_block_bad_and_raises():
    array = small_array()
    plan = FaultPlan()
    plan.add("nand", PROGRAM_FAIL, at_op=1)
    array.chips[0][0].faults = plan.injector("nand")
    addr = PhysicalAddress(0, 0, 0, 3, 0)
    with pytest.raises(ProgramFailError):
        array.program_page(addr, b"x")
    assert array.is_bad(addr)


# -- FTL recovery ------------------------------------------------------------------------
def test_ftl_remaps_program_failure_and_data_survives():
    array = small_array()
    ftl = ChannelBlockFTL(array, channel=0, reserve_fraction=0.2)
    plan = FaultPlan()
    # Fail a mid-stripe program (opportunity 6 of 16) so already
    # programmed pages of that plane must be replayed onto the spare.
    plan.add("nand", PROGRAM_FAIL, at_op=6)
    for chip in array.chips[0]:
        chip.faults = plan.injector("nand")
    ftl.faults = plan.injector("ftl.ch0")
    pages = stripe(ftl)
    ops = ftl.write(0, pages)
    assert ftl.program_remaps == 1
    assert ftl.grown_bad_blocks() == 1
    # One op per host page plus one per replayed page, and from the
    # failure on every op of that plane names the replacement block.
    assert ftl.host_programs == len(pages)
    assert len(ops) == len(pages) + 1
    physical = ftl.mapping.lookup(0)
    replayed = ops[5]
    assert ops[6].address == replayed.address.with_page(1)
    plane_index = replayed.address.chip * 2 + replayed.address.plane
    assert replayed.address.block == physical[plane_index]
    assert ops[plane_index].address.block != physical[plane_index]
    got, _ops = ftl.read(0, 0, ftl.pages_per_logical_block)
    assert got == pages
    assert plan.recovery_count("ftl.ch0", "program_remap") == 1


def test_ftl_second_program_failure_on_same_stripe_propagates():
    array = small_array()
    ftl = ChannelBlockFTL(array, channel=0, reserve_fraction=0.2)
    plan = FaultPlan()
    # Both rules reach opportunity 3 on the same stripe: the first kills
    # the original program, the second (which did not see the firing
    # opportunity) kills the replacement-block retry.
    plan.add("nand", PROGRAM_FAIL, at_op=3)
    plan.add("nand", PROGRAM_FAIL, at_op=3)
    for chip in array.chips[0]:
        chip.faults = plan.injector("nand")
    with pytest.raises(ProgramFailError):
        ftl.write(0, stripe(ftl))


def test_ftl_erase_failure_retires_block_via_bbm():
    array = small_array()
    ftl = ChannelBlockFTL(array, channel=0, reserve_fraction=0.2)
    plan = FaultPlan()
    plan.add("nand", ERASE_FAIL, at_op=1)
    for chip in array.chips[0]:
        chip.faults = plan.injector("nand")
    pages = stripe(ftl)
    ftl.write(0, pages)
    free_before = ftl.free_logical_blocks()
    ftl.erase(0)
    assert ftl.grown_bad_blocks() == 1
    assert plan.fault_count("nand", ERASE_FAIL) == 1
    # The stripe still rewrites fine on the surviving free blocks.
    ftl.write(0, stripe(ftl, "q"))
    got, _ = ftl.read(0, 0, 1)
    assert got == [b"q0"]
    assert ftl.free_logical_blocks() <= free_before


# -- channel engine -----------------------------------------------------------------------
def _timed_read(plan=None):
    sim = Simulator()
    engine = ChannelEngine(sim, 0, SMALL_GEO, NandTiming(), chips_per_channel=2)
    if plan is not None:
        plan.bind_clock(sim)
        engine.faults = plan.injector("ch0")
    op = read_op(PhysicalAddress(0, 0, 0, 0, 0), SMALL_GEO.page_size)
    sim.run(until=sim.process(execute(engine, op)))
    return sim.now


def test_channel_stall_adds_exactly_the_injected_latency():
    baseline = _timed_read()
    plan = FaultPlan()
    plan.add("ch0", STALL, at_op=1, delay_ns=5 * MS)
    assert _timed_read(plan) == baseline + 5 * MS


# -- host link ----------------------------------------------------------------------------
def test_link_drop_raises_and_delay_slows():
    sim = Simulator()
    link = HostLink(sim, PCIE_1_1_X8)
    plan = FaultPlan()
    plan.bind_clock(sim)
    plan.add("link", DROP, at_op=1)
    # The dropped transfer aborts before its delay check, so the delay
    # rule's first opportunity is the retransfer.
    plan.add("link", DELAY, at_op=1, delay_ns=3 * MS)
    link.faults = plan.injector("link")

    ends = []
    with pytest.raises(LinkDropError):
        link.reserve_call("read", 4096, None)
    link.reserve_call("read", 4096, lambda: ends.append(sim.now))
    sim.run()

    sim2 = Simulator()
    link2 = HostLink(sim2, PCIE_1_1_X8)
    link2.reserve_call("read", 4096, lambda: ends.append(sim2.now))
    sim2.run()
    with_fault, clean_ns = ends
    assert with_fault == clean_ns + 3 * MS
    assert plan.fault_count("link", DROP) == 1


# -- network + client retry ----------------------------------------------------------------
def test_network_drop_is_retried_by_the_client():
    sim = Simulator()
    slice_ = Slice(0, KeyRange(0, 1_000_000))
    server = build_sdf_server(sim, [slice_], capacity_scale=0.01, n_channels=4)
    network = Network(sim)
    plan = FaultPlan()
    plan.add("net", DROP, at_op=1)
    plan.attach(network)
    client = KVClient(
        sim,
        network,
        server,
        slice_,
        BatchSpec(batch_size=1, value_bytes=16 * 1024, mode="write"),
        retry=RetryPolicy(timeout_ns=200 * MS, max_attempts=4),
        rng=np.random.default_rng(0),
    )

    def scenario():
        yield from client.request_once()

    sim.run(until=sim.process(scenario()))
    assert network.drops == 1
    assert client.requests_retried == 1
    assert client.requests_completed == 1


def test_network_drop_without_retry_policy_propagates():
    sim = Simulator()
    network = Network(sim)
    plan = FaultPlan()
    plan.add("net", DROP, at_op=1)
    plan.attach(network)
    from repro.cluster.network import Nic

    src, dst = Nic(sim, name="a"), Nic(sim, name="b")

    def scenario():
        with pytest.raises(MessageDroppedError):
            yield from network.send(src, dst, 1024)
        yield from network.send(src, dst, 1024)  # second try goes through

    sim.run(until=sim.process(scenario()))
    assert network.messages == 1 and network.drops == 1


# -- node crash + WAL replay ----------------------------------------------------------------
def durable_server(sim, memtable_bytes=64 * 1024):
    lsm = LSMTree(memtable_bytes=memtable_bytes, durable_wal=True)
    slice_ = Slice(0, KeyRange(0, 1_000_000), lsm=lsm)
    return build_sdf_server(sim, [slice_], capacity_scale=0.01, n_channels=4)


def test_node_crash_then_wal_replay_restores_acked_writes():
    sim = Simulator()
    server = durable_server(sim)
    values = {key: f"v{key}".encode().ljust(4096, b".") for key in range(40)}

    def scenario():
        for key, value in values.items():
            yield from server.handle_put(key, value)
        lost = server.crash()
        assert not server.up
        with pytest.raises(NodeDownError):
            yield from server.handle_get(0)
        replayed = yield from server.restart()
        # every record still protected by the durable WAL came back
        assert replayed > 0 or lost == 0
        for key, value in values.items():
            got = yield from server.handle_get(key)
            assert got == value

    sim.run(until=sim.process(scenario()))
    assert server.crashes == 1 and server.restarts == 1


def test_crash_mid_request_is_a_transient_fault():
    sim = Simulator()
    server = durable_server(sim)

    def scenario():
        yield from server.handle_put(1, b"x" * 1024)
        proc = sim.process(server.handle_get(1))
        yield sim.timeout(10_000)  # crash while the get is queued on CPU
        server.crash()
        with pytest.raises(NodeDownError):
            yield proc
        yield from server.restart()
        got = yield from server.handle_get(1)
        assert got == b"x" * 1024

    sim.run(until=sim.process(scenario()))


def test_in_flight_flush_from_dead_epoch_is_discarded():
    sim = Simulator()
    server = durable_server(sim, memtable_bytes=32 * 1024)
    slice_ = server.slices[0]
    value = b"z" * 8192

    def scenario():
        # Enough puts to freeze patches and spawn background flushes.
        for key in range(16):
            yield from server.handle_put(key, value)
        server.crash()  # while flushes are still in flight
        yield from server.restart()
        for key in range(16):
            got = yield from server.handle_get(key)
            assert got == value

    sim.run(until=sim.process(scenario()))
    sim.run(until=sim.now + 2 * S)  # orphan flushes finish harmlessly
    # No patch is registered twice and nothing pending leaks.
    assert slice_.lsm.memtable is not None  # server is alive and consistent
    assert server.up
