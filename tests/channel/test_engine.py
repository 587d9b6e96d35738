"""Unit tests for the timed channel engine, including the pipelining
rules that reproduce the paper's per-channel bandwidth arithmetic."""

import pytest

from repro.channel import ChannelEngine, build_engines
from repro.ftl.ops import erase_op, program_op, read_op
from repro.nand import MICRON_25NM_MLC, SDF_CHIP_GEOMETRY
from repro.nand.array import PhysicalAddress
from repro.sim import Event, Simulator, US
from repro.sim.units import mb_per_s
from tests.channel.golden import check_golden
from tests.channel.reference_engine import (
    execute,
    execute_all,
    execute_batch,
    execute_sequential,
)

PAGE = SDF_CHIP_GEOMETRY.page_size  # 8 KiB
TIMING = MICRON_25NM_MLC


def make_engine(sim):
    return ChannelEngine(
        sim,
        channel=0,
        geometry=SDF_CHIP_GEOMETRY,
        timing=TIMING,
        chips_per_channel=2,
    )


def addr(chip=0, plane=0, block=0, page=0):
    return PhysicalAddress(0, chip, plane, block, page)


def run_ops(ops, sequential=False):
    sim = Simulator()
    engine = make_engine(sim)

    def proc():
        if sequential:
            yield from execute_sequential(engine, ops)
        else:
            yield from execute_all(engine, ops)

    sim.run(until=sim.process(proc()))
    return sim.now, engine


def test_single_page_read_time():
    # tR + bus transfer: 75 us + (5 us + 8 KiB / 40 MB/s = 204.8 us).
    elapsed, _ = run_ops([read_op(addr(), PAGE)])
    assert elapsed == pytest.approx(75 * US + 5 * US + 204_800, rel=0.01)


def test_single_page_program_time():
    # bus transfer + tPROG.
    elapsed, _ = run_ops([program_op(addr(), PAGE)])
    assert elapsed == pytest.approx(209_800 + 1_400_000, rel=0.01)


def test_erase_time_is_3ms():
    elapsed, _ = run_ops([erase_op(addr())])
    assert elapsed == pytest.approx(3_000_000, rel=0.01)


def test_reads_on_one_plane_pipeline_cell_and_bus():
    """N same-plane reads take ~ tR + N * bus, not N * (tR + bus):
    the next sense overlaps the previous transfer."""
    ops = [read_op(addr(page=i), PAGE) for i in range(8)]
    elapsed, _ = run_ops(ops)
    assert elapsed == pytest.approx(75 * US + 8 * 209_800, rel=0.02)


def test_programs_on_different_planes_share_bus_but_program_in_parallel():
    """4-plane programming: the bus streams 4 pages while the planes
    program concurrently -> ~ 4*bus + tPROG for the batch."""
    ops = [
        program_op(PhysicalAddress(0, chip, plane, 0, 0), PAGE)
        for chip in range(2)
        for plane in range(2)
    ]
    elapsed, _ = run_ops(ops)
    assert elapsed == pytest.approx(4 * 209_800 + 1_400_000, rel=0.02)


def test_sequential_execution_does_not_pipeline():
    ops = [read_op(addr(page=i), PAGE) for i in range(4)]
    pipelined, _ = run_ops(ops)
    serialized, _ = run_ops(ops, sequential=True)
    assert serialized == pytest.approx(4 * (75 * US + 209_800), rel=0.02)
    assert serialized > pipelined


def test_channel_write_bandwidth_matches_paper_raw():
    """Sustained 4-plane programming ~ 23 MB/s per channel -- the
    plane-limited raw write bandwidth behind the paper's 1.01 GB/s."""
    n_pages_per_plane = 32
    ops = [
        program_op(PhysicalAddress(0, chip, plane, 0, page), PAGE)
        for page in range(n_pages_per_plane)
        for chip in range(2)
        for plane in range(2)
    ]
    elapsed, _ = run_ops(ops)
    bandwidth = mb_per_s(len(ops) * PAGE, elapsed)
    assert bandwidth == pytest.approx(23.4, rel=0.05)


def test_channel_read_bandwidth_matches_paper_raw():
    """Sustained reads are bus-limited at ~ 38-39 MB/s per channel --
    44x gives the paper's 1.67-1.7 GB/s raw read bandwidth."""
    ops = [
        read_op(PhysicalAddress(0, chip, plane, 0, page), PAGE)
        for page in range(16)
        for chip in range(2)
        for plane in range(2)
    ]
    elapsed, _ = run_ops(ops)
    bandwidth = mb_per_s(len(ops) * PAGE, elapsed)
    assert bandwidth == pytest.approx(39.0, rel=0.03)


def test_erase_holds_plane_but_not_bus():
    """A read on another plane proceeds during an erase; a read on the
    erased plane waits for tBERS."""
    sim = Simulator()
    engine = make_engine(sim)
    finish_times = {}

    def run(tag, op):
        yield from execute(engine, op)
        finish_times[tag] = sim.now

    sim.process(run("erase", erase_op(addr(plane=0))))
    sim.process(run("read-other-plane", read_op(addr(plane=1), PAGE)))
    sim.process(run("read-same-plane", read_op(addr(plane=0, page=1), PAGE)))
    sim.run()
    assert finish_times["read-other-plane"] < 400 * US
    assert finish_times["read-same-plane"] > 3_000 * US


def test_wrong_channel_rejected():
    sim = Simulator()
    engine = make_engine(sim)
    bad = read_op(PhysicalAddress(3, 0, 0, 0, 0), PAGE)
    with pytest.raises(ValueError, match="channel"):
        engine.execute_batch_call([bad], lambda: None)
    with pytest.raises(ValueError, match="channel"):
        engine.read_ahead([bad])


def test_counters_track_ops():
    _, engine = run_ops(
        [read_op(addr(), PAGE), program_op(addr(plane=1), PAGE)]
    )
    assert engine.ops_executed.value == 2
    assert engine.busy_value() > 0


def test_build_engines_creates_independent_channels():
    sim = Simulator()
    engines = build_engines(sim, 4, SDF_CHIP_GEOMETRY, TIMING)
    assert len(engines) == 4
    assert [e.channel for e in engines] == [0, 1, 2, 3]
    sim.run(until=sim.process(execute(engines[0], read_op(addr(), PAGE))))
    assert engines[0].busy_value() > 0
    assert engines[1].busy_value() == 0


def test_busy_excludes_queue_wait():
    """Regression: busy time used to include queue wait, so
    'utilisation' could exceed 100%.  Two reads contending for the same
    plane: the second op's wait must land in wait_ns, not busy time."""
    ops = [read_op(addr(page=i), PAGE) for i in range(8)]
    elapsed, engine = run_ops(ops)
    assert engine.busy_value() <= elapsed
    assert engine.wait_ns.value > 0
    # Old accounting summed per-op latency (wait included), far above
    # the wall clock; the union of service intervals never is.
    per_op_total = 8 * (75 * US + 209_800)
    assert engine.busy_value() < per_op_total


def test_utilization_is_a_fraction_under_heavy_contention():
    ops = [read_op(addr(page=i), PAGE) for i in range(32)]
    sim = Simulator()
    engine = make_engine(sim)

    def proc():
        yield from execute_all(engine, ops)

    sim.run(until=sim.process(proc()))
    assert 0.0 < engine.utilization() <= 1.0
    # Saturated single-plane pipeline: the channel is nearly always busy.
    assert engine.utilization() > 0.9


def test_utilization_counts_overlapping_planes_once():
    """Four planes programming concurrently: summed service time spans
    ~4x tPROG, but the busy *union* cannot exceed the wall clock."""
    ops = [
        program_op(PhysicalAddress(0, chip, plane, 0, 0), PAGE)
        for chip in range(2)
        for plane in range(2)
    ]
    elapsed, engine = run_ops(ops)
    assert engine.busy_value() <= elapsed
    assert engine.utilization(elapsed) <= 1.0


def test_idle_engine_reports_zero_utilization():
    sim = Simulator()
    engine = make_engine(sim)
    assert engine.utilization() == 0.0
    assert engine.wait_ns.value == 0


@pytest.mark.parametrize("n_ops", [4, 9, 24])
def test_erase_batch_matches_generator_and_per_op(n_ops):
    """An all-ERASE ``execute_batch`` must finish at the same instant
    with the same counters as a per-op ``execute_fast`` submission --
    and both at the schedule the generator path recorded."""
    geometry = SDF_CHIP_GEOMETRY.scaled(0.01)

    def erase_ops(n):
        planes = geometry.planes_per_chip
        return [
            erase_op(PhysicalAddress(0, index % 2, index % planes, index % 8, 0))
            for index in range(n)
        ]

    def run(batched, stagger):
        sim = Simulator()
        engine = build_engines(sim, 1, geometry, TIMING, 2)[0]
        done = {}

        def submit(ops):
            if batched:
                yield from execute_batch(engine, ops)
                return
            finished = Event(sim)
            remaining = [len(ops)]

            def one_done():
                remaining[0] -= 1
                if not remaining[0]:
                    finished.succeed()

            for op in ops:
                engine.execute_fast(op, one_done)
            yield finished

        def scenario():
            yield from submit(erase_ops(n_ops))
            if stagger:
                yield sim.timeout(1_000)
                yield from submit(erase_ops(5))
            done["at"] = sim.now

        sim.run(until=sim.process(scenario()))
        return (
            done["at"],
            engine.ops_executed.value,
            engine.wait_ns.value,
            engine.busy_value(sim.now),
        )

    for stagger in (False, True):
        batched = run(True, stagger)
        assert batched == run(False, stagger)
        check_golden(f"erase_batch[{n_ops}-{stagger}]", batched)
