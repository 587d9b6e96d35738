"""Unit tests for host links, I/O stack models and interrupt coalescing."""

import pytest

from repro.faults import FaultPlan
from repro.faults.injector import NULL_INJECTOR
from repro.interfaces import (
    HostLink,
    InterruptCoalescer,
    IOStackModel,
    KERNEL_IO_STACK,
    LinkSpec,
    PCIE_1_1_X8,
    SATA_2_0,
    SDF_USER_SPACE_STACK,
)
from repro.sim import MB, Simulator, US
from repro.sim.units import mb_per_s


def run_transfers(spec, transfers):
    """transfers: list of (direction, nbytes); returns (elapsed, link)."""
    sim = Simulator()
    link = HostLink(sim, spec)
    procs = [
        sim.process(link.transfer(direction, nbytes))
        for direction, nbytes in transfers
    ]
    sim.run(until=sim.all_of(procs))
    return sim.now, link


def test_pcie_read_bandwidth_is_paper_effective_rate():
    elapsed, _ = run_transfers(PCIE_1_1_X8, [("read", 64 * MB)])
    assert mb_per_s(64 * MB, elapsed) == pytest.approx(1610, rel=0.01)


def test_pcie_write_bandwidth():
    elapsed, _ = run_transfers(PCIE_1_1_X8, [("write", 64 * MB)])
    assert mb_per_s(64 * MB, elapsed) == pytest.approx(1400, rel=0.01)


def test_full_duplex_directions_do_not_contend():
    elapsed, _ = run_transfers(
        PCIE_1_1_X8, [("read", 16 * MB), ("write", 16 * MB)]
    )
    solo, _ = run_transfers(PCIE_1_1_X8, [("read", 16 * MB)])
    assert elapsed == pytest.approx(
        max(solo, int(16 * MB / (1400e6 / 1e9))), rel=0.02
    )


def test_sata_is_half_duplex():
    elapsed, _ = run_transfers(SATA_2_0, [("read", 8 * MB), ("write", 8 * MB)])
    one_way, _ = run_transfers(SATA_2_0, [("read", 8 * MB)])
    assert elapsed == pytest.approx(2 * one_way, rel=0.02)


def test_concurrent_reads_share_fairly_via_chunking():
    """Two equal concurrent transfers finish together at half rate each,
    instead of strictly one-after-the-other."""
    sim = Simulator()
    link = HostLink(sim, PCIE_1_1_X8)
    finish = {}

    def mover(tag):
        yield from link.transfer("read", 8 * MB)
        finish[tag] = sim.now

    sim.process(mover("a"))
    sim.process(mover("b"))
    sim.run()
    assert finish["a"] == pytest.approx(finish["b"], rel=0.05)


def test_link_rule_added_mid_run_never_exceeds_the_link_cap():
    """Regression: the link used to keep two lane models and re-choose
    between them per transfer, so a (never-firing) fault rule added
    mid-run booked both at once and the PCIe link carried up to
    2228 MB/s.  One lane model: the rule changes nothing."""
    from repro.devices import build_device
    from repro.faults import FaultPlan
    from repro.sim import MS

    window_ns = 250 * US

    def run(add_rule):
        sim = Simulator()
        sdf = build_device("sdf", sim, capacity_scale=0.004)
        plan = FaultPlan(seed=1)
        plan.attach(sdf)
        sdf.prefill(1.0)

        def reader(dev, n_pages):
            while sim.now < 20 * MS:
                yield from dev.read(0, 0, n_pages=n_pages)

        def late_rule():
            yield sim.timeout(10_137 * US)
            plan.add("link", "delay", rate=1e-9, delay_ns=1)

        procs = [
            sim.process(reader(dev, (dev.channel % 7 + 1) * 16))
            for dev in sdf.channels
        ]
        if add_rule:
            sim.process(late_rule())
        sim.run(until=sim.all_of(procs))
        return sdf.link, (
            sim.now,
            tuple(sdf.link.read_meter.samples),
            tuple(sdf.stats.read_latency.samples),
        )

    link, with_rule = run(add_rule=True)
    _, without_rule = run(add_rule=False)
    assert with_rule == without_rule
    # A window's completions occupied the lane inside it, bar the head
    # of the first page: at most the cap plus one page.
    page = 8192
    cap_bytes = link.spec.read_mb_per_s * 1e6 * window_ns / 1e9 + page
    end = with_rule[0]
    assert end > 20 * MS
    for t0 in range(0, end, window_ns):
        assert link.read_meter.bytes_in(t0, t0 + window_ns) <= cap_bytes


def test_transfer_validation():
    sim = Simulator()
    link = HostLink(sim, PCIE_1_1_X8)
    with pytest.raises(ValueError):
        sim.run(until=sim.process(link.transfer("sideways", 100)))
    with pytest.raises(ValueError):
        sim.run(until=sim.process(link.transfer("read", -1)))


def test_zero_byte_transfer_costs_only_overhead():
    elapsed, _ = run_transfers(PCIE_1_1_X8, [("read", 0)])
    assert elapsed == PCIE_1_1_X8.per_transfer_overhead_ns


def test_link_spec_validation():
    with pytest.raises(ValueError):
        LinkSpec("bad", 0, 100)
    with pytest.raises(ValueError):
        LinkSpec("bad", 100, 100, chunk_bytes=0)
    with pytest.raises(ValueError):
        LinkSpec("bad", 100, 100, per_transfer_overhead_ns=-1)


def test_link_meters_record_traffic():
    _, link = run_transfers(PCIE_1_1_X8, [("read", MB), ("write", 2 * MB)])
    assert link.read_meter.total_bytes == MB
    assert link.write_meter.total_bytes == 2 * MB


def test_iostack_totals_match_paper():
    assert KERNEL_IO_STACK.total_ns == pytest.approx(12_900, abs=100)
    assert 2_000 <= SDF_USER_SPACE_STACK.total_ns <= 4_000
    assert KERNEL_IO_STACK.total_ns > 3 * SDF_USER_SPACE_STACK.total_ns


def test_iostack_validation():
    with pytest.raises(ValueError):
        IOStackModel("bad", -1, 0)


def test_interrupt_coalescer_merges_within_window():
    sim = Simulator()
    coalescer = InterruptCoalescer(sim, window_ns=20 * US, handler_ns=4 * US)
    log = []

    def completions():
        for _ in range(10):
            log.append(coalescer.on_completion())
            yield sim.timeout(5 * US)  # 4 completions per 20 us window

    sim.run(until=sim.process(completions()))
    # 10 completions over 50 us with 20 us windows -> ~3 interrupts.
    assert coalescer.interrupts.value <= 4
    assert 0.2 <= coalescer.merge_ratio <= 0.45


def test_interrupt_coalescer_sparse_completions_not_merged():
    sim = Simulator()
    coalescer = InterruptCoalescer(sim, window_ns=10 * US)

    def completions():
        for _ in range(5):
            coalescer.on_completion()
            yield sim.timeout(100 * US)

    sim.run(until=sim.process(completions()))
    assert coalescer.merge_ratio == 1.0


def test_interrupt_coalescer_validation_and_empty_ratio():
    sim = Simulator()
    with pytest.raises(ValueError):
        InterruptCoalescer(sim, window_ns=-1)
    assert InterruptCoalescer(sim).merge_ratio == 1.0


def test_reserve_ahead_books_the_lane_without_an_event():
    """A single-chunk transfer's end is known at submission: the lane
    is held until then, nothing is scheduled, and a later ``transfer``
    queues behind it (relaying at its grant: no end event to chain
    from)."""
    sim = Simulator()
    link = HostLink(sim, PCIE_1_1_X8)
    expected, _ = run_transfers(PCIE_1_1_X8, [("write", 8192)])
    end = link.reserve_ahead("write", 8192)
    assert end == expected
    assert link.reserve_ahead("write", 8192) == 2 * expected
    assert sim._seq == 0 and sim.peek() is None
    assert link.reserve_ahead("read", 8192) < expected  # its own lane
    sim.run(until=sim.process(link.transfer("write", 8192)))
    assert sim.now == 3 * expected


def test_reserve_ahead_declines_what_it_cannot_foresee():
    sim = Simulator()
    link = HostLink(sim, PCIE_1_1_X8)
    chunk = PCIE_1_1_X8.chunk_bytes
    assert link.reserve_ahead("write", chunk) is not None
    # Multi-chunk transfers re-queue per chunk; a wired injector may
    # drop or delay: neither end is known now, and nothing is reserved.
    before = link.reserve_ahead("write", 0)
    assert link.reserve_ahead("write", chunk + 1) is None
    plan = FaultPlan(seed=1)
    plan.add("link", "delay", rate=1e-12, delay_ns=1)
    plan.bind_clock(sim)
    link.faults = plan.injector("link")
    assert link.reserve_ahead("write", 8192) is None
    link.faults = NULL_INJECTOR
    assert link.reserve_ahead("write", 0) == before + 100
    with pytest.raises(ValueError):
        link.reserve_ahead("sideways", 123)
    with pytest.raises(ValueError):
        link.reserve_ahead("read", -1)
