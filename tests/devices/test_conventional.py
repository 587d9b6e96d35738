"""Unit/integration tests for the conventional-SSD baseline."""

from dataclasses import replace

import pytest

from repro.devices import (
    build_device,
    ConventionalSSD,
    HUAWEI_GEN3_SPEC,
    INTEL_320_SPEC,
)
from repro.faults import FaultPlan
from repro.interfaces.link import LinkDropError
from repro.sim import MS, Simulator, US
from repro.sim.units import mb_per_s

SCALE = 0.004  # 8 blocks per plane: tiny device, same timing behaviour


def gen3(sim, **kwargs):
    return build_device("conventional", sim, spec=HUAWEI_GEN3_SPEC, capacity_scale=SCALE, **kwargs)


def test_spec_scaling_touches_only_capacity():
    scaled = HUAWEI_GEN3_SPEC.scaled(0.01)
    assert scaled.geometry.page_size == HUAWEI_GEN3_SPEC.geometry.page_size
    assert scaled.geometry.blocks_per_plane < HUAWEI_GEN3_SPEC.geometry.blocks_per_plane
    assert scaled.timing == HUAWEI_GEN3_SPEC.timing


def test_capacity_reflects_op_and_parity():
    sim = Simulator()
    device = gen3(sim)
    # 4/44 channels are parity; 25% OP on the rest.
    expected = device.raw_bytes * (40 / 44) * 0.75
    assert device.user_bytes == pytest.approx(expected, rel=0.01)
    assert device.capacity_utilization == pytest.approx(0.68, abs=0.02)


def test_write_then_read_roundtrip():
    sim = Simulator()
    device = gen3(sim, store_data=True)

    def scenario():
        yield from device.write(0, 2, data="payload")
        yield from device.drain()
        return (yield from device.read(0, 2))

    data = sim.run(until=sim.process(scenario()))
    assert data == ["payload", "payload"]


def test_buffered_write_completes_fast_when_buffer_empty():
    """The Huawei Gen3's DRAM buffer: an 8 MB write is acknowledged in
    milliseconds (wire + buffering), not the ~360 ms flash takes."""
    sim = Simulator()
    device = gen3(sim)
    n_pages = (8 << 20) // device.page_size

    def scenario():
        yield from device.write(0, n_pages)

    sim.run(until=sim.process(scenario()))
    assert device.stats.write_latency.mean < 40 * MS


def test_unbuffered_write_waits_for_flash():
    sim = Simulator()
    spec = HUAWEI_GEN3_SPEC.scaled(SCALE)
    device = ConventionalSSD(sim, replace(spec, dram_buffer_bytes=0))

    def scenario():
        yield from device.write(0, 4)

    sim.run(until=sim.process(scenario()))
    # 4 pages, unbuffered: at least one full tPROG (1.4 ms).
    assert device.stats.write_latency.mean > 1 * MS


def test_read_envelope_matches_table4_calibration():
    """Single-request read latency fits r + n*c + flash + wire, which is
    what makes the Gen3's Table 4 size sweep come out right."""
    sim = Simulator()
    device = gen3(sim)
    device.prefill(0.2)
    spec = device.spec
    latencies = {}

    def scenario():
        for n_pages in (1, 8):
            start = sim.now
            yield from device.read(0, n_pages)
            latencies[n_pages] = sim.now - start

    sim.run(until=sim.process(scenario()))
    # Controller cost should appear in the delta between 8- and 1-page reads.
    delta = latencies[8] - latencies[1]
    assert delta >= 7 * spec.controller_read_ns_per_page


def test_gc_interference_creates_write_latency_variance():
    """On a nearly-full device, sustained writes hit GC and the
    (unbuffered) write latency spread widens -- Figure 8's mechanism."""
    sim = Simulator()
    spec = replace(
        HUAWEI_GEN3_SPEC.scaled(0.004),
        dram_buffer_bytes=0,
        n_channels=4,
        parity_group_size=None,
    )
    device = ConventionalSSD(sim, spec)
    device.prefill(1.0)
    # Functionally churn random overwrites until every channel sits at
    # the GC threshold, so the *timed* writes below all contend with GC.
    import numpy as np

    rng = np.random.default_rng(3)
    while max(
        device.ftl.free_blocks(c) for c in range(spec.n_channels)
    ) > device.ftl.gc_free_blocks:
        device.ftl.write(int(rng.integers(device.user_pages)), None)

    def writer():
        for burst in range(60):
            lpn = int(rng.integers(device.user_pages))
            yield from device.write(lpn, 4)

    sim.run(until=sim.process(writer()))
    rec = device.stats.write_latency
    timed_gc_runs = device.ftl.gc_runs
    assert timed_gc_runs > 0
    assert rec.maximum > 2 * rec.minimum  # spiky, not uniform


def test_striping_spreads_a_large_read_across_channels():
    sim = Simulator()
    device = gen3(sim)
    device.prefill(0.1)

    def scenario():
        yield from device.read(0, 64)  # 512 KB

    sim.run(until=sim.process(scenario()))
    busy_channels = sum(
        1 for engine in device.engines if engine.ops_executed.value > 0
    )
    assert busy_channels >= 30  # 64 pages over 40 data channels


def test_sequential_read_throughput_near_1_2_gb_per_s():
    """Table 4 / Table 1: Gen3 streams large reads at ~1.2 GB/s."""
    sim = Simulator()
    device = gen3(sim)
    device.prefill(0.5)
    n_requests, pages_per_request = 6, 1024  # 6 x 8 MB

    def reader():
        lpn = 0
        for _ in range(n_requests):
            yield from device.read(lpn, pages_per_request)
            lpn += pages_per_request

    sim.run(until=sim.process(reader()))
    total = n_requests * pages_per_request * device.page_size
    assert mb_per_s(total, sim.now) == pytest.approx(1200, rel=0.08)


def test_intel_320_read_stream_is_sata_class():
    sim = Simulator()
    device = build_device("conventional", sim, spec=INTEL_320_SPEC, capacity_scale=0.01)
    device.prefill(0.3)

    def reader():
        for request in range(4):
            yield from device.read(request * 256, 256)  # 2 MB requests

    sim.run(until=sim.process(reader()))
    total = 4 * 256 * device.page_size
    bandwidth = mb_per_s(total, sim.now)
    assert 150 < bandwidth < 240


def test_validation():
    sim = Simulator()
    device = gen3(sim)

    def bad_read():
        yield from device.read(0, 0)

    with pytest.raises(ValueError):
        sim.run(until=sim.process(bad_read()))
    with pytest.raises(ValueError):
        device.prefill(-0.1)


# -- dropped link transfers (the callback chain's fault contract) ---------------------


def drop_link_transfer(device, at_op):
    """Drop the ``at_op``-th page DMA submitted to ``device``'s link."""
    plan = FaultPlan(seed=0)
    plan.add("link", "drop", at_op=at_op)
    plan.attach(device)
    return plan


def run_dropped_request(sim, device, request, follow_up):
    """Drive ``request()`` (expected to lose a DMA) then ``follow_up()``
    from one caller; returns how often the caller saw the drop."""
    seen = []

    def caller():
        try:
            yield from request()
        except LinkDropError as exc:
            seen.append(exc)
        yield from device.drain()
        return (yield from follow_up())

    result = sim.run(until=sim.process(caller()))
    sim.run()  # the failed request's surviving pages finish; nothing escapes
    assert len(seen) == 1
    assert device.buffer_level == 0
    assert not device._pending_pages
    return result


def test_failed_read_does_not_leak_open_reads():
    """A read that loses a page DMA must leave the congestion counter
    where it found it (it used to stay incremented forever)."""
    sim = Simulator()
    device = gen3(sim)
    device.prefill(0.2)
    drop_link_transfer(device, at_op=2)
    run_dropped_request(
        sim, device, lambda: device.read(0, 4), lambda: device.read(8, 4)
    )
    assert device._open_reads == 0
    assert len(device.stats.read_latency) == 1  # only the follow-up completed


def test_dropped_read_page_fails_only_its_request():
    sim = Simulator()
    device = gen3(sim, store_data=True)
    drop_link_transfer(device, at_op=4)  # 2 write DMAs, then the read's 2nd

    def request():
        yield from device.write(0, 2, data="kept")
        yield from device.drain()
        yield from device.read(0, 4)

    data = run_dropped_request(sim, device, request, lambda: device.read(0, 2))
    assert data == ["kept", "kept"]
    # The failed read's three surviving pages still crossed the link.
    assert len(device.link.read_meter.samples) == 3 + 2


def test_dropped_dma_fails_a_buffered_write_and_the_buffer_still_drains():
    sim = Simulator()
    device = gen3(sim, store_data=True)
    drop_link_transfer(device, at_op=3)
    data = run_dropped_request(
        sim,
        device,
        lambda: device.write(0, 8, data="lost"),
        lambda: device.read(0, 3),
    )
    # Pages 0-1 were buffered before the drop and reached flash.
    assert data == ["lost", "lost", None]
    assert device.ftl.user_programs == 2
    assert len(device.stats.write_latency) == 0


def test_dropped_dma_fails_a_parked_writer_without_breaking_the_flusher():
    """The drop hits a writer whose continuation runs inside a flusher's
    completion callback (one-page buffer: every page parks)."""
    sim = Simulator()
    spec = replace(
        HUAWEI_GEN3_SPEC.scaled(SCALE),
        dram_buffer_bytes=HUAWEI_GEN3_SPEC.geometry.page_size,
    )
    device = ConventionalSSD(sim, spec)
    drop_link_transfer(device, at_op=4)
    run_dropped_request(
        sim, device, lambda: device.write(0, 8), lambda: device.write(64, 8)
    )
    assert device.ftl.user_programs == 3 + 8
    assert len(device.stats.write_latency) == 1


def test_dropped_dma_fails_an_unbuffered_write():
    sim = Simulator()
    spec = replace(HUAWEI_GEN3_SPEC.scaled(SCALE), dram_buffer_bytes=0)
    device = ConventionalSSD(sim, spec)
    drop_link_transfer(device, at_op=3)
    run_dropped_request(
        sim, device, lambda: device.write(0, 4), lambda: device.write(8, 4)
    )
    assert device.ftl.user_programs == 2 + 4
    assert len(device.stats.write_latency) == 1


def test_buffer_smaller_than_a_page_is_rejected():
    spec = replace(HUAWEI_GEN3_SPEC.scaled(SCALE), dram_buffer_bytes=4096)
    with pytest.raises(ValueError, match="cannot hold one flash page"):
        ConventionalSSD(Simulator(), spec)
