"""Unit/integration tests for the SDF device model."""

import pytest

from repro.devices import build_device
from repro.faults import DELAY, DROP, FaultPlan
from repro.faults.injector import NULL_INJECTOR
from repro.ftl import EraseBeforeWriteError
from repro.interfaces.link import LinkDropError
from repro.sim import MS, Simulator, US
from repro.sim.units import mb_per_s


def small_sdf(sim, n_channels=4, capacity_scale=0.004):
    # 0.004 * 2048 = 8 blocks per plane: tiny but fully functional.
    return build_device("sdf", sim, capacity_scale=capacity_scale, n_channels=n_channels)


def test_channel_devices_are_exposed_individually():
    sim = Simulator()
    sdf = small_sdf(sim)
    assert len(sdf.channels) == 4
    assert sdf.channels[2].channel == 2
    assert "sda2" in repr(sdf.channels[2])


def test_capacity_is_99_percent_of_raw():
    sim = Simulator()
    sdf = build_device("sdf", sim, capacity_scale=0.05, n_channels=44)
    assert sdf.capacity_utilization == pytest.approx(0.99, abs=0.011)


def test_asymmetric_interface_write_read_roundtrip():
    sim = Simulator()
    sdf = small_sdf(sim)
    channel = sdf.channels[0]
    pages = [f"page-{i}" for i in range(channel.pages_per_logical_block)]

    def scenario():
        yield from channel.write(3, pages)
        first = yield from channel.read(3, 0, 1)
        middle = yield from channel.read(3, 5, 2)
        return first, middle

    first, middle = sim.run(until=sim.process(scenario()))
    assert first == ["page-0"]
    assert middle == ["page-5", "page-6"]


def test_write_requires_erase_between_rewrites():
    sim = Simulator()
    sdf = small_sdf(sim)
    channel = sdf.channels[0]

    def scenario():
        yield from channel.write(0)
        yield from channel.write(0)

    with pytest.raises(EraseBeforeWriteError):
        sim.run(until=sim.process(scenario()))


def test_erase_then_write_fresh_cycle():
    sim = Simulator()
    sdf = small_sdf(sim)
    channel = sdf.channels[0]

    def scenario():
        yield from channel.write(0)
        yield from channel.erase(0)
        yield from channel.write(0)
        yield from channel.write_fresh(0)  # erase+write in one call

    sim.run(until=sim.process(scenario()))
    assert sdf.stats.erase_latency.samples  # explicit erases recorded


def test_single_8k_read_latency_is_about_290_us():
    """Paper arithmetic: tR (75) + bus (210) + PCIe + software ~ 290 us.

    44 channels at this latency = the 1.23 GB/s of Table 4."""
    sim = Simulator()
    sdf = small_sdf(sim)
    channel = sdf.channels[0]

    def scenario():
        yield from channel.write(0)
        sdf.stats.reset()
        yield from channel.read(0, 0, 1)

    sim.run(until=sim.process(scenario()))
    latency = sdf.stats.read_latency.mean
    assert 270 * US < latency < 320 * US


def test_8mb_erase_plus_write_latency_is_about_380_ms():
    """Figure 8: SDF erase+write of one 8 MB block ~ 383 ms."""
    sim = Simulator()
    sdf = build_device("sdf", sim, capacity_scale=0.004, n_channels=1)
    channel = sdf.channels[0]

    def scenario():
        yield from channel.write(0)
        start = sim.now
        yield from channel.erase(0)
        yield from channel.write(0)
        return sim.now - start

    latency = sim.run(until=sim.process(scenario()))
    assert 340 * MS < latency < 420 * MS


def test_erase_latency_is_about_3ms():
    sim = Simulator()
    sdf = small_sdf(sim)
    channel = sdf.channels[0]

    def scenario():
        yield from channel.write(0)
        sdf.stats.reset()
        yield from channel.erase(0)

    sim.run(until=sim.process(scenario()))
    assert sdf.stats.erase_latency.mean == pytest.approx(3 * MS, rel=0.1)


def test_channels_serve_requests_independently():
    """Two channels serve one 8 KB read each in the same wall-clock time
    one channel takes for one -- the core scaling property."""

    def run(n_channels):
        sim = Simulator()
        sdf = small_sdf(sim, n_channels=n_channels)

        def reader(channel):
            yield from channel.write(0)
            yield from channel.read(0, 0, 1)

        procs = [
            sim.process(reader(sdf.channels[i])) for i in range(n_channels)
        ]
        sim.run(until=sim.all_of(procs))
        return sim.now

    assert run(2) == pytest.approx(run(1), rel=0.02)


def test_per_channel_write_bandwidth_near_raw():
    """One channel's sustained 8 MB writes land near the 23 MB/s raw
    plane-limited bandwidth (94% of raw across the device = Table 4)."""
    sim = Simulator()
    sdf = build_device("sdf", sim, capacity_scale=0.004, n_channels=1)
    channel = sdf.channels[0]
    n_blocks = 4

    def writer():
        for block in range(n_blocks):
            yield from channel.write(block)

    sim.run(until=sim.process(writer()))
    bandwidth = mb_per_s(n_blocks * channel.logical_block_bytes, sim.now)
    assert bandwidth == pytest.approx(23.0, rel=0.07)


def test_prefill_marks_blocks_without_simulated_time():
    sim = Simulator()
    sdf = small_sdf(sim)
    written = sdf.prefill(0.5)
    assert written > 0
    assert sim.now == 0
    assert sdf.ftls[0].is_mapped(0)


def test_prefill_validation():
    sim = Simulator()
    sdf = small_sdf(sim)
    with pytest.raises(ValueError):
        sdf.prefill(1.5)


# -- read completion when only some pages' DMAs are reserved ahead -----------------------


def _read_with_link_injector(wired_from, wired_until, plan=None, n_pages=12):
    """One ``n_pages`` read on an idle channel whose link has an
    injector holding a rule wired during ``[wired_from, wired_until)``:
    the pages that ask for their DMA then go through ``reserve_call``
    and a ``landed`` event, the others are reserved ahead.  (A wired
    injector holding *no* DROP or DELAY rule is no injector; the
    default plan's one rule never matches a read.)  Returns (sim, sdf,
    process)."""
    sim = Simulator()
    sdf = small_sdf(sim, n_channels=1)
    sdf.prefill(0.5)
    if plan is None:
        plan = FaultPlan().add(
            "link", DELAY, delay_ns=1, where={"direction": "write"}
        )
    injector = plan.injector("link")
    sim._schedule_call(lambda: setattr(sdf.link, "faults", injector), wired_from)
    sim._schedule_call(
        lambda: setattr(sdf.link, "faults", NULL_INJECTOR), wired_until
    )
    proc = sim.process(sdf.channels[0].read(0, 0, n_pages))
    return sim, sdf, proc


#: The instant page ``k`` (from 0) of a read submitted at 0 on an idle
#: channel asks the link for its DMA: submit, first sense, k + 1 buses.
def _bus_end(sdf, k):
    timing = sdf.engines[0].timing
    return (
        sdf.iostack.submit_ns
        + timing.t_read_ns
        + (k + 1) * timing.bus_transfer_ns(sdf.page_size)
    )


@pytest.mark.parametrize(
    "first_evented, last_evented",
    [(4, 12), (0, 5), (3, 9)],
    ids=["wired-mid-request", "unwired-mid-request", "wired-for-a-while"],
)
def test_read_ends_at_the_latest_dma_end_of_either_kind(first_evented, last_evented):
    """With the last pages reserved ahead, counting a page down when
    its DMA is *booked* would end the request at the last bus end."""
    probe = small_sdf(Simulator(), n_channels=1)
    sim, sdf, proc = _read_with_link_injector(
        _bus_end(probe, first_evented) - 1, _bus_end(probe, last_evented) - 1
    )
    sim.run(until=proc)
    finished = sim.now
    sim.run()
    evented = last_evented - first_evented
    # Per evented page one ``landed`` event more than an ahead page
    # (and the two timers that wire and unwire the injector).
    ahead_only = Simulator()
    ahead_sdf = small_sdf(ahead_only, n_channels=1)
    ahead_sdf.prefill(0.5)
    ahead_only.run(until=ahead_only.process(ahead_sdf.channels[0].read(0, 0, 12)))
    assert sim._seq == ahead_only._seq + evented + 2
    # Same instants as the all-ahead run: a rule that never fires
    # changes how a DMA is booked, not when.
    assert finished == ahead_only.now
    assert sdf.link.read_meter.samples == ahead_sdf.link.read_meter.samples
    last_dma_end = sdf.link.read_meter.samples[-1][0]
    assert last_dma_end > _bus_end(sdf, 11)
    completion = sdf.interrupts.handler_ns + sdf.iostack.complete_ns
    assert finished == last_dma_end + completion


def test_delayed_page_behind_pages_reserved_ahead_still_ends_the_request():
    """Page 2's DMA is delayed past every later page's: the request
    ends when it lands, long after the last countdown of the others."""
    probe = small_sdf(Simulator(), n_channels=1)
    plan = FaultPlan()
    plan.add("link", DELAY, at_op=1, delay_ns=20 * MS)
    sim, sdf, proc = _read_with_link_injector(
        _bus_end(probe, 2) - 1, _bus_end(probe, 3) - 1, plan
    )
    sim.run(until=proc)
    dma_ns = sdf.link.read_meter.samples[0][0] - _bus_end(sdf, 0)
    completion = sdf.interrupts.handler_ns + sdf.iostack.complete_ns
    assert sim.now == _bus_end(sdf, 2) + 20 * MS + dma_ns + completion
    assert len(sdf.link.read_meter.samples) == 12


def test_dropped_pages_fail_a_partly_ahead_read_exactly_once():
    """Two drops among the evented pages: the first fails the request,
    the second finds it failed; the other pages land, the countdown
    never reaches zero, and the channel serves the next read."""
    probe = small_sdf(Simulator(), n_channels=1)
    plan = FaultPlan()
    plan.add("link", DROP, at_op=2)
    plan.add("link", DROP, at_op=4)
    sim, sdf, proc = _read_with_link_injector(
        _bus_end(probe, 3) - 1, _bus_end(probe, 9) - 1, plan
    )
    with pytest.raises(LinkDropError):
        sim.run(until=proc)
    assert sim.now == _bus_end(sdf, 4)
    sim.run()  # the ten surviving pages land; nothing fires twice
    assert plan.fault_count("link", DROP) == 2
    assert len(sdf.link.read_meter.samples) == 10
    assert sdf.stats.requests.value == 0
    again = sim.process(sdf.channels[0].read(0, 0, 2))
    sim.run(until=again)
    assert sdf.stats.requests.value == 1
