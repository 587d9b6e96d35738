"""PROGRAMs reserved ahead of their request instants.

``ChannelEngine.program_ahead(op, request_ns)`` must be
indistinguishable from ``execute_fast(op)`` called at ``request_ns``,
whatever reaches the bus or the plane in between.  Every scenario here
runs twice -- programs reserved ahead, and the same programs submitted
by a timer at their request instant -- and compares completion
instants, counters and busy time sampled along the way.
"""

import pytest

from repro.channel.engine import ChannelEngine
from repro.devices.sdf import SDFDevice
from repro.ftl.ops import erase_op, program_op, read_op
from repro.nand.array import PhysicalAddress
from repro.nand.catalog import MICRON_25NM_MLC, SDF_CHIP_GEOMETRY
from repro.nand.geometry import FlashGeometry
from repro.obs import Observability, attach_device
from repro.qos.limits import ChannelQosState
from repro.sim import Simulator, US

PAGE = SDF_CHIP_GEOMETRY.page_size
TIMING = MICRON_25NM_MLC
BUS_NS = TIMING.bus_transfer_ns(PAGE)  # 209.8 us
CHECKPOINTS = tuple(step * 50 * US for step in range(1, 140))


def addr(chip=0, plane=0, page=0):
    return PhysicalAddress(0, chip, plane, 0, page)


def program(at, request, chip=0, plane=0):
    """A PROGRAM whose DMA is asked for at ``at`` and lands at
    ``request``."""
    return ("program", at, request, program_op(addr(chip, plane), PAGE))


def submit(at, *ops):
    """Ops submitted the ordinary way at ``at`` (a batch when several)."""
    return ("submit", at, None, list(ops))


def run(script, ahead):
    """Play ``script``; returns (completions, samples, events)."""
    sim = Simulator()
    engine = ChannelEngine(sim, 0, SDF_CHIP_GEOMETRY, TIMING, 2)
    finished = {}

    def finish(tag):
        return lambda: finished.setdefault(tag, sim.now)

    for tag, (kind, at, request, what) in enumerate(script):
        if kind == "submit":
            sim._schedule_call(
                lambda what=what, tag=tag: engine.execute_batch_call(
                    what, finish(tag)
                ),
                at,
            )
        elif ahead:
            sim._schedule_call(
                lambda what=what, request=request, tag=tag: (
                    engine.program_ahead(what, request, finish(tag))
                ),
                at,
            )
        else:
            sim._schedule_call(
                lambda what=what, tag=tag: engine.execute_fast(
                    what, finish(tag)
                ),
                request,
            )
    samples = []
    for checkpoint in CHECKPOINTS:
        sim.run(until=checkpoint)
        samples.append(
            (
                engine.ops_executed.value,
                engine.wait_ns.value,
                engine.busy_value(),
                engine.utilization(),
            )
        )
    sim.run()
    assert len(finished) == len(script)
    assert not engine._ahead or engine._ahead[0].plane_req <= sim.now
    return finished, samples, sim._seq


def both(script):
    """Asserts the two ways agree; returns (completions, ahead events,
    per-phase events)."""
    finished, samples, events = run(script, ahead=True)
    expected, expected_samples, expected_events = run(script, ahead=False)
    assert finished == expected
    assert samples == expected_samples
    return finished, events, expected_events


def test_undisturbed_program_costs_one_event():
    finished, events, per_phase = both([program(0, 100 * US)])
    assert finished[0] == 100 * US + BUS_NS + TIMING.t_prog_ns
    # The script's own timer, then: one end event against bus + plane.
    assert (events, per_phase) == (2, 3)


def test_plane_intruder_between_bus_request_and_bus_end():
    """An erase takes the plane while the page is still on the bus: the
    program, reserved on an idle plane (end event already in the heap),
    goes behind it."""
    erase_at = 150 * US
    finished, _, _ = both(
        [program(0, 100 * US), submit(erase_at, erase_op(addr()))]
    )
    assert finished[1] == erase_at + TIMING.t_erase_ns
    assert finished[0] == finished[1] + TIMING.t_prog_ns


def test_plane_intruder_behind_a_chained_program():
    """Two programs on one plane, the second chained off the first's end
    event; a read sense arriving before either reaches the plane
    unhooks both and goes first."""
    finished, _, _ = both(
        [
            program(0, 100 * US),
            program(0, 110 * US),
            submit(120 * US, read_op(addr(page=3), PAGE)),
        ]
    )
    first_bus_end = 100 * US + BUS_NS
    assert finished[0] == first_bus_end + TIMING.t_prog_ns
    assert finished[1] == finished[0] + TIMING.t_prog_ns
    # The read's data waits for the two pages ahead of it on the bus.
    assert finished[2] == first_bus_end + 2 * BUS_NS


def test_plane_intruder_leaves_other_planes_alone():
    finished, _, _ = both(
        [
            program(0, 100 * US, plane=0),
            program(0, 110 * US, plane=1),
            submit(150 * US, erase_op(addr(plane=1))),
        ]
    )
    assert finished[0] == 100 * US + BUS_NS + TIMING.t_prog_ns
    assert finished[1] == 150 * US + TIMING.t_erase_ns + TIMING.t_prog_ns


def test_bus_intruder_before_the_dma_lands():
    """A read's data reaches the bus before the page's DMA has landed:
    the page streams after it, and its program moves with its bus end."""
    finished, _, _ = both(
        [
            submit(0, read_op(addr(plane=1), PAGE)),
            program(10 * US, 100 * US),
        ]
    )
    read_done = TIMING.t_read_ns + BUS_NS
    assert finished[0] == read_done
    assert finished[1] == read_done + BUS_NS + TIMING.t_prog_ns


def test_bus_intruder_only_moves_pages_still_off_the_bus():
    """Of three pages reserved ahead, the first already holds the bus
    when a read's data asks for it: only the other two move."""
    sense_end = 120 * US + TIMING.t_read_ns
    finished, _, _ = both(
        [
            program(0, 100 * US, chip=0, plane=0),
            program(0, 250 * US, chip=0, plane=1),
            program(0, 400 * US, chip=1, plane=0),
            submit(120 * US, read_op(addr(chip=1, plane=1), PAGE)),
        ]
    )
    first_bus_end = 100 * US + BUS_NS
    assert sense_end < 250 * US
    assert finished[0] == first_bus_end + TIMING.t_prog_ns
    assert finished[3] == first_bus_end + BUS_NS
    assert finished[1] == finished[3] + BUS_NS + TIMING.t_prog_ns
    assert finished[2] == finished[3] + 2 * BUS_NS + TIMING.t_prog_ns


def test_erase_batch_goes_ahead_of_programs_not_yet_at_their_planes():
    """The closed-form all-ERASE batch (four planes) revokes and remakes
    the programs it overtakes; one already at its plane stays."""
    erases = [
        erase_op(addr(chip, plane)) for chip in range(2) for plane in range(2)
    ]
    finished, _, _ = both(
        [
            program(0, 10 * US, chip=0, plane=0),
            program(0, 300 * US, chip=0, plane=1),
            program(0, 310 * US, chip=1, plane=0),
            submit(10 * US + BUS_NS + 5 * US, *erases),
        ]
    )
    at = 10 * US + BUS_NS + 5 * US
    assert finished[0] == 10 * US + BUS_NS + TIMING.t_prog_ns
    # Plane (0, 0) erases after its program; the others at once.
    assert finished[3] == finished[0] + TIMING.t_erase_ns
    assert finished[1] == at + TIMING.t_erase_ns + TIMING.t_prog_ns
    assert finished[2] == at + TIMING.t_erase_ns + TIMING.t_prog_ns


def test_intruder_at_the_request_instant_goes_after_the_stream():
    """The one place the two ways may differ: a reservation made at the
    very nanosecond a page requests the bus.  Per phase the order hangs
    on event sequence numbers; ahead, the page is first."""
    sense_end = 100 * US
    script = [
        program(0, sense_end),
        submit(sense_end - TIMING.t_read_ns, read_op(addr(plane=1), PAGE)),
    ]
    finished, _, _ = run(script, ahead=True)
    assert finished[0] == sense_end + BUS_NS + TIMING.t_prog_ns
    assert finished[1] == sense_end + 2 * BUS_NS


def test_request_instants_must_lie_ahead_and_rise():
    sim = Simulator()
    engine = ChannelEngine(sim, 0, SDF_CHIP_GEOMETRY, TIMING, 2)
    page = program_op(addr(), PAGE)
    with pytest.raises(ValueError, match="PROGRAM"):
        engine.program_ahead(read_op(addr(), PAGE), 10)
    with pytest.raises(ValueError, match="ahead"):
        engine.program_ahead(page, 0)
    engine.program_ahead(page, 20)
    with pytest.raises(ValueError, match="ahead"):
        engine.program_ahead(page, 19)


# -- through the device ------------------------------------------------------------


def small_sdf(sim, n_channels=1):
    geometry = FlashGeometry(pages_per_block=16, blocks_per_plane=8)
    return SDFDevice(sim, n_channels=n_channels, geometry=geometry)


def test_one_8mib_write_on_an_idle_channel_is_one_event_per_page():
    sim = Simulator()
    sdf = SDFDevice(
        sim, n_channels=1, geometry=SDF_CHIP_GEOMETRY.scaled(0.004)
    )
    channel = sdf.channels[0]
    assert channel.logical_block_bytes == 8 * 2**20
    sim.run(until=sim.process(channel.write(0)))
    assert sdf.engines[0].ops_executed.value == 1024
    assert sim._seq <= 1040


def test_observability_attached_mid_request_applies_from_the_next_page():
    sim = Simulator()
    sdf = small_sdf(sim)
    engine = sdf.engines[0]
    write = sim.process(sdf.channels[0].write(0))
    sim.run(until=2_000 * US)
    done_before = engine.ops_executed.value
    assert 0 < done_before < 64 and engine.can_reserve_ahead()
    events_before = sim._seq
    obs = Observability()
    attach_device(obs, sdf)
    assert not engine.can_reserve_ahead()
    sim.run(until=write)
    assert engine.ops_executed.value == 64
    # The pages begun after the attach took the per-phase hops (three
    # events each) and were seen by the queue-depth probe.
    remaining = 64 - done_before - 16
    assert sim._seq - events_before >= 3 * remaining
    assert obs.metrics.snapshot(sim.now)["channel0.queue_depth"] > 0


def test_qos_attached_mid_request_admits_from_the_next_page():
    sim = Simulator()
    sdf = small_sdf(sim)
    engine = sdf.engines[0]
    write = sim.process(sdf.channels[0].write(0))
    sim.run(until=2_000 * US)
    assert engine.ops_executed.value < 48
    qos = engine.qos = ChannelQosState(sim, 0, max_inflight=1)
    sim.run(until=write)
    assert engine.ops_executed.value == 64
    assert qos.throttled.value > 0


def test_busy_time_read_mid_stream_matches_the_observed_run():
    """``busy_value``/``utilization`` read while pages are between
    their request instants: same numbers as a run whose engine carries
    a metrics-only probe (per-phase hops)."""

    def sample(observed):
        sim = Simulator()
        sdf = small_sdf(sim)
        if observed:
            attach_device(Observability(), sdf)
        engine = sdf.engines[0]
        assert engine.can_reserve_ahead() != observed
        sim.process(sdf.channels[0].write(0))
        samples = []
        for checkpoint in range(50 * US, 12_000 * US, 50 * US):
            sim.run(until=checkpoint)
            samples.append((engine.busy_value(), engine.utilization()))
        return samples

    assert sample(False) == sample(True)
