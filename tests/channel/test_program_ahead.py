"""Bus phases reserved ahead of their request instants.

``ChannelEngine.program_page_ahead(plane, nbytes, request_ns, ...)`` must be
indistinguishable from ``execute_fast`` of that PROGRAM called at
``request_ns``,
and ``ChannelEngine.read_ahead(ops)`` from ``execute_fast`` for each op
in turn, whatever reaches the bus or a plane in between.  Every
scenario here runs twice -- pages reserved ahead, and the same ops
submitted the per-phase way (programs by a timer at their request
instant) -- and compares completion instants, counters, busy time and queue depth
sampled along the way.
"""

import pytest

from repro.channel.engine import ChannelEngine
from repro.devices.sdf import SDFDevice
from repro.faults import FaultPlan
from repro.ftl.ops import OpKind, OpRuns, erase_op, program_op, read_op
from repro.nand.array import PhysicalAddress
from repro.nand.catalog import SDF_CHIP_GEOMETRY
from repro.interfaces.link import LinkDropError
from repro.nand.geometry import FlashGeometry
from repro.obs import Observability, attach_device
from repro.qos.limits import ChannelQosState
from repro.sim import Simulator, US
from tests.channel.differential import (
    BUS_NS,
    PAGE,
    SENSE_NS,
    TIMING,
    Case,
    addr,
    batch,
    check,
    play,
    read,
    stream,
)
from tests.channel.reference_engine import per_phase


def both(items, bound=None):
    """Asserts the ways to run ``items`` agree (``differential.check``);
    returns (completions, ahead events, per-phase events).  An item
    completes at one instant, a ``read`` at the list of instants its
    pages left the bus at."""
    ahead, hops = check(Case(tuple(items), bound=bound))
    return ahead.finished, ahead.events, hops.events


def test_undisturbed_program_costs_one_event():
    finished, events, per_phase = both([stream(0, 100 * US)])
    assert finished[0] == 100 * US + BUS_NS + TIMING.t_prog_ns
    # The script's own two events (a hop at its instant), then: one end
    # event against a DMA-end timer, bus end and program end.
    assert (events, per_phase) == (2 + 1, 2 + 3)


def test_plane_intruder_between_bus_request_and_bus_end():
    """An erase takes the plane while the page is still on the bus: the
    program, reserved on an idle plane (end event already in the heap),
    goes behind it."""
    erase_at = 150 * US
    finished, _, _ = both(
        [stream(0, 100 * US), batch(erase_at, erase_op(addr()))]
    )
    assert finished[1] == erase_at + TIMING.t_erase_ns
    assert finished[0] == finished[1] + TIMING.t_prog_ns


def test_plane_intruder_behind_a_chained_program():
    """Two programs on one plane, the second chained off the first's end
    event; a read sense arriving before either reaches the plane
    unhooks both and goes first."""
    finished, _, _ = both(
        [
            stream(0, 100 * US),
            stream(0, 110 * US),
            batch(120 * US, read_op(addr(page=3), PAGE)),
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
            stream(0, 100 * US, plane=0),
            stream(0, 110 * US, plane=1),
            batch(150 * US, erase_op(addr(plane=1))),
        ]
    )
    assert finished[0] == 100 * US + BUS_NS + TIMING.t_prog_ns
    assert finished[1] == 150 * US + TIMING.t_erase_ns + TIMING.t_prog_ns


def test_bus_intruder_before_the_dma_lands():
    """A read's data reaches the bus before the page's DMA has landed:
    the page streams after it, and its program moves with its bus end."""
    finished, _, _ = both(
        [
            batch(0, read_op(addr(plane=1), PAGE)),
            stream(10 * US, 100 * US),
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
            stream(0, 100 * US, chip=0, plane=0),
            stream(0, 250 * US, chip=0, plane=1),
            stream(0, 400 * US, chip=1, plane=0),
            batch(120 * US, read_op(addr(chip=1, plane=1), PAGE)),
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
            stream(0, 10 * US, chip=0, plane=0),
            stream(0, 300 * US, chip=0, plane=1),
            stream(0, 310 * US, chip=1, plane=0),
            batch(10 * US + BUS_NS + 5 * US, *erases),
        ]
    )
    at = 10 * US + BUS_NS + 5 * US
    assert finished[0] == 10 * US + BUS_NS + TIMING.t_prog_ns
    # Plane (0, 0) erases after its program; the others at once.
    assert finished[3] == finished[0] + TIMING.t_erase_ns
    assert finished[1] == at + TIMING.t_erase_ns + TIMING.t_prog_ns
    assert finished[2] == at + TIMING.t_erase_ns + TIMING.t_prog_ns


def test_a_read_continuing_on_the_page_s_request_instant_goes_first():
    """A page reaches the bus on the nanosecond a read's sense ends: the
    read continues and the page arrives, so the read goes first."""
    sense_end = 100 * US
    finished, _, _ = both(
        [
            stream(0, sense_end),
            batch(sense_end - TIMING.t_read_ns, read_op(addr(plane=1), PAGE)),
        ]
    )
    assert finished[1] == sense_end + BUS_NS
    assert finished[0] == sense_end + 2 * BUS_NS + TIMING.t_prog_ns


def test_request_instants_must_lie_ahead_and_rise():
    """A request instant must not lie behind now (now itself is an
    admission hop's); among themselves they need not rise -- a page
    takes its place by request instant."""
    sim = Simulator()
    engine = ChannelEngine(sim, 0, SDF_CHIP_GEOMETRY, TIMING, 2)
    runs = OpRuns(OpKind.PROGRAM, 0, PAGE, [(0, 0, 1, 0, 1), (0, 1, 1, 0, 1)], False)
    with pytest.raises(ValueError, match="behind now"):
        engine.program_page_ahead((0, 0), PAGE, -1, None, runs, 0)
    finished = {}
    engine.program_page_ahead(
        (0, 0), PAGE, 20, lambda: finished.setdefault("first", sim.now), runs, 0
    )
    engine.program_page_ahead(
        (0, 1), PAGE, 19, lambda: finished.setdefault("second", sim.now), runs, 1
    )
    assert [entry.bus_req for entry in engine._ahead] == [19, 20]
    sim.run()
    assert finished == {
        "second": 19 + BUS_NS + TIMING.t_prog_ns,
        "first": 19 + 2 * BUS_NS + TIMING.t_prog_ns,
    }


def test_program_at_now_keeps_only_its_plane_phase_tentative():
    """``request_ns == now``, an admission hop's: the bus phase is real
    at once, the program still has no bus-end event."""
    at = 100 * US
    finished, events, per_phase = both([stream(at, at)])
    assert finished[0] == at + BUS_NS + TIMING.t_prog_ns
    assert (events, per_phase) == (2 + 1, 2 + 3)


def intruders_of_a_program_at_now(page):
    """A page handed over at its request instant ``at``, an erase on
    its plane while it is on the bus, and a read on another plane whose
    sense ends at ``at``: the program goes behind the erase, and the
    read continues while the page arrives, so its data goes first."""
    at = 100 * US
    finished, _, _ = both(
        [
            page(at),
            batch(150 * US, erase_op(addr())),
            batch(at - SENSE_NS, read_op(addr(plane=1), PAGE)),
        ]
    )
    assert finished[1] == 150 * US + TIMING.t_erase_ns
    assert finished[0] == finished[1] + TIMING.t_prog_ns
    assert finished[2] == at + BUS_NS


def test_plane_intruder_before_the_bus_end_of_a_program_at_now():
    """The page handed over by an event scheduled before the read's
    sense end was, as an admission grant calls the engine."""
    intruders_of_a_program_at_now(
        lambda at: batch(at, program_op(addr(), PAGE), lead=at)
    )


def test_a_page_handed_over_by_a_hop_goes_behind_a_sense_ending_there():
    """The same, the page handed over by a hop at its instant."""
    intruders_of_a_program_at_now(lambda at: stream(at, at))


# -- behind an admission gate ------------------------------------------------------------


def test_gated_ops_are_reserved_ahead_from_their_grant_hops():
    """Two slots: a program and a read run, a second program waits for
    the first one's release.  A hop an op, and no bus end for either
    program, no sense end for the read."""
    script = [
        batch(0, program_op(addr(), PAGE)),
        batch(10 * US, read_op(addr(plane=1), PAGE)),
        batch(20 * US, program_op(addr(chip=1), PAGE)),
    ]
    finished, events, per_phase = both(script, bound=2)
    # The read's data waits for the first page to leave the bus; it is
    # the first to finish, and the second program starts there.
    assert finished[1] == 2 * BUS_NS
    assert finished[2] == finished[1] + BUS_NS + TIMING.t_prog_ns
    assert per_phase - events == 3


def test_waiter_granted_by_a_release_at_a_tied_instant():
    """The program's end releases a slot the very nanosecond a read's
    sense ends: the waiter's hop is scheduled at that instant, behind
    the sense end that has been in the heap for a sense time, so the
    waiting program streams after the read's data."""
    tie = BUS_NS + TIMING.t_prog_ns
    script = [
        batch(0, program_op(addr(), PAGE)),
        batch(tie - SENSE_NS, read_op(addr(plane=1), PAGE)),
        batch(tie - 50 * US, program_op(addr(chip=1), PAGE)),
    ]
    finished, _, _ = both(script, bound=2)
    assert finished[0] == tie
    assert finished[1] == tie + BUS_NS
    assert finished[2] == tie + 2 * BUS_NS + TIMING.t_prog_ns


def test_gated_read_shares_one_hop_for_the_prefix_it_is_granted():
    """Five pages, three slots: one hop for the first three, then a
    hop a page as the bus ends release slots.  Per phase: a hop, a
    sense end and a bus end for each."""
    finished, events, per_phase = both([read(0, (0, 0), n=5)], bound=3)
    assert finished[0][:3] == [SENSE_NS + (page + 1) * BUS_NS for page in range(3)]
    assert (events, per_phase) == (2 + 1 + 5 + 2, 2 + 3 * 5)


# -- READs: senses reserved at submission, bus phases ahead ---------------------------

ALL_PLANES = [(chip, plane) for chip in range(2) for plane in range(2)]


def test_undisturbed_read_costs_one_event_a_page():
    finished, events, per_phase = both([read(0, (0, 0), n=5)])
    # Senses every 75 us, bus transfers of 209.8 us back to back.
    assert finished[0] == [SENSE_NS + (page + 1) * BUS_NS for page in range(5)]
    # The script's own two events, then: bus ends against senses + bus
    # ends.
    assert (events, per_phase) == (2 + 5, 2 + 2 * 5)


def test_read_spanning_planes_interleaves_its_pages_by_sense_end():
    """Four pages on each of two planes: the senses run in parallel, and
    each step's two pages tie for the bus in submission (op) order."""
    finished, _, _ = both([read(0, (0, 1), (1, 0), n=4)])
    assert finished[0] == [SENSE_NS + (page + 1) * BUS_NS for page in range(8)]


def test_later_read_on_an_idle_plane_overtakes_one_queued_behind_an_erase():
    finished, _, _ = both(
        [
            batch(0, erase_op(addr())),
            read(10 * US, (0, 0)),
            read(20 * US, (0, 1)),
        ]
    )
    assert finished[2] == [20 * US + SENSE_NS + BUS_NS]
    assert finished[1] == [TIMING.t_erase_ns + SENSE_NS + BUS_NS]


def test_reads_tied_behind_one_erase_batch_go_in_submission_order():
    """Both senses start the nanosecond the four-plane batch ends and
    end together: the read submitted first takes the bus first,
    whatever the batch's plane order."""
    erases = [erase_op(addr(chip, plane)) for chip, plane in ALL_PLANES]
    finished, _, _ = both(
        [
            batch(0, *erases),
            read(10 * US, (1, 0)),
            read(20 * US, (0, 1)),
        ]
    )
    sense_end = TIMING.t_erase_ns + SENSE_NS
    assert finished[1] == [sense_end + BUS_NS]
    assert finished[2] == [sense_end + 2 * BUS_NS]


def test_read_queued_behind_another_requests_run_ties_with_that_requests_other_plane():
    """A one-page read behind the first request's two pages on plane
    (0, 0) ends its sense when that request's third page on (0, 1)
    does: the first request's page was submitted first, so it goes
    first."""
    finished, _, _ = both(
        [
            read(0, (0, 0), (0, 0), (0, 1), (0, 1), (0, 1), (0, 1)),
            read(10 * US, (0, 0)),
        ]
    )
    assert finished[1] == [SENSE_NS + 6 * BUS_NS]
    assert finished[0][4:] == [SENSE_NS + 5 * BUS_NS, SENSE_NS + 7 * BUS_NS]


def test_program_page_lands_ahead_of_tentative_reads():
    """A streamed page whose DMA lands between two senses takes its
    place between their bus phases; the reads behind it are remade."""
    finished, _, _ = both(
        [read(0, (0, 0), n=4), stream(10 * US, 100 * US, chip=1)]
    )
    first_bus_end = SENSE_NS + BUS_NS
    assert finished[1] == first_bus_end + BUS_NS + TIMING.t_prog_ns
    assert finished[0] == [
        first_bus_end,
        first_bus_end + 2 * BUS_NS,
        first_bus_end + 3 * BUS_NS,
        first_bus_end + 4 * BUS_NS,
    ]


def test_read_sense_goes_ahead_of_programs_not_yet_at_the_plane():
    """Two pages reserved ahead on the read's plane, neither at it yet:
    the run revokes them once, senses, and they program behind it."""
    finished, _, _ = both(
        [
            stream(0, 100 * US),
            stream(0, 110 * US),
            read(120 * US, (0, 0), n=3),
        ]
    )
    senses_end = 120 * US + 3 * SENSE_NS
    # The first page leaves the bus (309.8 us) before the senses end.
    assert finished[0] == senses_end + TIMING.t_prog_ns
    assert finished[1] == finished[0] + TIMING.t_prog_ns
    assert finished[2][0] == 100 * US + 3 * BUS_NS


def test_per_phase_bus_intruder_before_a_sense_end():
    """A READ on the per-phase hops asks for the bus between the first
    and the second sense end of a request reserved ahead."""
    finished, _, _ = both(
        [read(0, (0, 0), n=3), batch(5 * US, read_op(addr(plane=1), PAGE))]
    )
    assert finished[1] == SENSE_NS + 2 * BUS_NS
    assert finished[0] == [
        SENSE_NS + BUS_NS, SENSE_NS + 3 * BUS_NS, SENSE_NS + 4 * BUS_NS
    ]


def test_per_phase_bus_intruder_at_a_sense_end_goes_after_the_page():
    """A per-phase read's sense ends with a page reserved ahead: the
    page was submitted first, so it takes the bus first, both ways."""
    finished, _, _ = both(
        [read(0, (0, 0), n=2), batch(SENSE_NS, read_op(addr(plane=1), PAGE))]
    )
    assert finished[0] == [SENSE_NS + BUS_NS, SENSE_NS + 2 * BUS_NS]
    assert finished[1] == SENSE_NS + 3 * BUS_NS


def test_erase_queued_behind_a_sense_run_relays_at_its_grant():
    """No sense end event to chain from: same instants either way."""
    finished, _, _ = both(
        [read(0, (0, 1), n=3), batch(10 * US, erase_op(addr(plane=1)))]
    )
    assert finished[1] == 3 * SENSE_NS + TIMING.t_erase_ns


def test_long_read_refills_its_tentative_tail_from_a_timer():
    """Eighty pages over two planes hold at most READ_AHEAD_PAGES (and a
    sense time's worth) of bus phases ahead; intruders of every kind
    arrive while the tail is being refilled."""
    held = []
    script = [
        read(0, (0, 0), (0, 1), n=40),
        stream(200 * US, 900 * US, chip=1),
        batch(1_000 * US, read_op(addr(chip=1, plane=1), PAGE)),
        stream(1_500 * US, 2_000 * US, chip=1),
        read(1_700 * US, (1, 1), n=2),
        batch(2_500 * US, erase_op(addr(plane=1))),
    ]
    finished, events, per_phase = both(script)
    assert len(finished[0]) == 80
    # The long read alone: a sense end and a bus end a page per phase;
    # ahead, a bus end a page and two refill timers.
    assert per_phase >= 2 * 80
    assert events <= per_phase - 80 + 2 + 6

    sim = Simulator()
    engine = ChannelEngine(sim, 0, SDF_CHIP_GEOMETRY, TIMING, 2)
    engine.read_ahead(script[0][3])
    while sim.peek() is not None:
        held.append(sum(entry.bus_req > sim.now for entry in engine._ahead))
        sim.step()
    assert max(held) <= ChannelEngine.READ_AHEAD_PAGES + 2


def test_read_ahead_takes_only_this_channels_reads():
    sim = Simulator()
    engine = ChannelEngine(sim, 0, SDF_CHIP_GEOMETRY, TIMING, 2)
    with pytest.raises(ValueError, match="READ"):
        engine.read_ahead([program_op(addr(), PAGE)])
    with pytest.raises(ValueError, match="channel 0"):
        engine.read_ahead([read_op(PhysicalAddress(1, 0, 0, 0, 0), PAGE)])
    run_of_two = [(0, 0, 0, 0, 2)]
    with pytest.raises(ValueError, match="READ"):
        engine.read_ahead(OpRuns(OpKind.PROGRAM, 0, PAGE, run_of_two, False))
    with pytest.raises(ValueError, match="channel 0"):
        engine.read_ahead(OpRuns(OpKind.READ, 1, PAGE, run_of_two, False))
    # Checked at the door: nothing of a refused request was reserved.
    with pytest.raises(ValueError, match="READ"):
        engine.read_ahead([read_op(addr(), PAGE), program_op(addr(), PAGE)])
    assert not engine._ahead and engine._tl_planes[(0, 0)].free_at == 0


@pytest.mark.parametrize("bound", [None, 3])
def test_a_batch_and_the_list_it_stands_for_are_one_request(bound):
    """Plane runs read off an ``OpRuns`` or regrouped from a list at the
    door: same reservations, same events -- bare, and behind a gate
    whose first hop takes a slice of the request."""

    def script(as_runs):
        items = [
            read(0, (0, 0), (0, 1), n=40, as_runs=as_runs),
            batch(1_000 * US, read_op(addr(chip=1, plane=1), PAGE)),
            read(1_700 * US, (1, 1), (0, 0), n=2, as_runs=as_runs),
            batch(2_500 * US, erase_op(addr(plane=1))),
            read(2_600 * US, (0, 1), as_runs=as_runs),
        ]
        if bound is None:
            items.insert(1, stream(200 * US, 900 * US, chip=1))
        return Case(tuple(items), bound=bound)

    as_runs, as_list = script(True), script(False)
    for item, listed in zip(as_runs.items, as_list.items):
        assert item[0] != "read" or item[3] == listed[3]
    assert play(as_runs)[:3] == play(as_list)[:3]


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


def test_reads_on_an_idle_channel_cost_one_event_a_page():
    """2 MiB: a bus end a page, seven refill timers, and the request's
    own six (process, submit, completion, interrupt, stack, exit).
    Per phase it was three a page."""
    for n_pages, budget in ((1, 8), (256, 270)):
        sim = Simulator()
        sdf = SDFDevice(
            sim, n_channels=1, geometry=SDF_CHIP_GEOMETRY.scaled(0.004)
        )
        sdf.prefill(0.5)
        sim.run(until=sim.process(sdf.channels[0].read(0, 0, n_pages)))
        assert sdf.engines[0].ops_executed.value == n_pages
        assert len(sdf.link.read_meter.samples) == n_pages
        assert sim._seq <= budget


def test_read_that_finds_its_plane_idle_goes_behind_the_queued_run_it_ties_with():
    """A one-page read submitted the nanosecond another request's first
    sense ends: its own sense ends with that request's second, which was
    submitted first and takes the bus first, on the device as well."""

    def play(pinned):
        sim = Simulator()
        sdf = small_sdf(sim)
        sdf.prefill(0.5)
        if pinned:
            per_phase(*sdf.engines)
        channel = sdf.channels[0]
        finished = {}

        def reader(name, delay, offset, n_pages):
            yield sim.timeout(delay)
            yield from channel.read(0, offset, n_pages)
            finished[name] = sim.now

        sim.process(reader("run", 0, 0, 3))
        # Plane 1 starts 16 pages into the block.
        sim.process(reader("idle", SENSE_NS, 16, 1))
        sim.run()
        return finished, tuple(sdf.link.read_meter.samples)

    ahead = play(False)
    assert ahead == play(True)
    # The newcomer's page is the third on the bus, not the second.
    submit_ns = small_sdf(Simulator()).iostack.submit_ns
    dma_asked_at = submit_ns + SENSE_NS + 3 * BUS_NS
    assert ahead[0]["idle"] > dma_asked_at > ahead[0]["idle"] - 20 * US
    assert ahead[0]["run"] > ahead[0]["idle"]


def two_reads(attach):
    """Two 8-page reads on a fault-wired channel, ``attach`` called
    between them; returns the engine, the plan and the events the
    second cost."""
    sim = Simulator()
    sdf = small_sdf(sim)
    sdf.prefill(0.5)
    plan = FaultPlan(seed=5)
    plan.attach(sdf)
    engine = sdf.engines[0]
    channel = sdf.channels[0]
    sim.run(until=sim.process(channel.read(0, 0, 8)))
    ahead_events = sim._seq
    assert engine.can_reserve_ahead() and ahead_events <= 8 + 8
    attach(sdf, plan)
    sim.run(until=sim.process(channel.read(0, 8, 8)))
    assert engine.ops_executed.value == 16
    return engine, plan, sim._seq - ahead_events


@pytest.mark.parametrize("attach", ["stall"])
def test_attachment_between_two_reads_puts_the_next_on_per_phase_hops(attach):
    """A STALL rule at the engine's site.  (The plan is wired from the
    start: holding no rule it is no injector.)"""

    def add_rule(sdf, plan):
        plan.add("ch0", "stall", at_op=3, delay_ns=40 * US)
        assert not sdf.engines[0].can_reserve_ahead()

    engine, plan, events = two_reads(add_rule)
    assert not engine._ahead
    # Sense end, bus end and DMA end for every page.
    assert events >= 3 * 8
    assert [event.kind for event in plan.log] == ["stall"]


def test_observability_attached_between_two_reads_keeps_the_next_ahead():
    """A metrics-only probe picks no path: the second read costs what
    an unobserved one does, and its pages are in the queue depth."""
    obs = Observability()

    def observe(sdf, plan):
        attach_device(obs, sdf)
        assert sdf.engines[0].can_reserve_ahead()

    assert two_reads(observe)[2] == two_reads(lambda sdf, plan: None)[2]
    assert obs.metrics.snapshot()["channel0.queue_depth"] > 0


def test_qos_attached_between_two_reads_gates_the_next_and_stays_ahead():
    """Admission stands in front of the ahead path: one slot, so a hop
    and a bus end for every page -- no sense end, no DMA end."""
    sim = Simulator()
    sdf = small_sdf(sim)
    sdf.prefill(0.5)
    engine = sdf.engines[0]
    channel = sdf.channels[0]
    sim.run(until=sim.process(channel.read(0, 0, 8)))
    ahead_events = sim._seq
    qos = engine.qos = ChannelQosState(sim, 0, max_inflight=1)
    assert engine.can_reserve_ahead()
    sim.run(until=sim.process(channel.read(0, 8, 8)))
    assert engine.ops_executed.value == 16
    assert len(sdf.link.read_meter.samples) == 16
    assert qos.throttled.value == 7
    assert sim._seq - ahead_events <= 2 * 8 + 8


def gated_day(rules_at, pinned):
    """A gated, fault-wired channel serving reads and writes back to
    back; at ``rules_at`` -- inside a request -- a STALL rule appears
    at the engine's site and DROP and DELAY rules at the link's."""
    sim = Simulator()
    sdf = small_sdf(sim)
    sdf.prefill(0.5)
    plan = FaultPlan(seed=11)
    plan.attach(sdf)
    engine = sdf.engines[0]
    channel = sdf.channels[0]
    qos = engine.qos = ChannelQosState(sim, 0, max_inflight=3)
    if pinned:
        per_phase(engine)
    outcomes = []
    events_at_rules = []

    def add_rules():
        events_at_rules.append(sim._seq)
        plan.add("ch0", "stall", rate=0.2, delay_ns=90 * US)
        plan.add("link", "delay", rate=0.1, delay_ns=30 * US)
        plan.add("link", "drop", at_op=150)

    def issuer():
        for turn in range(4):
            for request in (
                channel.read(turn % 2, 3 * turn, 24),
                channel.write_fresh(3 + turn),
            ):
                try:
                    yield from request
                    outcomes.append(sim.now)
                except LinkDropError:
                    outcomes.append(("dropped", sim.now))

    sim._schedule_call(add_rules, rules_at)
    sim.run(until=sim.process(issuer()))
    sim.run()
    return {
        "outcomes": outcomes,
        "faults": plan.signatures(),
        "link": (
            tuple(sdf.link.read_meter.samples),
            tuple(sdf.link.write_meter.samples),
        ),
        "engine": (
            engine.ops_executed.value, engine.wait_ns.value,
            engine.busy_value(), qos.throttled.value,
            qos.throttle_wait_ns.value,
        ),
    }, events_at_rules[0], sim._seq


@pytest.mark.parametrize("inside", ["read", "write"])
def test_rules_added_mid_run_are_drawn_as_on_a_run_per_phase_throughout(inside):
    """What was reserved ahead finishes the way it began -- its draws
    were already behind it -- and the next op to start, the next DMA to
    be asked for, consult the rules at the instants the per-phase run
    does: same fault log, same everything."""
    # 24 pages at 3 slots take ~5 ms; the first write starts after it.
    rules_at = (2_000 if inside == "read" else 9_000) * US
    got, before, total = gated_day(rules_at, pinned=False)
    expected, per_phase_before, per_phase_total = gated_day(rules_at, pinned=True)
    assert got == expected
    kinds = {signature[1] for signature in got["faults"]}
    assert kinds == {"stall", "delay", "drop"}
    assert any(isinstance(outcome, tuple) for outcome in got["outcomes"])
    # Ahead until the rules came, per phase after.
    assert before < 0.8 * per_phase_before
    assert total - before == pytest.approx(per_phase_total - per_phase_before, rel=0.02)


def test_observability_attached_mid_request_applies_from_the_next_page():
    """The pages that reach their request instants after the attach are
    in the queue depth, and the write costs what an unobserved one
    does: the probe picks no path."""

    def write(observed):
        sim = Simulator()
        sdf = small_sdf(sim)
        engine = sdf.engines[0]
        write = sim.process(sdf.channels[0].write(0))
        sim.run(until=2_000 * US)
        assert 0 < engine.ops_executed.value < 64
        obs = Observability()
        if observed:
            attach_device(obs, sdf)
        assert engine.can_reserve_ahead()
        sim.run(until=write)
        assert engine.ops_executed.value == 64
        return sim._seq, sim.now, obs.metrics.snapshot(sim.now)

    events, end, snapshot = write(observed=True)
    assert (events, end) == write(observed=False)[:2]
    assert snapshot["channel0.queue_depth"] > 0


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
    """``busy_value``/``utilization`` -- and, observed, the queue
    depth -- read while pages are between their request instants: the
    same numbers unobserved, observed, and observed with the engine
    pinned to its per-phase hops."""

    def sample(observed, pinned=False):
        sim = Simulator()
        sdf = small_sdf(sim)
        obs = Observability()
        if observed:
            attach_device(obs, sdf)
        engine = sdf.engines[0]
        if pinned:
            per_phase(engine)
        sim.process(sdf.channels[0].write(0))
        samples = []
        for checkpoint in range(50 * US, 12_000 * US, 50 * US):
            sim.run(until=checkpoint)
            snapshot = obs.snapshot(checkpoint)
            samples.append(
                (
                    engine.busy_value(),
                    engine.utilization(),
                    snapshot.get("channel0.queue_depth"),
                )
            )
        return samples, sim._seq

    plain, plain_events = sample(False)
    observed, events = sample(True)
    pinned, pinned_events = sample(True, pinned=True)
    assert events == plain_events < pinned_events
    assert [busy for *busy, _ in plain] == [busy for *busy, _ in observed]
    assert observed == pinned
    assert observed[-1][-1] > 0


def test_busy_union_stays_bounded_and_reads_as_if_never_closed_early():
    """51 k phases of streamed writes, erases and reads on one channel:
    the engine closes its busy union through now every
    ``BUSY_RAW_LIMIT`` integers, so the union stays the size of what is
    in service -- and a read made mid-stream, with reserved-ahead
    programs on the bus, and the one at the end answer exactly as on an
    engine that never closes on its own."""

    def play(limit):
        sim = Simulator()
        sdf = SDFDevice(
            sim, n_channels=1, geometry=SDF_CHIP_GEOMETRY.scaled(0.004)
        )
        channel, engine = sdf.channels[0], sdf.engines[0]
        if limit is not None:
            engine.BUSY_RAW_LIMIT = limit
        union = engine._busy_union
        held = []

        def writer():
            for cycle in range(24):
                yield from channel.write_fresh(cycle % 3)
                yield from channel.read(cycle % 3, 0, 64)
                held.append(len(union.raw) + union._open.size)

        done = sim.process(writer())
        # Mid-stream, inside the twelfth write: pages on the bus whose
        # reservations were made ahead and are not yet retired.
        sim.run(until=4_000_000 * US + 7)
        assert any(
            entry.bus_req <= sim.now < entry.due for entry in engine._ahead
        )
        mid = (engine.busy_value(), engine.utilization())
        sim.run(until=done)
        assert engine.ops_executed.value * 2 > 50_000
        return mid, engine.busy_value(), engine.utilization(), max(held)

    *closing, held = play(None)
    *never, held_never = play(10**12)
    assert closing == never
    # One write's own pages may pile up past the limit before the next
    # submission looks; never a run's history.
    assert held <= ChannelEngine.BUSY_RAW_LIMIT + 4 * 1024
    assert held_never > 40_000
