"""Bus phases reserved ahead of their request instants.

``ChannelEngine.program_page_ahead(plane, nbytes, request_ns)`` must be
indistinguishable from ``execute_fast`` of that PROGRAM called at
``request_ns``,
and ``ChannelEngine.read_ahead(ops)`` from ``execute_fast`` for each op
in turn, whatever reaches the bus or a plane in between.  Every
scenario here runs twice -- pages reserved ahead, and the same ops
submitted the per-phase way (programs by a timer at their request
instant) -- and compares completion instants, counters and busy time
sampled along the way.
"""

import pytest

from repro.channel.engine import ChannelEngine
from repro.devices.sdf import SDFDevice
from repro.faults import FaultPlan
from repro.ftl.ops import OpKind, OpRuns, erase_op, program_op, read_op
from repro.nand.array import PhysicalAddress
from repro.nand.catalog import MICRON_25NM_MLC, SDF_CHIP_GEOMETRY
from repro.interfaces.link import LinkDropError
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


def read(at, *pages, n=1):
    """One request's READs submitted at ``at``: ``n`` pages on each of
    the ``(chip, plane)`` pairs in ``pages``, plane run by plane run."""
    ops = [
        read_op(addr(chip, plane, page), PAGE)
        for chip, plane in pages
        for page in range(n)
    ]
    return ("read", at, None, ops)


def run(script, ahead, bound=None):
    """Play ``script``; returns (completions, samples, events).  An
    item completes at one instant, a ``read`` at the list of instants
    its pages left the bus at.

    With ``bound`` the engine stands behind that many admission slots
    and both ways go through the same doors (``submit`` and ``read``
    items only); the per-phase way is then forced by a metrics-only
    probe on the engine."""
    sim = Simulator()
    engine = ChannelEngine(sim, 0, SDF_CHIP_GEOMETRY, TIMING, 2)
    qos = None
    if bound is not None:
        qos = engine.qos = ChannelQosState(sim, 0, bound)
        if not ahead:
            engine.obs = Observability()
        assert engine.can_reserve_ahead() == ahead
    finished = {}

    def finish(tag, kind):
        if kind == "read":
            return lambda: finished.setdefault(tag, []).append(sim.now)
        return lambda: finished.setdefault(tag, sim.now)

    def play(kind, request, what, then):
        if kind == "submit":
            engine.execute_batch_call(what, then)
        elif kind == "program":
            address = what.address
            engine.program_page_ahead(
                (address.chip, address.plane), what.nbytes, request, then
            )
        elif ahead:
            engine.read_ahead(what, then)
        else:
            for op in what:
                engine.execute_fast(op, then)

    for tag, (kind, at, request, what) in enumerate(script):
        if kind == "program" and not ahead:
            sim._schedule_call(
                lambda what=what, then=finish(tag, kind): engine.execute_fast(
                    what, then
                ),
                request,
            )
        else:
            sim._schedule_call(
                lambda item=(kind, request, what, finish(tag, kind)): play(
                    *item
                ),
                at,
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
                qos and (qos.throttled.value, qos.throttle_wait_ns.value),
            )
        )
    sim.run()
    assert len(finished) == len(script)
    assert not engine._ahead or engine._ahead[0].due <= sim.now
    return finished, samples, sim._seq


def both(script, bound=None):
    """Asserts the two ways agree; returns (completions, ahead events,
    per-phase events)."""
    finished, samples, events = run(script, True, bound)
    expected, expected_samples, expected_events = run(script, False, bound)
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
    """A request instant must not lie behind now (now itself is an
    admission hop's); among themselves they need not rise -- a page
    takes its place by request instant."""
    sim = Simulator()
    engine = ChannelEngine(sim, 0, SDF_CHIP_GEOMETRY, TIMING, 2)
    with pytest.raises(ValueError, match="behind now"):
        engine.program_page_ahead((0, 0), PAGE, -1)
    finished = {}
    engine.program_page_ahead(
        (0, 0), PAGE, 20, lambda: finished.setdefault("first", sim.now)
    )
    engine.program_page_ahead(
        (0, 1), PAGE, 19, lambda: finished.setdefault("second", sim.now)
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
    finished, events, per_phase = both([program(at, at)])
    assert finished[0] == at + BUS_NS + TIMING.t_prog_ns
    assert (events, per_phase) == (2, 3)


def test_plane_intruder_before_the_bus_end_of_a_program_at_now():
    """The page is on the bus when an erase takes its plane: the
    program goes behind it; a read's data that asks for the bus the
    nanosecond the page took it goes behind the page."""
    at = 100 * US
    finished, _, _ = both(
        [
            program(at, at),
            submit(150 * US, erase_op(addr())),
            submit(at - SENSE_NS, read_op(addr(plane=1), PAGE)),
        ]
    )
    assert finished[1] == 150 * US + TIMING.t_erase_ns
    assert finished[0] == finished[1] + TIMING.t_prog_ns
    assert finished[2] == at + 2 * BUS_NS


# -- behind an admission gate ------------------------------------------------------------


def test_gated_ops_are_reserved_ahead_from_their_grant_hops():
    """Two slots: a program and a read run, a second program waits for
    the first one's release.  A hop an op, and no bus end for either
    program, no sense end for the read."""
    script = [
        submit(0, program_op(addr(), PAGE)),
        submit(10 * US, read_op(addr(plane=1), PAGE)),
        submit(20 * US, program_op(addr(chip=1), PAGE)),
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
        submit(0, program_op(addr(), PAGE)),
        submit(tie - SENSE_NS, read_op(addr(plane=1), PAGE)),
        submit(tie - 50 * US, program_op(addr(chip=1), PAGE)),
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
    assert (events, per_phase) == (1 + 1 + 5 + 2, 1 + 3 * 5)


# -- READs: senses reserved at submission, bus phases ahead ---------------------------

ALL_PLANES = [(chip, plane) for chip in range(2) for plane in range(2)]
SENSE_NS = TIMING.t_read_ns


def test_undisturbed_read_costs_one_event_a_page():
    finished, events, per_phase = both([read(0, (0, 0), n=5)])
    # Senses every 75 us, bus transfers of 209.8 us back to back.
    assert finished[0] == [SENSE_NS + (page + 1) * BUS_NS for page in range(5)]
    # The script's own timer, then: bus ends against senses + bus ends.
    assert (events, per_phase) == (1 + 5, 1 + 2 * 5)


def test_read_spanning_planes_interleaves_its_pages_by_sense_end():
    """Four pages on each of two planes: the senses run in parallel, and
    each step's two pages tie for the bus in plane order."""
    finished, _, _ = both([read(0, (0, 1), (1, 0), n=4)])
    assert finished[0] == [SENSE_NS + (page + 1) * BUS_NS for page in range(8)]


def test_later_read_on_an_idle_plane_overtakes_one_queued_behind_an_erase():
    finished, _, _ = both(
        [
            submit(0, erase_op(addr())),
            read(10 * US, (0, 0)),
            read(20 * US, (0, 1)),
        ]
    )
    assert finished[2] == [20 * US + SENSE_NS + BUS_NS]
    assert finished[1] == [TIMING.t_erase_ns + SENSE_NS + BUS_NS]


def test_reads_tied_behind_one_erase_batch_go_in_plane_order():
    """Both senses start the nanosecond the four-plane batch ends.  Per
    phase their sense-end events are scheduled from the erases' end
    events, which run in the batch's plane order -- not in the order
    the reads were submitted."""
    erases = [erase_op(addr(chip, plane)) for chip, plane in ALL_PLANES]
    finished, _, _ = both(
        [
            submit(0, *erases),
            read(10 * US, (1, 0)),
            read(20 * US, (0, 1)),
        ]
    )
    sense_end = TIMING.t_erase_ns + SENSE_NS
    assert finished[2] == [sense_end + BUS_NS]
    assert finished[1] == [sense_end + 2 * BUS_NS]


def test_read_queued_behind_another_requests_run_ties_with_that_requests_other_plane():
    """A one-page read behind the first request's two pages on plane
    (0, 0) ends its sense when that request's third page on (0, 1)
    does; (0, 0) found idle first, so its queue goes first."""
    finished, _, _ = both(
        [
            read(0, (0, 0), (0, 0), (0, 1), (0, 1), (0, 1), (0, 1)),
            read(10 * US, (0, 0)),
        ]
    )
    assert finished[1] == [SENSE_NS + 5 * BUS_NS]
    assert finished[0][4:] == [SENSE_NS + 6 * BUS_NS, SENSE_NS + 7 * BUS_NS]


def test_program_page_lands_ahead_of_tentative_reads():
    """A streamed page whose DMA lands between two senses takes its
    place between their bus phases; the reads behind it are remade."""
    finished, _, _ = both(
        [read(0, (0, 0), n=4), program(10 * US, 100 * US, chip=1)]
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
            program(0, 100 * US),
            program(0, 110 * US),
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
        [read(0, (0, 0), n=3), submit(5 * US, read_op(addr(plane=1), PAGE))]
    )
    assert finished[1] == SENSE_NS + 2 * BUS_NS
    assert finished[0] == [
        SENSE_NS + BUS_NS, SENSE_NS + 3 * BUS_NS, SENSE_NS + 4 * BUS_NS
    ]


def test_per_phase_bus_intruder_at_a_sense_end_goes_after_the_page():
    """As for a streamed page: per phase the order at the tied
    nanosecond hangs on sequence numbers; ahead, the page is first."""
    script = [
        read(0, (0, 0), n=2),
        submit(SENSE_NS, read_op(addr(plane=1), PAGE)),
    ]
    finished, _, _ = run(script, ahead=True)
    assert finished[0] == [SENSE_NS + BUS_NS, SENSE_NS + 2 * BUS_NS]
    assert finished[1] == SENSE_NS + 3 * BUS_NS


def test_erase_queued_behind_a_sense_run_relays_at_its_grant():
    """No sense end event to chain from: same instants either way."""
    finished, _, _ = both(
        [read(0, (0, 1), n=3), submit(10 * US, erase_op(addr(plane=1)))]
    )
    assert finished[1] == 3 * SENSE_NS + TIMING.t_erase_ns


def test_long_read_refills_its_tentative_tail_from_a_timer():
    """Eighty pages over two planes hold at most READ_AHEAD_PAGES (and a
    sense time's worth) of bus phases ahead; intruders of every kind
    arrive while the tail is being refilled."""
    held = []
    script = [
        read(0, (0, 0), (0, 1), n=40),
        program(200 * US, 900 * US, chip=1),
        submit(1_000 * US, read_op(addr(chip=1, plane=1), PAGE)),
        program(1_500 * US, 2_000 * US, chip=1),
        read(1_700 * US, (1, 1), n=2),
        submit(2_500 * US, erase_op(addr(plane=1))),
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


def as_batch(ops):
    """The plane runs the block FTL would hand over for these READs."""
    runs = []
    for op in ops:
        a = op.address
        if runs and runs[-1][:3] == [a.chip, a.plane, a.block] and (
            runs[-1][3] + runs[-1][4] == a.page
        ):
            runs[-1][4] += 1
        else:
            runs.append([a.chip, a.plane, a.block, a.page, 1])
    batch = OpRuns(OpKind.READ, 0, PAGE, [tuple(run) for run in runs], False)
    assert batch == ops
    return batch


@pytest.mark.parametrize("bound", [None, 3])
def test_a_batch_and_the_list_it_stands_for_are_one_request(bound):
    """Plane runs read off an ``OpRuns`` or regrouped from a list at the
    door: same reservations, same events -- bare, and behind a gate
    whose first hop takes a slice of the request."""
    script = [
        read(0, (0, 0), (0, 1), n=40),
        submit(1_000 * US, read_op(addr(chip=1, plane=1), PAGE)),
        read(1_700 * US, (1, 1), (0, 0), n=2),
        submit(2_500 * US, erase_op(addr(plane=1))),
        read(2_600 * US, (0, 1)),
    ]
    if bound is None:
        script.insert(1, program(200 * US, 900 * US, chip=1))
    batched = [
        (kind, at, request, as_batch(what) if kind == "read" else what)
        for kind, at, request, what in script
    ]
    assert run(batched, True, bound) == run(script, True, bound)


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
    sense ends: its own sense ends with that request's second.  Per
    phase the second sense's end event was scheduled from the first's,
    itself a sense time old; the newcomer's by a submission scheduled
    one stack crossing ago -- so the queued run's page goes first."""

    def play(observed):
        sim = Simulator()
        sdf = small_sdf(sim)
        sdf.prefill(0.5)
        if observed:
            attach_device(Observability(), sdf)
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

    ahead, per_phase = play(False), play(True)
    assert ahead == per_phase
    # The newcomer's page is the third on the bus, not the second.
    submit_ns = small_sdf(Simulator()).iostack.submit_ns
    dma_asked_at = submit_ns + SENSE_NS + 3 * BUS_NS
    assert ahead[0]["idle"] > dma_asked_at > ahead[0]["idle"] - 20 * US
    assert ahead[0]["run"] > ahead[0]["idle"]


@pytest.mark.parametrize("attach", ["obs", "stall"])
def test_attachment_between_two_reads_puts_the_next_on_per_phase_hops(attach):
    """A probe on the engine, or a STALL rule at its site.  (The plan is
    wired from the start: holding no rule it is no injector.)"""
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
    if attach == "obs":
        obs = Observability()
        attach_device(obs, sdf)
    else:
        plan.add("ch0", "stall", at_op=3, delay_ns=40 * US)
    assert not engine.can_reserve_ahead()
    sim.run(until=sim.process(channel.read(0, 8, 8)))
    assert engine.ops_executed.value == 16 and not engine._ahead
    # Sense end, bus end and DMA end for every page.
    assert sim._seq - ahead_events >= 3 * 8
    if attach == "obs":
        assert obs.metrics.snapshot(sim.now)["channel0.queue_depth"] > 0
    else:
        assert [event.kind for event in plan.log] == ["stall"]


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


def gated_day(rules_at, observed):
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
    if observed:
        attach_device(Observability(), sdf)
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
    got, before, total = gated_day(rules_at, observed=False)
    expected, per_phase_before, per_phase_total = gated_day(rules_at, observed=True)
    assert got == expected
    kinds = {signature[1] for signature in got["faults"]}
    assert kinds == {"stall", "delay", "drop"}
    assert any(isinstance(outcome, tuple) for outcome in got["outcomes"])
    # Ahead until the rules came, per phase after.
    assert before < 0.8 * per_phase_before
    assert total - before == pytest.approx(per_phase_total - per_phase_before, rel=0.02)


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
