"""``ChannelEngine.execute_batch_call`` on a plain engine against the
per-phase hops.

A batch's PROGRAMs are reserved ahead (bus now, plane from the bus end)
and cost one event each; its READs and ERASEs run per phase, a plane's
senses taken as one run.  The oracle is the same case with the engine
pinned to its per-phase hops, every op of every batch taken phase by
phase (``differential.check``).  The seeded tests are 240 of the
tier-1 search's regions of the one strategy (``differential.cases``),
with no gate and no STALL rule: on each conventional drive, its
controller's work -- GC relocations as one ``Relocation`` part or as
the flat op list, host programs and reads, each submitted from an event
scheduled a controller phase of that drive earlier (or at its very
instant) -- and on the SDF's engine batches from grant hops beside
reads and streamed pages reserved ahead.
"""

import gc
from collections import Counter

import pytest
from hypothesis import strategies as st

from repro.channel.engine import ChannelEngine
from repro.devices import HUAWEI_GEN3_SPEC, INTEL_320_SPEC, MEMBLAZE_Q520_SPEC
from repro.ftl.ops import OpParts, Relocation, program_op, read_op
from repro.nand.array import PhysicalAddress
from repro.sim import Simulator
from tests.channel.differential import (
    DRIVES,
    PAGE,
    TIMING,
    Case,
    addr,
    batch,
    cases,
    gc_batch,
    play,
    relocation,
    search,
)

#: The regions: 80 seeds on Gen3's engine, 40 on each of the others.
CONVENTIONAL_CASTS = [
    (name, seed)
    for name, count in (("huawei-gen3", 80), ("intel-320", 40), ("memblaze-q520", 40))
    for seed in range(count)
]


def region(drive):
    """The strategy on ``drive``'s engine, plain: no gate, no STALL."""
    return cases(drive=st.just(drive), bound=st.none(), stall=st.none())


@pytest.mark.parametrize("name,seed", CONVENTIONAL_CASTS)
def test_conventional_batches_match_the_per_phase_hops(name, seed):
    search(region(DRIVES[name]), seed)


@pytest.mark.parametrize("seed", range(80))
def test_mixed_batches_match_the_per_phase_hops(seed):
    search(region(DRIVES["sdf"]), seed)


class _Unbuilt(Relocation):
    """A relocation whose ops may not be built one by one."""

    __slots__ = ()

    def __getitem__(self, index):
        raise AssertionError("an op of the relocation was built")


def test_a_relocation_part_and_its_op_list_are_one_batch():
    """The part reserves the same schedule as the ops it stands for
    (and as the per-phase hops), and no op of it is built but its
    reads."""
    offsets = list(range(0, 40, 3))
    unbuilt = gc_batch((0, 1), offsets, 1, True)
    unbuilt.parts[0].__class__ = _Unbuilt
    as_parts = play(Case((batch(0, unbuilt),)))
    as_list = play(Case((batch(0, *gc_batch((0, 1), offsets, 1, False)),)))
    per_phase = play(Case((batch(0, gc_batch((0, 1), offsets, 1, True)),)), True)
    assert as_parts[:3] == as_list[:3]
    assert as_parts[:2] == per_phase[:2]


def test_a_program_costs_one_event_and_a_read_two():
    """Per phase every op costs an event a phase; on the plain engine a
    PROGRAM costs its end, a READ still a sense end and a bus end."""
    case = Case((batch(0, gc_batch((1, 0), list(range(10)), 0, True)),))
    events, per_phase = play(case).events, play(case, pinned=True).events
    # Ten bus ends saved; the first read's data queues behind the
    # programs' bus phases, which have no end event to chain from, and
    # is granted by one relay at its grant.
    assert per_phase - events == 10 - 1


def test_programs_are_reserved_ahead_on_every_drive():
    """A batch PROGRAM costs one event fewer than per phase on every
    drive, Intel's too, whose read phase at full congestion outlasts a
    bus phase (``test_a_program_at_its_bus_end_against_a_controller_phase``)."""
    for spec in (HUAWEI_GEN3_SPEC, MEMBLAZE_Q520_SPEC, INTEL_320_SPEC):
        page = spec.geometry.page_size
        case = Case((batch(0, program_op(addr(), page)),), DRIVES[spec.name])
        events, per_phase = play(case).events, play(case, pinned=True).events
        assert per_phase - events == 1


@pytest.mark.parametrize(
    "name,lead,first",
    [
        # The longest controller phases: a read's at full congestion, a
        # write's.
        ("huawei-gen3", DRIVES["huawei-gen3"].leads[2], "program"),
        ("intel-320", INTEL_320_SPEC.controller_write_ns_per_page, "program"),
        ("intel-320", DRIVES["intel-320"].leads[2], "program"),
    ],
)
def test_a_program_at_its_bus_end_against_a_controller_phase(name, lead, first):
    """A program queued on the bus behind another ends its bus phase
    the nanosecond a read's controller phase ends on its plane: the
    program continues and takes the plane first, both ways, whether the
    read's caller was scheduled ``lead`` before or at that instant."""
    drive = DRIVES[name]
    page = drive.geometry.page_size
    bus_ns = drive.timing.bus_transfer_ns(page)
    runs = []
    for caller_lead in (lead, 0):
        items = (
            batch(0, program_op(addr(0, 1), page), program_op(addr(0, 0), page)),
            batch(2 * bus_ns, read_op(addr(0, 0, page=1), page), lead=caller_lead),
        )
        runs += [play(Case(items, drive), pinned=pinned).finished for pinned in (0, 1)]
    assert runs[1:] == runs[:1] * 3
    sense_end = 2 * bus_ns + drive.timing.t_read_ns
    assert (runs[0][1] > sense_end + bus_ns) == (first == "program")


def test_foreign_op_raises_before_anything_is_reserved():
    """A batch is checked whole: an op for another channel k ops in
    leaves the timelines, the queue ahead and the counters as they
    were, and an empty batch is refused the same way."""
    sim = Simulator()
    engine = ChannelEngine(sim, 0, DRIVES["sdf"].geometry, TIMING, 2)
    foreign = program_op(PhysicalAddress(1, 0, 0, 0, 0), PAGE)
    called = []
    for ops in (
        [program_op(addr(0, 0), PAGE), read_op(addr(0, 1), PAGE), foreign],
        OpParts([relocation((0, 0), [1, 2, 3], 0), foreign]),
        [],
    ):
        with pytest.raises(ValueError):
            engine.execute_batch_call(ops, lambda: called.append(sim.now))
        sim.run()
        assert engine._tl_bus.free_at == 0
        assert all(plane.free_at == 0 for plane in engine._tl_planes.values())
        assert not engine._ahead and engine.ops_executed.value == 0
        assert not called and sim._seq == 0


def test_a_finished_gc_batch_leaves_nothing_to_collect():
    """The entries, the countdown and the per-phase records of a GC
    batch die by reference count when it completes."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        sim = Simulator()
        engine = ChannelEngine(sim, 0, DRIVES["sdf"].geometry, TIMING, 2)
        done = []
        for start in range(3):
            ops = gc_batch((start % 2, 1), list(range(start, 48, 2)), start, True)
            engine.execute_batch_call(ops, lambda: done.append(sim.now))
            engine.execute_batch_call(
                [program_op(addr(1, 1, block=2), PAGE)], lambda: done.append(sim.now)
            )
            sim.run()
        assert len(done) == 6
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage = Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == {}
    finally:
        if enabled:
            gc.enable()
