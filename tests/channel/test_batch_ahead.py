"""``ChannelEngine.execute_batch_call`` on a plain engine against the
per-phase hops.

A batch's PROGRAMs are reserved ahead (bus now, plane from the bus end)
and cost one event each; its READs and ERASEs run per phase, a plane's
senses taken as one run.  The oracle is the same script with the
engine pinned to its per-phase hops (``per_phase``), every op of every
batch taken phase by phase; both carry a metrics-only probe, whose
queue depth is sampled with the counters.  The conventional scripts are shaped as the
three conventional drives' work -- GC relocations (a victim's valid
pages read and programmed onto every plane, then the victim's erase, as
one ``Relocation`` part or as the flat op list), host programs and
reads one at a time -- each submitted from an event scheduled a
controller phase of that drive earlier (or at its very instant), with
submissions placed on the nanoseconds at which senses, bus phases and
programs end.  The mixed scripts put batches from grant hops beside
reads and streamed pages reserved ahead on one engine.
"""

import gc
from collections import Counter

import numpy as np
import pytest

from repro.channel.engine import ChannelEngine
from repro.devices import HUAWEI_GEN3_SPEC, INTEL_320_SPEC, MEMBLAZE_Q520_SPEC
from repro.ftl.ops import (
    OpKind,
    OpParts,
    Relocation,
    erase_op,
    program_op,
    read_op,
)
from repro.nand.array import PhysicalAddress
from repro.obs import Observability
from repro.sim import US, Simulator
from tests.channel.reference_engine import per_phase

#: The drives whose controller phases call the engine, by name.
SPECS = {
    spec.name: spec
    for spec in (HUAWEI_GEN3_SPEC, INTEL_320_SPEC, MEMBLAZE_Q520_SPEC)
}
#: The SDF's flash (Gen3's): the mixed scripts' engine.
SDF = HUAWEI_GEN3_SPEC
PAGE = SDF.geometry.page_size
TIMING = SDF.timing
BUS_NS = TIMING.bus_transfer_ns(PAGE)
SENSE_NS = TIMING.t_read_ns
CHECKPOINTS = tuple(step * 200 * US for step in range(1, 60))


def planes_of(spec):
    return [
        (chip, plane)
        for chip in range(spec.chips_per_channel)
        for plane in range(spec.geometry.planes_per_chip)
    ]


def leads(spec):
    """How long before it runs an event that submits a batch is
    scheduled: a write's controller phase (GC and host programs), a
    read's at no and at full congestion, or 0 (a hop at its instant)."""
    read_ns = spec.controller_read_ns_per_page
    return (
        spec.controller_write_ns_per_page,
        read_ns,
        int(read_ns * spec.congestion_max_factor),
        0,
    )


def addr(chip, plane, block=0, page=0):
    return PhysicalAddress(0, chip, plane, block, page)


def relocation(victim, offsets, start, spec=SDF):
    """A victim's pages at ``offsets`` moved round-robin onto every
    plane from plane ``start`` on (block 1 of each)."""
    planes = planes_of(spec)
    runs = []
    for index, (chip, plane) in enumerate(planes):
        first = (index - start) % len(planes)
        count = len(range(first, len(offsets), len(planes)))
        if count:
            runs.append((first, count, chip, plane, 1, 0))
    return Relocation(
        0, spec.geometry.page_size, victim + (0,), list(offsets), runs, len(planes)
    )


def gc_batch(victim, offsets, start, as_parts, spec=SDF):
    """A relocation and the victim's erase: the batch a GC write hands
    the engine (a ``Relocation`` part, or the ops it stands for)."""
    parts = [relocation(victim, offsets, start, spec), erase_op(addr(*victim))]
    batch = OpParts(parts)
    return batch if as_parts else list(batch)


def lattice(timing, page):
    """Submission instants where senses, bus phases and programs end."""
    bus_ns = timing.bus_transfer_ns(page)
    points = sorted(
        {
            int(a * timing.t_read_ns + b * bus_ns + c * timing.t_prog_ns)
            for a in range(8)
            for b in range(8)
            for c in range(2)
        }
    )
    return points[: len(points) // 2]


def conventional_cast(seed, spec):
    """A seeded script of ``spec``'s work: ``(kind, at, lead, payload)``
    items, each a batch submitted at ``at`` from an event scheduled
    ``lead`` earlier -- a controller phase of the drive, or 0.  GC
    batches, erases and host programs come from a write's controller
    phase, reads one page at a time from a read's."""
    rng = np.random.default_rng(seed)
    page = spec.geometry.page_size
    instants = lattice(spec.timing, page)
    planes = planes_of(spec)
    write_ns, *read_leads = leads(spec)

    def instant():
        return int(rng.choice(instants))

    def plane():
        return planes[int(rng.integers(len(planes)))]

    def write_lead():
        return (write_ns, 0)[int(rng.integers(2))]

    script = []
    for _ in range(int(rng.integers(3, 10))):
        roll = rng.random()
        at = instant()
        if roll < 0.25:
            victim = plane()
            n = int(rng.integers(1, 24))
            offsets = sorted(rng.choice(64, size=n, replace=False).tolist())
            start = int(rng.integers(len(planes)))
            payload = gc_batch(victim, offsets, start, rng.random() < 0.5, spec)
            script.append((at, write_lead(), payload))
        elif roll < 0.55:
            chip, pl = plane()
            script.append((at, write_lead(), [program_op(addr(chip, pl), page)]))
        elif roll < 0.65:
            chip, pl = plane()
            script.append((at, write_lead(), [erase_op(addr(chip, pl))]))
        else:
            lead = read_leads[int(rng.integers(len(read_leads)))]
            for page_no in range(int(rng.integers(1, 6))):
                op = read_op(addr(*plane(), page=page_no), page)
                script.append((at, lead, [op]))
    return [("batch", max(at, lead), lead, payload) for at, lead, payload in script]


def mixed_cast(seed):
    """A seeded script for one SDF engine: batches of programs and
    erases (GC-shaped moves' programs, single pages) and reads reserved
    ahead, each from a hop at its very instant, beside streamed pages.
    (A read reserved ahead from an event scheduled long before is the
    read path's own tie, ``test_ahead_differential``.)  No batch READ: a READ on the per-phase hops and one reserved ahead
    asking for the bus on one nanosecond are ordered by the sense-end
    rule's approximation (DESIGN.md section 7), and no engine holds
    both kinds, its batches' READs running per phase and
    ``read_ahead`` being the SDF device's."""
    rng = np.random.default_rng(seed)
    instants = lattice(TIMING, PAGE)
    planes = planes_of(SDF)

    def instant():
        return int(rng.choice(instants))

    def plane():
        return planes[int(rng.integers(len(planes)))]

    script = []
    for _ in range(int(rng.integers(3, 10))):
        roll = rng.random()
        at = instant()
        if roll < 0.25:
            victim = plane()
            n = int(rng.integers(1, 24))
            offsets = sorted(rng.choice(64, size=n, replace=False).tolist())
            start = int(rng.integers(len(planes)))
            payload = [
                op
                for op in relocation(victim, offsets, start)
                if op.kind is OpKind.PROGRAM
            ]
            script.append(("batch", at, 0, payload))
        elif roll < 0.55:
            chip, pl = plane()
            script.append(("batch", at, 0, [program_op(addr(chip, pl), PAGE)]))
        elif roll < 0.65:
            chip, pl = plane()
            script.append(("batch", at, 0, [erase_op(addr(chip, pl))]))
        elif roll < 0.85:
            pages = [
                read_op(addr(*plane(), page=page), PAGE)
                for page in range(int(rng.integers(1, 6)))
            ]
            script.append(("read", at, 0, pages))
        else:
            chip, pl = plane()
            request = at + int(rng.choice([SENSE_NS, BUS_NS, 2 * SENSE_NS]))
            script.append(("stream", at, request, program_op(addr(chip, pl), PAGE)))
    return script


def play(script, pinned, spec=SDF, caller_lead_ns=0):
    """Run ``script`` on one observed engine of ``spec``'s, built for
    callers scheduled up to ``caller_lead_ns`` before they run; returns
    (completions, samples, events).  ``pinned`` to the per-phase hops,
    every batch goes phase by phase, reads go op by op through
    ``execute_fast`` and a streamed page is submitted from a timer set
    when it asks for its DMA."""
    sim = Simulator()
    engine = ChannelEngine(
        sim, 0, spec.geometry, spec.timing, spec.chips_per_channel, caller_lead_ns
    )
    engine.obs = Observability()
    if pinned:
        per_phase(engine)
    assert engine.can_reserve_ahead() != pinned
    finished = {}

    def finish(tag, many):
        if many:
            return lambda: finished.setdefault(tag, []).append(sim.now)
        return lambda: finished.setdefault(tag, sim.now)

    def submit(kind, payload, then, request):
        if kind == "batch":
            engine.execute_batch_call(payload, then)
        elif kind == "read":
            if pinned:
                for op in payload:
                    engine.execute_fast(op, then)
            else:
                engine.read_ahead(payload, then)
        elif pinned:
            sim._schedule_call(
                lambda: engine.execute_fast(payload, then), request - sim.now
            )
        else:
            address = payload.address
            engine.program_page_ahead(
                (address.chip, address.plane), PAGE, request, then
            )

    for tag, (kind, at, lead, payload) in enumerate(script):
        item = (kind, payload, finish(tag, kind == "read"), lead)
        if kind == "stream":
            sim._schedule_call(lambda item=item: submit(*item), at)
        else:
            # Scheduled ``lead`` before its instant, by an earlier event.
            sim._schedule_call(
                lambda item=item: sim._schedule_call(
                    lambda: submit(*item), item[3]
                ),
                at - lead,
            )
    samples = []
    for checkpoint in CHECKPOINTS + (None,):
        sim.run(until=checkpoint)
        samples.append(
            (
                engine.ops_executed.value,
                engine.wait_ns.value,
                engine.busy_value(),
                engine.queue_depth(checkpoint),
            )
        )
    assert len(finished) == len(script)
    return finished, samples, sim._seq


CONVENTIONAL_CASTS = [
    (name, seed)
    for name, count in (("huawei-gen3", 80), ("intel-320", 40), ("memblaze-q520", 40))
    for seed in range(count)
]


@pytest.mark.parametrize("name,seed", CONVENTIONAL_CASTS)
def test_conventional_batches_match_the_per_phase_hops(name, seed):
    spec = SPECS[name]
    script = conventional_cast(seed, spec)
    lead = spec.longest_page_phase_ns
    finished, samples, _ = play(script, False, spec, lead)
    expected, expected_samples, _ = play(script, True, spec, lead)
    assert finished == expected
    assert samples == expected_samples


@pytest.mark.parametrize("seed", range(80))
def test_mixed_batches_match_the_per_phase_hops(seed):
    script = mixed_cast(seed)
    finished, samples, _ = play(script, pinned=False)
    expected, expected_samples, _ = play(script, pinned=True)
    assert finished == expected
    assert samples == expected_samples


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
    as_parts = play([("batch", 0, 0, unbuilt)], pinned=False)
    as_list = play(
        [("batch", 0, 0, gc_batch((0, 1), offsets, 1, False))], pinned=False
    )
    per_phase = play(
        [("batch", 0, 0, gc_batch((0, 1), offsets, 1, True))], pinned=True
    )
    assert as_parts == as_list
    assert as_parts[:2] == per_phase[:2]


def test_a_program_costs_one_event_and_a_read_two():
    """Per phase every op costs an event a phase; on the plain engine a
    PROGRAM costs its end, a READ still a sense end and a bus end."""
    victim = (1, 0)
    batch = gc_batch(victim, list(range(10)), 0, True)
    _, _, events = play([("batch", 0, 0, batch)], pinned=False)
    _, _, per_phase = play([("batch", 0, 0, batch)], pinned=True)
    # Ten bus ends saved; the first read's data queues behind the
    # programs' bus phases, which have no end event to chain from, and
    # is granted by one relay at its grant.
    assert per_phase - events == 10 - 1


def test_programs_are_reserved_ahead_only_under_a_bus_phase():
    """Gen3's and Memblaze's longest controller phase is shorter than a
    page's bus phase, Intel's read phase at full congestion longer."""
    for spec, ahead in (
        (HUAWEI_GEN3_SPEC, True),
        (MEMBLAZE_Q520_SPEC, True),
        (INTEL_320_SPEC, False),
    ):
        page_bus_ns = spec.timing.bus_transfer_ns(spec.geometry.page_size)
        assert (spec.longest_page_phase_ns < page_bus_ns) == ahead
        script = [("batch", 0, 0, [program_op(addr(0, 0), spec.geometry.page_size)])]
        _, _, events = play(script, False, spec, spec.longest_page_phase_ns)
        _, _, per_phase = play(script, True, spec, spec.longest_page_phase_ns)
        assert per_phase - events == (1 if ahead else 0)


@pytest.mark.parametrize(
    "name,lead,first",
    [
        ("huawei-gen3", HUAWEI_GEN3_SPEC.longest_page_phase_ns, "program"),
        ("intel-320", INTEL_320_SPEC.controller_write_ns_per_page, "program"),
        ("intel-320", INTEL_320_SPEC.longest_page_phase_ns, "read"),
    ],
)
def test_a_program_at_its_bus_end_against_a_controller_phase(name, lead, first):
    """A program queued on the bus behind another ends its bus phase
    the nanosecond a read's controller phase ends on its plane.  Per
    phase the bus end was scheduled at the bus grant, the controller
    phase ``lead`` earlier: the one scheduled first takes the plane.
    Intel's read phase at full congestion outlasts a bus phase, so its
    engines keep PROGRAMs per phase; told its callers run at once, the
    engine would put the program first."""
    spec = SPECS[name]
    page = spec.geometry.page_size
    bus_ns = spec.timing.bus_transfer_ns(page)
    script = [
        ("batch", 0, 0, [program_op(addr(0, 1), page), program_op(addr(0, 0), page)]),
        ("batch", 2 * bus_ns, lead, [read_op(addr(0, 0, page=1), page)]),
    ]
    expected, _, _ = play(script, True, spec, spec.longest_page_phase_ns)
    finished, _, _ = play(script, False, spec, spec.longest_page_phase_ns)
    assert finished == expected
    sense_end = 2 * bus_ns + spec.timing.t_read_ns
    assert (finished[1] > sense_end + bus_ns) == (first == "program")
    unaware, _, _ = play(script, False, spec, 0)
    assert (unaware == expected) == (first == "program")


def test_foreign_op_raises_before_anything_is_reserved():
    """A batch is checked whole: an op for another channel k ops in
    leaves the timelines, the queue ahead and the counters as they
    were, and an empty batch is refused the same way."""
    sim = Simulator()
    engine = ChannelEngine(sim, 0, SDF.geometry, TIMING, 2)
    foreign = program_op(PhysicalAddress(1, 0, 0, 0, 0), PAGE)
    called = []
    for batch in (
        [program_op(addr(0, 0), PAGE), read_op(addr(0, 1), PAGE), foreign],
        OpParts([relocation((0, 0), [1, 2, 3], 0), foreign]),
        [],
    ):
        with pytest.raises(ValueError):
            engine.execute_batch_call(batch, lambda: called.append(sim.now))
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
        engine = ChannelEngine(sim, 0, SDF.geometry, TIMING, 2)
        done = []
        for start in range(3):
            batch = gc_batch((start % 2, 1), list(range(start, 48, 2)), start, True)
            engine.execute_batch_call(batch, lambda: done.append(sim.now))
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
