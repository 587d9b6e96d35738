"""The channel engine's differential: one runner and one strategy.

A :class:`Case` is work for one channel-0
:class:`~repro.channel.engine.ChannelEngine`, as items submitted
through its four doors, and the engine it runs on: the drive whose
flash and callers it has, an admission bound, a STALL rule at its
site, a metrics-only probe and a trace.  :func:`play`
runs a case and records each item's completion instants, the engine's
accounting at checkpoints and the spans traced.  :func:`check` plays it
twice, as is and pinned to the per-phase hops
(``reference_engine.per_phase``), and the two must agree.  It then
submits the case's ops one process each to
the engine and to :class:`~tests.channel.reference_engine.ReferenceEngine`,
and those must agree as well.

:func:`cases` is the hypothesis strategy that draws cases, and
:func:`search` checks a seeded region of it: tier 1 checks 264 of them
(``test_batch_ahead``, ``test_reference_differential``).  :func:`cast_of` draws the
device-level differential's casts (``test_ahead_differential``).
"""

import random
from typing import NamedTuple, Optional

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.channel.engine import ChannelEngine
from repro.devices import HUAWEI_GEN3_SPEC, INTEL_320_SPEC, MEMBLAZE_Q520_SPEC
from repro.faults import STALL, FaultPlan
from repro.ftl.ops import (
    FlashOp,
    OpKind,
    OpParts,
    OpRuns,
    Relocation,
    StripePage,
    erase_op,
    program_op,
    read_op,
)
from repro.nand.array import PhysicalAddress
from repro.nand.catalog import MICRON_25NM_MLC, SDF_CHIP_GEOMETRY
from repro.obs import Observability
from repro.qos.limits import ChannelQosState
from repro.sim import MS, US, Simulator
from tests.channel.reference_engine import ReferenceEngine, execute, per_phase

PAGE = SDF_CHIP_GEOMETRY.page_size
TIMING = MICRON_25NM_MLC
BUS_NS = TIMING.bus_transfer_ns(PAGE)  # 209.8 us
SENSE_NS = TIMING.t_read_ns
#: Where :func:`play` samples the engine's accounting, through the first
#: after every item has completed.
CHECKPOINTS = tuple(range(50 * US, 20 * MS, 200 * US))


class Drive(NamedTuple):
    """The flash a case's engine has, and its callers: how long before
    it runs an event that submits work may have been scheduled, for
    each kind of caller (``leads``)."""

    name: str
    geometry: object
    timing: object
    chips: int
    leads: tuple

    @property
    def planes(self):
        return [
            (chip, plane)
            for chip in range(self.chips)
            for plane in range(self.geometry.planes_per_chip)
        ]


def conventional(spec) -> Drive:
    """A conventional drive's engine: its callers are a write's
    controller phase, a read's at no and at full congestion, or a hop
    at its own instant."""
    read_ns = spec.controller_read_ns_per_page
    leads = (
        spec.controller_write_ns_per_page,
        read_ns,
        int(read_ns * spec.congestion_max_factor),
        0,
    )
    return Drive(
        spec.name, spec.geometry, spec.timing, spec.chips_per_channel, leads
    )


#: The SDF's engine, whose callers are hops at their own instants, and
#: the conventional drives', by name.
DRIVES = {
    drive.name: drive
    for drive in (
        Drive("sdf", SDF_CHIP_GEOMETRY, TIMING, 2, (0,)),
        *map(conventional, (HUAWEI_GEN3_SPEC, INTEL_320_SPEC, MEMBLAZE_Q520_SPEC)),
    )
}


class Case(NamedTuple):
    """``items`` for a channel-0 engine of a ``drive``, behind
    ``bound`` admission slots (None: none), with a STALL rule of
    ``stall``'s ``FaultPlan.add`` keywords at its site (None: none), a
    metrics-only ``Observability`` when ``observed`` and, when
    ``traced``, one with a trace on the engine and on the simulator
    instead.

    An item is ``(kind, at, arg, payload)``:

    - ``("stream", at, request, page)``: a PROGRAM, a write's
      ``StripePage``, whose link DMA is asked for at ``at`` and lands at
      ``request`` -- ``program_page_ahead`` when the engine
      ``can_program_ahead()``, else ``execute_fast`` from a timer at
      ``request``, as the SDF's write window does;
    - ``("read", at, lead, ops)``: ``read_ahead``, the SDF's reads;
    - ``("batch", at, lead, ops)``: ``execute_batch_call``;
    - ``("op", at, lead, op)``: ``execute_fast``.

    Each is submitted at ``at`` from an event scheduled ``lead`` (a
    stream: 0) before it by an earlier one: a hop at its own instant
    when 0, behind everything else that happens there."""

    items: tuple
    drive: Drive = DRIVES["sdf"]
    bound: Optional[int] = None
    stall: Optional[dict] = None
    observed: bool = True
    traced: bool = False

    def __repr__(self):
        page = self.drive.geometry.page_size
        items = "".join(
            f"\n    ({kind!r}, {at}, {arg}, {_ops_repr(payload, page)})"
            for kind, at, arg, payload in self.items
        )
        return (
            f"Case(drive={self.drive.name!r}, bound={self.bound}, "
            f"stall={self.stall}, observed={self.observed}, "
            f"traced={self.traced}, items:{items})"
        )


def _ops_repr(ops, page):
    """``R01 P10/2 E11``: each op's kind and ``(chip, plane)`` (``/2``: a
    half-page transfer), with the batch's shape when it is not a list."""
    if isinstance(ops, StripePage):
        return f"page on {ops.plane}"
    if isinstance(ops, FlashOp):
        ops = [ops]
    names = " ".join(
        f"{op.kind.name[0]}{op.address.chip}{op.address.plane}"
        + ("/2" if 0 < op.nbytes < page else "")
        for op in ops
    )
    shape = "" if type(ops) is list else type(ops).__name__
    return f"{shape}[{names}]"


def addr(chip=0, plane=0, page=0, block=0):
    return PhysicalAddress(0, chip, plane, block, page)


def stream(at, request, chip=0, plane=0, page=PAGE):
    """A PROGRAM whose DMA is asked for at ``at`` and lands at
    ``request``, the page of a write's plane runs that it is."""
    runs = OpRuns(OpKind.PROGRAM, 0, page, [(chip, plane, 1, 0, 1)], False)
    return ("stream", at, request, StripePage(runs, 0, (chip, plane)))


def batch(at, *ops, lead=0):
    """Ops handed to ``execute_batch_call`` at ``at``, as a list -- or
    one batch of another shape (an ``OpParts``, an ``OpRuns``) as it
    is."""
    if len(ops) == 1 and not isinstance(ops[0], FlashOp):
        return ("batch", at, lead, ops[0])
    return ("batch", at, lead, list(ops))


def read(at, *planes, n=1, as_runs=False, nbytes=PAGE):
    """One request's READs submitted at ``at``: ``n`` pages on each of
    the ``(chip, plane)`` pairs in ``planes``, plane run by plane run."""
    return ("read", at, 0, reads_as([(key, n) for key in planes], nbytes, as_runs))


class Played(NamedTuple):
    #: tag -> completion instant; a read's: the list of its pages'.
    finished: dict
    #: The engine's accounting at each checkpoint.
    samples: list
    events: int
    #: What each ``read_ahead`` returned, in submission order.
    flags: list
    engine: ChannelEngine
    #: The spans traced, as a sorted multiset: an op reserved ahead
    #: emits its phases' spans at its end, so their order means nothing.
    spans: tuple


def _engine(case, sim):
    drive = case.drive
    engine = ChannelEngine(sim, 0, drive.geometry, drive.timing, drive.chips)
    if case.bound is not None:
        engine.qos = ChannelQosState(sim, 0, case.bound)
    if case.stall is not None:
        engine.faults = _stall_injector(case.stall, sim)
    return engine


def _stall_injector(stall, sim):
    plan = FaultPlan().add("ch0", STALL, **stall)
    plan.bind_clock(sim)
    return plan.injector("ch0")


def play(case, pinned=False) -> Played:
    """Run ``case`` on its engine, ``pinned`` to the per-phase hops or
    not: each door then takes every op phase by phase."""
    sim = Simulator()
    engine = _engine(case, sim)
    if case.traced:
        sim.obs = engine.obs = Observability(trace=True)
    elif case.observed:
        engine.obs = Observability()
    if pinned:
        per_phase(engine)
    qos = engine.qos
    finished = {}
    flags = []

    def finish(tag, many):
        if many:
            return lambda: finished.setdefault(tag, []).append(sim.now)
        return lambda: finished.setdefault(tag, sim.now)

    def completions():
        return sum(len(at) if type(at) is list else 1 for at in finished.values())

    expected = sum(len(p) if k == "read" else 1 for k, _, _, p in case.items)

    def submit(kind, payload, then, arg):
        if kind == "batch":
            engine.execute_batch_call(payload, then)
        elif kind == "op":
            engine.execute_fast(payload, then)
        elif kind == "read":
            flags.append(engine.read_ahead(payload, then))
        elif engine.can_program_ahead():
            engine.program_page_ahead(
                payload.plane, payload.nbytes, arg, then, payload.runs, payload.index
            )
        else:
            sim._schedule_call(
                lambda: engine.execute_fast(payload, then), arg - sim.now
            )

    for tag, (kind, at, arg, payload) in enumerate(case.items):
        item = (kind, payload, finish(tag, kind == "read"), arg)
        lead = 0 if kind == "stream" else arg
        sim._schedule_call(
            lambda item=item, lead=lead: sim._schedule_call(
                lambda: submit(*item), lead
            ),
            at - lead,
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
                engine.queue_depth(checkpoint),
                qos and (qos.throttled.value, qos.throttle_wait_ns.value),
            )
        )
        if completions() == expected:
            break  # what is left to sample follows from these counters
    sim.run()
    assert len(finished) == len(case.items)
    assert not engine._ahead or engine._ahead[0].due <= sim.now
    spans = engine.obs.trace.spans if case.traced else ()
    spans = sorted(
        (s.track, s.name, s.start_ns, s.end_ns, sorted(s.args.items())) for s in spans
    )
    return Played(finished, samples, sim._seq, flags, engine, tuple(spans))


def arrivals(case):
    """``(instant, op)``: every op of ``case`` at the instant it reaches
    the channel (a streamed PROGRAM's: its DMA's end), in item order."""
    ops = []
    for kind, at, arg, payload in case.items:
        if kind == "stream":
            ops.append((arg, payload.runs[payload.index]))
        elif kind == "op":
            ops.append((at, payload))
        else:
            ops.extend((at, op) for op in payload)
    return ops


def run_ops(sim, engine, ops, accounting):
    """Every op of ``ops`` from its own process, started by a hop at the
    op's instant, through ``reference_engine.execute``; returns the
    completion instants and ``accounting()`` at the checkpoints,
    through the first after the last completion.  Ops submitted on one
    nanosecond reach either model in the order the processes were
    made."""
    finished = [None] * len(ops)

    def issue(index, op):
        yield from execute(engine, op)
        finished[index] = sim.now

    for index, (at, op) in enumerate(ops):
        sim._schedule_call(
            lambda index=index, op=op: sim.process(issue(index, op)), at
        )
    samples = []
    for checkpoint in CHECKPOINTS:
        sim.run(until=checkpoint)
        samples.append(accounting())
        if None not in finished:
            break
    sim.run()
    return finished, samples


def against_reference(case):
    """``case``'s ops (:func:`arrivals`), one process each, on its
    engine and on :class:`ReferenceEngine`; returns what each gives."""
    ops = arrivals(case)
    sim = Simulator()
    engine = _engine(case, sim)
    qos = engine.qos
    got = run_ops(sim, engine, ops, lambda: (
        engine.ops_executed.value,
        engine.wait_ns.value,
        engine.busy_value(),
        engine.utilization(),
        qos and (qos.throttled.value, qos.throttle_wait_ns.value),
    ))
    drive = case.drive
    sim = Simulator()
    reference = ReferenceEngine(
        sim, drive.geometry, drive.timing, drive.chips, case.bound
    )
    if case.stall is not None:
        reference.faults = _stall_injector(case.stall, sim)
    expected = run_ops(sim, reference, ops, lambda: (
        reference.ops_executed,
        reference.wait_ns,
        reference.busy_value(),
        reference.utilization(),
        case.bound and (reference.throttled, reference.throttle_wait_ns),
    ))
    return got, expected


def check(case):
    """Assert the three ways to run ``case`` agree; returns its runs
    as is and pinned to the per-phase hops."""
    ahead, hops = play(case), play(case, pinned=True)
    assert ahead.finished == hops.finished
    assert ahead.samples == hops.samples
    assert ahead.spans == hops.spans
    got, expected = against_reference(case)
    assert got == expected
    return ahead, hops


# -- the strategy ---------------------------------------------------------------------


def lattice(timing, page):
    """Instants where senses, bus phases, programs and erases end."""
    bus_ns = timing.bus_transfer_ns(page)
    points = sorted(
        {
            int(
                a * timing.t_read_ns
                + b * bus_ns
                + c * timing.t_prog_ns
                + d * timing.t_erase_ns
            )
            for a in range(8)
            for b in range(8)
            for c in range(2)
            for d in range(2)
        }
    )
    return points[: len(points) // 2]


def relocation(victim, offsets, start, drive=DRIVES["sdf"]):
    """A victim's pages at ``offsets`` moved round-robin onto every
    plane from plane ``start`` on (block 1 of each)."""
    planes = drive.planes
    runs = []
    for index, (chip, plane) in enumerate(planes):
        first = (index - start) % len(planes)
        count = len(range(first, len(offsets), len(planes)))
        if count:
            runs.append((first, count, chip, plane, 1, 0))
    return Relocation(
        0, drive.geometry.page_size, victim + (0,), list(offsets), runs,
        len(planes),
    )


def gc_batch(victim, offsets, start, as_parts, drive=DRIVES["sdf"]):
    """A relocation and the victim's erase: the batch a GC write hands
    the engine (a ``Relocation`` part, or the ops it stands for)."""
    parts = OpParts(
        [relocation(victim, offsets, start, drive), erase_op(addr(*victim))]
    )
    return parts if as_parts else list(parts)


def reads_as(runs, page, as_runs):
    """READs of ``n`` pages on each ``((chip, plane), n)`` of ``runs``,
    as a list or as the ``OpRuns`` the block FTL would hand over."""
    if as_runs:
        return OpRuns(
            OpKind.READ, 0, page,
            [(chip, plane, 0, 0, n) for (chip, plane), n in runs], False,
        )
    return [
        read_op(addr(chip, plane, index), page)
        for (chip, plane), n in runs
        for index in range(n)
    ]


#: What an item of the SDF's work is, reads and streamed pages the
#: likeliest.
SDF_WORK = (
    "read", "stream", "erase", "read", "program", "move", "stream", "erase",
    "window", "op",
)
#: Pages a read takes on a plane: past a refill (``READ_AHEAD_PAGES``),
#: and past an erase's worth of senses.
READ_PAGES = (1, 2, 3, 8, 17, 33, 41, 64)
BOUNDS = st.one_of(st.none(), st.integers(1, 8))
STALLS = st.sampled_from(
    (
        None,
        {"rate": 0.05, "delay_ns": 300 * US},
        {"rate": 0.3, "delay_ns": 300 * US},
        {"at_op": 4, "delay_ns": 70 * US},
    )
)


@st.composite
def cases(
    draw,
    drive=st.one_of(st.just(DRIVES["sdf"]), st.sampled_from(tuple(DRIVES.values()))),
    bound=BOUNDS,
    stall=STALLS,
    observed=st.booleans(),
):
    """A :class:`Case`: a mixed schedule for one engine.

    The SDF's engine gets the SDF's work, each item from a hop at its
    instant: streamed PROGRAMs whose DMAs land a bus phase, or two or
    three senses, after they are asked for, ``read_ahead`` requests (a
    list or an ``OpRuns``; some longer than ``READ_AHEAD_PAGES``),
    batches of PROGRAMs (single, a GC move's, a write window's
    interleaved ``OpRuns``) and of ERASEs (one to every plane, with
    reads queued behind some of them, in any order), and single PROGRAMs
    and ERASEs through ``execute_fast``.  A conventional drive's gets
    its controller's, each from an event scheduled one of the drive's
    controller phases before: GC batches (a ``Relocation`` part with
    the victim's erase, or the ops it stands for), single programs and
    erases, and reads a page a batch or a request a batch.  Instants
    fall where senses, bus phases, programs and erases end, on a
    multiple of a sense, or anywhere in the first 3 ms; on a
    conventional drive a third of the items come on the nanosecond of
    the one before, and a transfer moves a whole page or half of one (a
    GC move: a whole page).  No engine gets both ``read_ahead`` and a
    per-phase READ, no DMA lands one sense after it is asked for, and
    the SDF moves whole pages with items on one nanosecond only where
    drawn so (an erase's queued reads): restrictions that once avoided
    ties, kept so that the seeded regions draw what they drew.  A drive,
    a bound, a STALL rule and the probe are drawn from ``drive``,
    ``bound``, ``stall`` and ``observed``, which a region may pin; an
    observed case is traced too (drawn with the probe, so the regions
    draw the cases they drew before spans came off the reservations).
    """
    spec = draw(drive)
    page = spec.geometry.page_size
    timing = spec.timing
    bus_ns = timing.bus_transfer_ns(page)
    planes = spec.planes
    # Half on a multiple of a sense, where senses queued behind
    # different phases meet.
    senses = st.sampled_from(range(0, 24 * timing.t_read_ns, timing.t_read_ns))
    ends = st.sampled_from(lattice(timing, page))
    instants = st.one_of(senses, ends, senses, st.integers(0, 3 * MS))
    bursts = st.sampled_from((False, False, True))
    # The SDF moves whole pages; a conventional drive may move half of one.
    sizes = st.just(page) if spec.name == "sdf" else st.sampled_from((page, page // 2))
    plane = st.sampled_from(planes)
    some_planes = st.lists(plane, min_size=1, max_size=len(planes), unique=True)

    def moved():
        """A GC move: the victim's plane, its valid pages (every other
        one: only their count and planes time the move), and the plane
        its relocation starts at."""
        valid = range(0, 2 * draw(st.integers(1, 24)), 2)
        return draw(plane), list(valid), draw(st.integers(0, len(planes) - 1))

    def sdf_item(at):
        what = draw(st.sampled_from(SDF_WORK))
        size = draw(sizes)
        if what == "stream":
            chip, pl = draw(plane)
            dma = draw(st.sampled_from((bus_ns, 2 * SENSE_NS, 3 * SENSE_NS)))
            return [stream(at, at + dma, chip, pl, size)]
        if what == "read":
            on = draw(st.lists(plane, min_size=1, max_size=3))
            n = draw(st.sampled_from(READ_PAGES))
            as_runs = draw(st.booleans())
            return [read(at, *on, n=n, as_runs=as_runs, nbytes=size)]
        if what == "erase":
            # Reads queued behind some of the erased planes, in any order.
            on = draw(some_planes)
            behind = draw(st.permutations(on))[: draw(st.integers(0, len(on)))]
            return [batch(at, *[erase_op(addr(*key)) for key in on])] + [
                read(at, key, n=draw(st.integers(1, 8))) for key in behind
            ]
        if what == "program":
            return [batch(at, program_op(addr(*draw(plane)), size))]
        if what == "move":
            moves = relocation(*moved(), spec)
            return [batch(at, *[op for op in moves if op.kind is OpKind.PROGRAM])]
        if what == "window":
            n = draw(st.integers(1, 4))
            runs = [(chip, pl, 1, 0, n) for chip, pl in draw(some_planes)]
            return [batch(at, OpRuns(OpKind.PROGRAM, 0, size, runs, True))]
        key = addr(*draw(plane))
        op = draw(st.sampled_from((program_op(key, size), erase_op(key))))
        return [("op", at, 0, op)]

    def conventional_item(at):
        what = draw(st.sampled_from(("gc", "program", "erase", "pages", "request")))
        write_ns, *read_leads = spec.leads
        lead = draw(st.sampled_from((write_ns, 0)))
        size = draw(sizes)
        if what == "gc":
            payload = gc_batch(*moved(), draw(st.booleans()), spec)
        elif what == "program":
            payload = [program_op(addr(*draw(plane)), size)]
        elif what == "erase":
            payload = [erase_op(addr(*draw(plane)))]
        else:
            lead = draw(st.sampled_from(read_leads))
            run = st.tuples(plane, st.integers(1, 5))
            runs = draw(st.lists(run, min_size=1, max_size=2))
            if what == "pages":
                pages = reads_as(runs, size, False)
                return [("batch", max(at, lead), lead, [op]) for op in pages]
            payload = reads_as(runs, size, draw(st.booleans()))
        return [("batch", max(at, lead), lead, payload)]

    item = sdf_item if spec.name == "sdf" else conventional_item
    items = []
    for _ in range(draw(st.integers(1, 10))):
        # A third of a conventional drive's items come on the
        # nanosecond of the one before.
        if not items or item is sdf_item or not draw(bursts):
            at = draw(instants)
        items.extend(item(at))
    bound, stall, observed = draw(bound), draw(stall), draw(observed)
    return Case(tuple(items), spec, bound, stall, observed, observed)


#: Cases a seeded region of the tier-1 search checks.  Hypothesis
#: spends the first on the strategy's simplest case (one read at 0).
REGION_EXAMPLES = 5


def search(strategy, seed_value, examples=REGION_EXAMPLES):
    """:func:`check` ``examples`` draws of ``strategy``, the region of
    the search that ``seed_value`` seeds."""

    @seed(seed_value)
    @settings(
        max_examples=examples,
        database=None,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(strategy)
    def region(case):
        check(case)

    region()


# -- the device level -----------------------------------------------------------------


class Cast(NamedTuple):
    """The device-level differential's scenario: an SDF of
    ``n_channels`` and its processes, ``(channel, start_ns, role,
    arguments)`` -- ``("write", blocks)``, ``("read", block, n_pages,
    gaps)``, ``("erase", blocks, gaps)``, ``("tied_read", delay, plane,
    n_pages)`` (see ``test_ahead_differential.start``) -- and the
    admission bound its engines get when the run is gated."""

    n_channels: int
    procs: tuple
    bound: int


def cast_of(seed, read_heavy=False) -> Cast:
    """The cast ``random.Random(seed)`` draws.

    By default, per channel: a writer (17 in 20), a second writer (two
    in five) and, staggered (three in five), readers of 1 or 32 pages
    and an eraser, every process with its own start.  In lock-step
    every channel runs the same writers from instant 0 and nothing
    else, so that every tie between channels is between equal writes.

    ``read_heavy``: per channel a writer (two in three), one to three
    readers of 1 to 96 pages -- the longer ones refill their tentative
    tail from a timer -- and (one in two) an erase with two equal reads
    on different planes submitted while it runs, so that both sets of
    senses start the nanosecond the four-plane batch ends and tie for
    the bus at every step.
    """
    rng = random.Random(seed)
    n_channels = rng.randrange(1, 5)

    def gaps(fewest, most):
        return tuple(
            rng.randrange(1, 1_500 * US) for _ in range(rng.randrange(fewest, most))
        )

    def heavy(channel):
        procs = []
        if rng.random() < 0.67:
            start = rng.randrange(0, 3 * MS)
            blocks = tuple(rng.sample(range(4, 10), 2))
            procs.append((channel, start, "write", (blocks,)))
        for _ in range(rng.randrange(1, 4)):
            start = rng.randrange(0, 3 * MS)
            n_pages = rng.choice((1, 8, 32, 48, 96))
            read_gaps = gaps(2, 8)
            block = rng.randrange(2)
            procs.append((channel, start, "read", (block, n_pages, read_gaps)))
        if rng.random() < 0.5:
            start = rng.randrange(0, 6 * MS)
            procs.append((channel, start, "erase", ((2,), (0,))))
            n_pages = rng.choice((1, 8, 24))
            for plane in rng.sample(range(4), 2):
                delay = rng.randrange(100 * US, 2 * MS)
                procs.append((channel, start, "tied_read", (delay, plane, n_pages)))
        return procs

    def roles(stagger):
        """One channel's cast: ``(start_ns, role, arguments)``.  Blocks
        0-7 are prefilled: 0-1 are read, 2-3 erased; writers rewrite two
        of 4-9 (erasing the prefilled ones first) and a second writer
        fills 10-11."""

        def start():
            return rng.randrange(0, 3 * MS) if stagger else 0

        drawn = []
        if rng.random() < 0.85:
            drawn.append((start(), "write", (tuple(rng.sample(range(4, 10), 2)),)))
        if rng.random() < 0.4:
            drawn.append((start(), "write", ((10, 11),)))
        if not stagger:
            return drawn
        for block in (0, 1):
            if rng.random() < 0.6:
                n_pages = rng.choice((1, 1, 32))
                read_gaps = gaps(3, 12)
                drawn.append((start(), "read", (block, n_pages, read_gaps)))
        if rng.random() < 0.4:
            erase_gaps = (rng.randrange(1, 6 * MS), rng.randrange(1, 6 * MS))
            drawn.append((start(), "erase", ((2, 3), erase_gaps)))
        return drawn

    if read_heavy:
        procs = [proc for channel in range(n_channels) for proc in heavy(channel)]
    else:
        stagger = rng.random() < 0.6
        shared = None if stagger else roles(False)
        procs = [
            (channel, *proc)
            for channel in range(n_channels)
            for proc in shared or roles(stagger)
        ]
    return Cast(n_channels, tuple(procs), random.Random(f"gate{seed}").randrange(1, 9))
