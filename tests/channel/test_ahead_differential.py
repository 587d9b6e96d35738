"""Seeded differential: the reserve-ahead write window and read stream
against the per-phase hops.

Each seed draws a small SDF (1-4 channels) and a cast of processes --
writers, a second writer on a channel, readers of 1 or 32 pages, an
eraser, started in lock-step or staggered -- and runs it twice: as is
(pages reserved ahead, revoked and remade around every intruder), and
with a metrics-only ``Observability`` attached, which puts every page on
the per-phase hops.  The full ``sdf_signature`` must be equal.  A
second set of seeds draws read-heavy casts: several readers on a
channel, reads of up to a whole block (longer than the tail a request
keeps reserved ahead), and pairs of reads started behind one erase
batch so that their senses run in lock-step.

Both sets run a second time *gated*: a ``ChannelQosState`` on every
engine (bound drawn 1-8 per seed) and a wired ``FaultPlan`` holding no
rule on engines and link.  Admission stands in front of the ahead path
and a quiet injector is no injector, so the un-observed run still
reserves ahead -- from the grant hops -- and must equal the observed
one in the signature, the throttle counters and the admission-depth
timelines.
"""

import random

import pytest

from repro.channel.engine import ChannelEngine
from repro.devices.sdf import SDFDevice
from repro.faults import FaultPlan
from repro.nand.geometry import FlashGeometry
from repro.obs import Observability, attach_device
from repro.qos.limits import ChannelQosState
from repro.sim import Simulator, US
from tests.channel.test_timeline_equivalence import sdf_signature

#: 96-page logical blocks (six 16-page windows), 12 of them a channel
#: (the thirteenth is the FTL reserve).
GEOMETRY = FlashGeometry(pages_per_block=24, blocks_per_plane=13)
N_SEEDS = 240
#: Scenarios per test: the suite's unit of failure is a batch.
BATCH = 20
#: Read-cast seeds beyond the tie rule (DESIGN.md section 7): two reads
#: whose senses end on one nanosecond stand in queues that differ only
#: three phases back -- a program behind a sense run on one plane, a
#: program behind a program on the other, all ending together -- and
#: the rule looks back one run.  The bus schedule is the same; two
#: pages swap slots.  (1 seed of the 460 tried.)
BEYOND_TIE_RULE = {349}


def cast(rng, sdf):
    """The scenario's processes, as ``(start_ns, generator)`` pairs.

    Staggered (three in five), every channel draws its own cast and
    every process its own start.  In lock-step every channel runs the
    same writers from instant 0 and nothing else: there every tie
    between channels is between equals and falls in channel order
    either way.  (Channels made unequal by readers or erases and still
    tied to the nanosecond are the documented limit, DESIGN.md section
    7: the per-phase order hangs on the sequence numbers of bus-end
    events the ahead path does not schedule.)
    """
    sim = sdf.sim
    stagger = rng.random() < 0.6
    procs = []

    def writer(channel, blocks):
        for block in blocks:
            yield from channel.write_fresh(block)

    def reader(channel, block, n_pages, gaps):
        span = channel.pages_per_logical_block - n_pages
        for gap in gaps:
            yield sim.timeout(gap)
            yield from channel.read(block, gap % (span + 1), n_pages)

    def eraser(channel, blocks, gaps):
        for block, gap in zip(blocks, gaps):
            yield sim.timeout(gap)
            yield from channel.erase(block)

    def roles(rng):
        """One channel's cast: ``(start_ns, role, arguments)``."""

        def start():
            return rng.randrange(0, 3_000 * US) if stagger else 0

        # Blocks 0-7 are prefilled: 0-1 are read, 2-3 erased; writers
        # rewrite two of 4-9 (erasing the prefilled ones first) and a
        # second writer fills 10-11.
        drawn = []
        if rng.random() < 0.85:
            drawn.append((start(), writer, (rng.sample(range(4, 10), 2),)))
        if rng.random() < 0.4:
            drawn.append((start(), writer, ([10, 11],)))
        if not stagger:
            return drawn
        for block in (0, 1):
            if rng.random() < 0.6:
                n_pages = rng.choice((1, 1, 32))
                gaps = [
                    rng.randrange(1, 1_500 * US)
                    for _ in range(rng.randrange(3, 12))
                ]
                drawn.append((start(), reader, (block, n_pages, gaps)))
        if rng.random() < 0.4:
            gaps = [rng.randrange(1, 6_000 * US) for _ in range(2)]
            drawn.append((start(), eraser, ([2, 3], gaps)))
        return drawn

    shared = None if stagger else roles(rng)
    for channel in sdf.channels:
        for start_ns, role, arguments in shared or roles(rng):
            procs.append((start_ns, role(channel, *arguments)))
    return procs


def read_cast(rng, sdf):
    """A read-heavy cast, every process with its own start: per channel
    a writer (two in three), one to three readers of 1 to 96 pages --
    all cross plane boundaries, the longer ones refill their tentative
    tail from a timer -- and (one in two) an erase with two equal reads
    on different planes submitted while it runs, so that both sets of
    senses start the nanosecond the four-plane batch ends and tie for
    the bus at every step."""
    sim = sdf.sim
    procs = []

    def writer(channel, blocks):
        for block in blocks:
            yield from channel.write_fresh(block)

    def reader(channel, block, n_pages, gaps):
        span = channel.pages_per_logical_block - n_pages
        for gap in gaps:
            yield sim.timeout(gap)
            yield from channel.read(block, gap % (span + 1), n_pages)

    def eraser(channel, block):
        yield from channel.erase(block)

    def tied_reader(channel, delay, plane, n_pages):
        yield sim.timeout(delay)
        yield from channel.read(0, plane * GEOMETRY.pages_per_block, n_pages)

    for channel in sdf.channels:
        if rng.random() < 0.67:
            start = rng.randrange(0, 3_000 * US)
            procs.append((start, writer(channel, rng.sample(range(4, 10), 2))))
        for _ in range(rng.randrange(1, 4)):
            start = rng.randrange(0, 3_000 * US)
            n_pages = rng.choice((1, 8, 32, 48, 96))
            gaps = [
                rng.randrange(1, 1_500 * US)
                for _ in range(rng.randrange(2, 8))
            ]
            procs.append(
                (start, reader(channel, rng.randrange(2), n_pages, gaps))
            )
        if rng.random() < 0.5:
            start = rng.randrange(0, 6_000 * US)
            procs.append((start, eraser(channel, 2)))
            n_pages = rng.choice((1, 8, 24))
            for plane in rng.sample(range(4), 2):
                delay = rng.randrange(100 * US, 2_000 * US)
                procs.append(
                    (start, tied_reader(channel, delay, plane, n_pages))
                )
    return procs


def gate(seed, sdf):
    """Admission slots on every engine and a rule-less fault plan wired
    to engines and link; returns the registry the gates report to (its
    own: attaching it to an engine would force the per-phase hops) and
    the plan."""
    bound = random.Random(f"gate{seed}").randrange(1, 9)
    gates = Observability()
    for engine in sdf.engines:
        engine.qos = ChannelQosState(sdf.sim, engine.channel, bound)
        engine.qos.bind_obs(gates)
    plan = FaultPlan(seed=seed)
    plan.attach(sdf)
    return gates, plan


def play(seed, observed, cast=cast, gated=False):
    rng = random.Random(seed)
    sim = Simulator()
    sdf = SDFDevice(sim, n_channels=rng.randrange(1, 5), geometry=GEOMETRY)
    for ftl in sdf.ftls:
        for block in range(8):
            ftl.write(block, [None] * ftl.pages_per_logical_block)
    if gated:
        gates, plan = gate(seed, sdf)
    if observed:
        attach_device(Observability(), sdf)

    def delayed(start_ns, generator):
        yield sim.timeout(start_ns)
        yield from generator

    procs = [sim.process(delayed(*proc)) for proc in cast(rng, sdf)]
    if procs:
        sim.run(until=sim.all_of(procs))
    sim.run()
    signature = sdf_signature(sim, sdf)
    if gated:
        # throttled, throttle_wait_ns and admission_depth, per channel.
        signature["qos"] = gates.snapshot(sim.now)
        signature["faults"] = plan.signatures()
    return signature, sim._seq


@pytest.mark.parametrize("first", range(0, N_SEEDS, BATCH))
def test_ahead_path_matches_per_phase_hops(first, monkeypatch):
    revocations = [0]
    revoke = ChannelEngine._revoke

    def counting(engine, timeline, order=None):
        revoked = revoke(engine, timeline, order)
        revocations[0] += bool(revoked)
        return revoked

    monkeypatch.setattr(ChannelEngine, "_revoke", counting)
    fewer_events = 0
    for seed in range(first, first + BATCH):
        got, events = play(seed, observed=False)
        expected, per_phase_events = play(seed, observed=True)
        assert got == expected, f"seed {seed}"
        fewer_events += events < per_phase_events
    # The batch did exercise what it is about.
    assert fewer_events >= BATCH // 2
    assert revocations[0] >= BATCH


@pytest.mark.parametrize("first", range(N_SEEDS, N_SEEDS + 120, BATCH))
def test_read_stream_matches_per_phase_hops(first, monkeypatch):
    insertions = [0]
    pages_ahead = [0]
    revoke = ChannelEngine._revoke
    read_ahead = ChannelEngine.read_ahead

    def counting_revoke(engine, timeline, order=None):
        revoked = revoke(engine, timeline, order)
        # An order: a newcomer taking its place among those ahead.
        insertions[0] += bool(revoked) and order is not None
        return revoked

    def counting_read_ahead(engine, ops, then=None):
        pages_ahead[0] += len(ops)
        read_ahead(engine, ops, then)

    monkeypatch.setattr(ChannelEngine, "_revoke", counting_revoke)
    monkeypatch.setattr(ChannelEngine, "read_ahead", counting_read_ahead)
    read_pages = 0
    for seed in range(first, first + BATCH):
        got, events = play(seed, observed=False, cast=read_cast)
        ahead_so_far = pages_ahead[0]
        expected, per_phase_events = play(seed, observed=True, cast=read_cast)
        assert pages_ahead[0] == ahead_so_far  # observed: per-phase hops
        if seed in BEYOND_TIE_RULE:
            # Strict: a rule that reaches this far takes the seed out.
            assert got != expected and got["wear"] == expected["wear"]
            continue
        assert got == expected, f"seed {seed}"
        assert events < per_phase_events
        read_pages += len(got["link_read"])  # one DMA a page
    # The batch did exercise what it is about.
    assert insertions[0] >= BATCH
    assert pages_ahead[0] >= 0.9 * read_pages > 0


def throttled(signature):
    return sum(
        value
        for name, value in signature["qos"].items()
        if name.endswith(".throttled")
    )


@pytest.mark.parametrize("first", range(0, N_SEEDS, BATCH))
def test_gated_ahead_path_matches_per_phase_hops(first):
    fewer_events = waits = 0
    for seed in range(first, first + BATCH):
        got, events = play(seed, observed=False, gated=True)
        expected, per_phase_events = play(seed, observed=True, gated=True)
        assert got == expected, f"seed {seed}"
        fewer_events += events < per_phase_events
        waits += throttled(got)
    # Behind the gate a program still saves its bus end, a read its
    # sense end and its DMA end; and the gates did hold ops back.
    assert fewer_events >= BATCH // 2
    assert waits >= BATCH


@pytest.mark.parametrize("first", range(N_SEEDS, N_SEEDS + 120, BATCH))
def test_gated_read_stream_matches_per_phase_hops(first):
    waits = 0
    for seed in range(first, first + BATCH):
        got, events = play(seed, observed=False, cast=read_cast, gated=True)
        expected, per_phase_events = play(
            seed, observed=True, cast=read_cast, gated=True
        )
        assert got == expected, f"seed {seed}"
        assert events < per_phase_events
        waits += throttled(got)
    assert waits >= BATCH
