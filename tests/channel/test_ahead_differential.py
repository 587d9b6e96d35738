"""Seeded differential: the reserve-ahead write window and read stream
against the per-phase hops, through the device and its link.

Each seed's cast (``differential.cast_of``) -- a small SDF (1-4
channels) and its processes: writers, a second writer on a channel,
readers of 1 or 32 pages, an eraser, started in lock-step or staggered
-- runs twice, a metrics-only ``Observability`` attached to both: as is
(pages reserved ahead, revoked and remade around every intruder), and
with every engine pinned to its per-phase hops (``per_phase``).  The
full ``sdf_signature`` must be equal, and so must the observability
snapshots taken at checkpoints along the run and at its end -- queue
depth, utilisation, busy time and the rest.  A second set of seeds
draws read-heavy casts: several readers on a channel, reads of up to a
whole block (longer than the tail a request keeps reserved ahead), and
pairs of reads started behind one erase batch so that their senses run
in lock-step.

Both sets run a second time *gated*: a ``ChannelQosState`` on every
engine (the cast's bound, 1-8) and a wired ``FaultPlan`` holding no
rule on engines and link.  Admission stands in front of the ahead path
and a quiet injector is no injector, so the unpinned run still
reserves ahead -- from the grant hops -- and must equal the pinned one
in the signature, the throttle counters and the admission-depth
timelines.  At the end: ties an engine that reconstructed the kernel's
event order got wrong, shrunk, and an LSM server of ``kv_mix``'s shape.
"""

import struct

import numpy as np
import pytest

from repro.channel.engine import ChannelEngine
from repro.cluster import build_storage_server
from repro.devices.sdf import SDFDevice
from repro.faults import FaultPlan
from repro.kv.lsm import LSMTree
from repro.kv.slice import Slice, partition_key_space
from repro.nand.geometry import FlashGeometry
from repro.obs import Observability, attach_device
from repro.qos.limits import ChannelQosState
from repro.sim import MS, Simulator, US
from tests.channel.differential import Cast, cast_of
from tests.channel.reference_engine import per_phase
from tests.channel.test_timeline_equivalence import sdf_signature

#: 96-page logical blocks (six 16-page windows), 12 of them a channel
#: (the thirteenth is the FTL reserve).
GEOMETRY = FlashGeometry(pages_per_block=24, blocks_per_plane=13)
N_SEEDS = 240
#: Scenarios per test: the suite's unit of failure is a batch.
BATCH = 20
#: The read casts' seeds (seed 349's, shrunk, is also played by
#: ``test_reads_tied_through_queues_that_differ_past_the_rule``).
READ_SEEDS = range(N_SEEDS, N_SEEDS + 120)
#: Where the observability snapshots are taken: every millisecond
#: while the casts start and read, then every ten until the longest
#: ends.
CHECKPOINTS = tuple(range(777 * US, 20 * MS, MS)) + tuple(
    range(20 * MS + 3_333, 300 * MS, 10 * MS)
)


def start(cast, sdf):
    """The cast's processes on ``sdf``, each started at its instant."""
    sim = sdf.sim

    def write(channel, blocks):
        for block in blocks:
            yield from channel.write_fresh(block)

    def read(channel, block, n_pages, gaps):
        span = channel.pages_per_logical_block - n_pages
        for gap in gaps:
            yield sim.timeout(gap)
            yield from channel.read(block, gap % (span + 1), n_pages)

    def erase(channel, blocks, gaps):
        for block, gap in zip(blocks, gaps):
            if gap:
                yield sim.timeout(gap)
            yield from channel.erase(block)

    def tied_read(channel, delay, plane, n_pages):
        yield sim.timeout(delay)
        yield from channel.read(0, plane * GEOMETRY.pages_per_block, n_pages)

    roles = {"write": write, "read": read, "erase": erase, "tied_read": tied_read}

    def delayed(start_ns, generator):
        yield sim.timeout(start_ns)
        yield from generator

    return [
        sim.process(delayed(start_ns, roles[role](sdf.channels[channel], *arguments)))
        for channel, start_ns, role, arguments in cast.procs
    ]


def gate(cast, sdf):
    """Admission slots on every engine and a rule-less fault plan wired
    to engines and link; returns the registry the gates report to (its
    own, so that the device's snapshot stays the ungated run's) and the
    plan."""
    gates = Observability()
    for engine in sdf.engines:
        engine.qos = ChannelQosState(sdf.sim, engine.channel, cast.bound)
        engine.qos.bind_obs(gates)
    plan = FaultPlan()
    plan.attach(sdf)
    return gates, plan


def play(cast, pinned, gated=False):
    """``cast`` on an observed SDF, its engines ``pinned`` to the
    per-phase hops or not; returns the signature -- the device's, the
    snapshots at the checkpoints the run passes and at its end, the
    gates' -- and the events scheduled."""
    sim = Simulator()
    sdf = SDFDevice(sim, n_channels=cast.n_channels, geometry=GEOMETRY)
    for ftl in sdf.ftls:
        for block in range(8):
            ftl.write(block, [None] * ftl.pages_per_logical_block)
    if gated:
        gates, plan = gate(cast, sdf)
    obs = Observability()
    attach_device(obs, sdf)
    if pinned:
        per_phase(*sdf.engines)
    procs = start(cast, sdf)
    snapshots = []
    for checkpoint in CHECKPOINTS:
        # Through the checkpoint; the clock stops there only if the
        # run goes on past it, so that its end stays its last event.
        while sim.peek() is not None and sim.peek() <= checkpoint:
            sim.step()
        if sim.peek() is None:
            break
        sim.run(until=checkpoint)
        snapshots.append(obs.snapshot(checkpoint))
    if procs:
        sim.run(until=sim.all_of(procs))
    sim.run()
    signature = sdf_signature(sim, sdf)
    signature["obs"] = (snapshots, obs.snapshot(sim.now), obs.snapshot())
    if gated:
        # throttled, throttle_wait_ns and admission_depth, per channel.
        signature["qos"] = gates.snapshot(sim.now)
        signature["faults"] = plan.signatures()
    return signature, sim._seq


def compare(cast, gated=False):
    """Asserts that ``cast`` plays the same both ways; returns the
    signature and the events it cost ahead and per phase."""
    got, events = play(cast, pinned=False, gated=gated)
    expected, per_phase_events = play(cast, pinned=True, gated=gated)
    assert got == expected
    return got, events, per_phase_events


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
        _, events, per_phase_events = compare(cast_of(seed))
        fewer_events += events < per_phase_events
    # The batch did exercise what it is about.
    assert fewer_events >= BATCH // 2
    assert revocations[0] >= BATCH


def read_batch(first):
    return [seed for seed in READ_SEEDS if first <= seed < first + BATCH]


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
        ahead = read_ahead(engine, ops, then)
        if ahead:
            pages_ahead[0] += len(ops)
        return ahead

    monkeypatch.setattr(ChannelEngine, "_revoke", counting_revoke)
    monkeypatch.setattr(ChannelEngine, "read_ahead", counting_read_ahead)
    read_pages = 0
    for seed in read_batch(first):
        cast = cast_of(seed, read_heavy=True)
        got, events = play(cast, pinned=False)
        ahead_so_far = pages_ahead[0]
        expected, per_phase_events = play(cast, pinned=True)
        assert pages_ahead[0] == ahead_so_far  # pinned: per-phase hops
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
        got, events, per_phase_events = compare(cast_of(seed), gated=True)
        fewer_events += events < per_phase_events
        waits += throttled(got)
    # Behind the gate a program still saves its bus end, a read its
    # sense end and its DMA end; and the gates did hold ops back.
    assert fewer_events >= BATCH // 2
    assert waits >= BATCH


@pytest.mark.parametrize("first", range(N_SEEDS, N_SEEDS + 120, BATCH))
def test_gated_read_stream_matches_per_phase_hops(first):
    waits = 0
    for seed in read_batch(first):
        cast = cast_of(seed, read_heavy=True)
        got, events, per_phase_events = compare(cast, gated=True)
        assert events < per_phase_events
        waits += throttled(got)
    assert waits >= BATCH


# -- ties an order reconstructed from the kernel's events got wrong, shrunk -------------


def test_reads_tied_through_queues_that_differ_past_the_rule():
    """Read seed 349's cast, shrunk: two reads whose senses end on one
    nanosecond stand in queues that differ only three phases back -- a
    program behind a sense run on one plane, a program behind a program
    on the other, all ending together."""
    compare(
        Cast(
            1,
            (
                (0, 1_231_964, "write", ((9,),)),
                (0, 1_116_157, "read", (1, 96, (697_975,))),
                (0, 2_695_746, "read", (1, 32, (724_323,))),
                (0, 814_081, "erase", ((2,), (0,))),
                (0, 814_081, "tied_read", (1_702_268, 0, 8)),
            ),
            1,
        )
    )


def test_unequal_channels_tied_on_the_link():
    """Two channels from instant 0, each writing a block, reading one
    page twice 1 ns apart and erasing a block 1 ns in -- one reading
    block 1, the other block 0 -- meet on the shared link on one
    nanosecond: their ends go in (channel, submission) order."""
    procs = []
    for channel, block in ((0, 1), (1, 0)):
        procs += [
            (channel, 0, "write", ((4,),)),
            (channel, 0, "read", (block, 1, (1, 1))),
            (channel, 0, "erase", ((2,), (1,))),
        ]
    compare(Cast(2, tuple(procs), 1))


def test_gated_writes_around_an_erase():
    """Found searching seeds past the suite's: one channel behind three
    admission slots, two writers and an erase on a third block.  It
    starts at a tie: a PROGRAM of each write ends at 47,295,052 ns, on
    planes (1, 0) and (1, 1), the first having waited for its plane,
    the second finding it idle at its bus end; the two windows then ask
    the link for their next pages in the order of those ends."""
    compare(
        Cast(
            1,
            (
                (0, 507_852, "write", ((6,),)),
                (0, 1_340_203, "write", ((10,),)),
                (0, 1_767_711, "erase", ((2,), (4_837_745,))),
            ),
            3,
        ),
        gated=True,
    )


def test_wait_read_mid_run_behind_a_sense_run():
    """Found searching casts shaped as these: one channel writing two
    blocks, a 32-page reader and an erase: at 50.003 ms the ahead path
    once booked 5,951 ns less queue wait (``channel0.wait_ns``) than
    per phase, one op's wait counted on another completing later."""
    compare(
        Cast(
            1,
            (
                (0, 1_313_640, "write", ((4,),)),
                (0, 2_241_153, "write", ((10,),)),
                (0, 1_713_407, "read", (0, 32, (979_287, 759_769, 700_292))),
                (0, 2_928_424, "erase", ((2,), (1_913_452,))),
            ),
            1,
        )
    )


def kv_mix_waits(pinned):
    """``kv_mix`` (benchmarks/e2e) at a sixth of its length, seed 2; each
    engine's ops and queue wait, and the end instant."""
    sim = Simulator()
    slices = [
        Slice(index, keys, lsm=LSMTree(memtable_bytes=64 * 1024))
        for index, keys in enumerate(partition_key_space(4, 0, 1_000_000))
    ]
    server = build_storage_server(
        sim, slices, device_kind="sdf", capacity_scale=0.01, n_channels=8
    )
    engines = server.system.device.engines
    if pinned:
        per_phase(*engines)
    put = {}

    def client(slice_):
        rng = np.random.default_rng([2, slice_.slice_id])
        for version in range(200):
            key = slice_.key_range.lo + int(rng.integers(100))
            if rng.random() < 0.7:
                put[key] = struct.pack(">QQ", key, version).ljust(4096, b"\0")
                yield from server.handle_put(key, put[key])
            else:
                yield from server.handle_get(key)

    sim.run(until=sim.all_of([sim.process(client(slice_)) for slice_ in slices]))
    sim.run(until=sim.now + 200 * MS)
    for key in list(put):  # read back
        sim.run(until=sim.process(server.handle_get(key)))
    return [(e.ops_executed.value, e.wait_ns.value) for e in engines], sim.now


def test_a_kv_mix_shaped_server_waits_alike_ahead_and_per_phase():
    """Its channels meet on the shared link on one nanosecond (a
    reconstructed order booked ``kv_mix`` 20 us less wait ahead)."""
    assert kv_mix_waits(False) == kv_mix_waits(True)
