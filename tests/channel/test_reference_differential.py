"""Differential test: ``ChannelEngine`` against the process-per-op
reference model in ``tests/channel/reference_engine.py``.

Each seed draws a random op list -- kinds, planes, arrival offsets
(bursts included) -- and a configuration (an admission bound, a stall
plan); both engines must agree on every op's completion instant and on
all the accounting, sampled mid-run and at the end.
"""

import random

import pytest

from repro.channel.engine import ChannelEngine
from repro.faults import FaultPlan
from repro.ftl.ops import FlashOp, OpKind
from repro.nand.array import PhysicalAddress
from repro.nand.catalog import MICRON_25NM_MLC, SDF_CHIP_GEOMETRY
from repro.qos.limits import ChannelQosState
from repro.sim import MS, Simulator, US
from tests.channel.reference_engine import ReferenceEngine, execute

GEOMETRY = SDF_CHIP_GEOMETRY.scaled(0.01)
CHECKPOINTS = (1 * MS, 3 * MS, 7 * MS, 15 * MS)


def random_ops(rng):
    """``(arrival_ns, op)`` pairs in submission order."""
    arrivals = []
    now = 0
    for _ in range(rng.randrange(40, 90)):
        # A third of the ops arrive in the same instant as their
        # predecessor; the rest after gaps up to about one program.
        if rng.random() > 0.33:
            now += rng.randrange(0, 1_500 * US)
        kind = rng.choices(
            (OpKind.READ, OpKind.PROGRAM, OpKind.ERASE), weights=(5, 4, 1)
        )[0]
        address = PhysicalAddress(
            0,
            rng.randrange(2),
            rng.randrange(GEOMETRY.planes_per_chip),
            rng.randrange(8),
            rng.randrange(8),
        )
        nbytes = 0 if kind is OpKind.ERASE else rng.choice(
            (GEOMETRY.page_size, GEOMETRY.page_size // 2)
        )
        arrivals.append((now, FlashOp(kind, address, nbytes)))
    return arrivals


def drive(sim, engine, arrivals, accounting):
    """Submit every op from its own process; returns the per-op
    completion instants and the accounting sampled at each checkpoint
    and at the end."""
    finished = [None] * len(arrivals)

    def issue(index, arrival_ns, op):
        yield sim.timeout(arrival_ns)
        yield from execute(engine, op)
        finished[index] = sim.now

    for index, (arrival_ns, op) in enumerate(arrivals):
        sim.process(issue(index, arrival_ns, op))
    samples = []
    for checkpoint in CHECKPOINTS:
        sim.run(until=checkpoint)
        samples.append(accounting())
    sim.run()
    samples.append(accounting())
    assert None not in finished
    return finished, samples


@pytest.mark.parametrize("seed", range(24))
def test_channel_engine_matches_reference(seed):
    max_inflight = (None, 1, 2, 8)[seed % 4]
    stall_rate = (0.0, 0.05, 0.3)[seed // 8]
    arrivals = random_ops(random.Random(seed))

    def stall_injector(sim):
        plan = FaultPlan(seed=seed)
        plan.add("ch0", "stall", rate=stall_rate, delay_ns=300 * US)
        plan.bind_clock(sim)
        return plan.injector("ch0")

    sim = Simulator()
    reference = ReferenceEngine(sim, GEOMETRY, MICRON_25NM_MLC, 2, max_inflight)
    if stall_rate:
        reference.faults = stall_injector(sim)
    expected = drive(
        sim,
        reference,
        arrivals,
        lambda: (
            reference.ops_executed,
            reference.wait_ns,
            reference.busy_value(),
            reference.utilization(),
            reference.throttled,
            reference.throttle_wait_ns,
        ),
    )

    sim = Simulator()
    engine = ChannelEngine(sim, 0, GEOMETRY, MICRON_25NM_MLC, 2)
    qos = None
    if max_inflight is not None:
        qos = engine.qos = ChannelQosState(sim, 0, max_inflight)
    if stall_rate:
        engine.faults = stall_injector(sim)
    got = drive(
        sim,
        engine,
        arrivals,
        lambda: (
            engine.ops_executed.value,
            engine.wait_ns.value,
            engine.busy_value(),
            engine.utilization(),
            qos.throttled.value if qos else 0,
            qos.throttle_wait_ns.value if qos else 0,
        ),
    )
    assert got == expected
