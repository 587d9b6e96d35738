"""``ChannelEngine.read_ahead`` is the only place a request's READs
pick their path.

Whatever the engine's state -- plain, behind an admission gate,
observed, with a STALL rule at its site, gated and observed -- a read
request goes through this one door, which reserves the pages ahead
when nothing needs their per-phase hops (``can_reserve_ahead``, read
at submission) and otherwise hands each op to ``execute_fast``.  It
returns that flag, which the SDF read needs for the link.

The expected schedules below were recorded when the caller made the
choice itself (``can_reserve_ahead()``, then ``read_ahead`` or
``execute_fast`` op by op), with the same script: the door must
reproduce every page's bus end, the engine's counters and the event
count exactly.  A metrics-only probe picks no path: observed, the
engine must reproduce its unobserved state's schedule and events, and
count the pages in its queue depth.
"""

import pytest

from repro.channel.engine import ChannelEngine
from repro.faults import STALL, FaultPlan
from repro.ftl.ops import OpKind, OpRuns, erase_op, program_op, read_op
from repro.nand.array import PhysicalAddress
from repro.nand.catalog import MICRON_25NM_MLC, SDF_CHIP_GEOMETRY
from repro.obs import Observability
from repro.qos.limits import ChannelQosState
from repro.sim import Simulator, US

from .golden import digest

PAGE = SDF_CHIP_GEOMETRY.page_size


def addr(chip=0, plane=0, page=0):
    return PhysicalAddress(0, chip, plane, 0, page)


def reads(*planes, n=1):
    return [
        read_op(addr(chip, plane, page), PAGE)
        for chip, plane in planes
        for page in range(n)
    ]


def script():
    """``(at_us, kind, payload)``: read requests of both shapes (a list,
    the block FTL's plane runs, one longer than a refill), among
    programs and erases that reach the planes and the bus around them.
    Built per run: an op kept alive here would count in the collector
    tests' census."""
    return (
        (0, "batch", [program_op(addr(0, 0), PAGE), program_op(addr(0, 1), PAGE),
                      program_op(addr(1, 0), PAGE)]),
        (10, "read", reads((0, 0), (1, 1), n=3)),
        (30, "op", read_op(addr(1, 0), PAGE)),
        (60, "read", OpRuns(OpKind.READ, 0, PAGE,
                            [(0, 1, 0, 0, 2), (1, 0, 0, 4, 3)], False)),
        (200, "batch", [erase_op(addr(1, 1)), program_op(addr(0, 0, 5), PAGE)]),
        (250, "read", reads((0, 1), (1, 0), n=2)),
        (400, "op", program_op(addr(1, 1, 6), PAGE)),
        (900, "read", reads((0, 0), (0, 1), (1, 0), (1, 1), n=10)),
        (950, "read", reads((1, 1), n=2)),
    )


def engine_in(state, sim):
    """A channel-0 engine in ``state``: any of "plain", "gated",
    "observed", "stall" and "gated+observed"."""
    engine = ChannelEngine(sim, 0, SDF_CHIP_GEOMETRY, MICRON_25NM_MLC, 2)
    if "gated" in state:
        engine.qos = ChannelQosState(sim, 0, max_inflight=3)
    if "observed" in state:
        engine.obs = Observability()
    if state == "stall":
        plan = FaultPlan().add("ch0", STALL, at_op=4, delay_ns=70 * US)
        plan.bind_clock(sim)
        engine.faults = plan.injector("ch0")
    return engine


def play(state):
    """The read requests' flags, the script's signature -- each item's
    completion instants (a read's are its pages' bus ends), then the
    engine's wait and op count and the events scheduled -- and the
    engine."""
    sim = Simulator()
    engine = engine_in(state, sim)
    flags = []
    ends = {}

    def finish(tag):
        return lambda: ends.setdefault(tag, []).append(sim.now)

    def submit(tag, kind, payload):
        if kind == "read":
            flags.append(engine.read_ahead(payload, finish(tag)))
        elif kind == "batch":
            engine.execute_batch_call(payload, finish(tag))
        else:
            engine.execute_fast(payload, finish(tag))

    items = script()
    for tag, (at_us, kind, payload) in enumerate(items):
        # Submitted from an event scheduled at its own instant, as a
        # batch's caller must be on an engine with no caller lead.
        sim._schedule_call(
            lambda item=(tag, kind, payload): sim._schedule_call(
                lambda: submit(*item)
            ),
            at_us * US,
        )
    sim.run()
    assert len(ends) == len(items)
    return flags, (
        [ends[tag] for tag in range(len(items))],
        engine.wait_ns.value,
        engine.ops_executed.value,
        sim._seq,
    ), engine


#: state -> (read_ahead's flag, (wait_ns, ops_executed, events), digest
#: of the full signature), as recorded from the caller-side choice; an
#: observed state is its unobserved one's.
RECORDED = {
    "plain": (
        True, (365785600, 64, 94),
        "064da38485d440b4b685da6805c2dd741fc81a46e5388e5fd323da45398aeeb5",
    ),
    "gated": (
        True, (16574600, 64, 146),
        "0038af1a9d1f23598e0bad1e736332869a33a5b9a42e87c88a89daffe35e3455",
    ),
    "stall": (
        False, (365715600, 64, 146),
        "508523c12bf49bb3fe0d527e695764375de583116a2a7220830be0e95a6e17b0",
    ),
}
RECORDED["observed"] = RECORDED["plain"]
RECORDED["gated+observed"] = RECORDED["gated"]


@pytest.mark.parametrize(
    "state", ["plain", "gated", "observed", "stall", "gated+observed"]
)
def test_read_ahead_picks_the_path_the_caller_used_to(state):
    flag, counts, recorded = RECORDED[state]
    flags, signature, engine = play(state)
    assert flags == [flag] * sum(kind == "read" for _, kind, _ in script())
    assert signature[1:] == counts
    assert digest(signature) == recorded
    if "observed" in state:
        assert engine.queue_depth(engine.sim.now) > 0
