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

from repro.ftl.ops import OpKind, OpRuns, erase_op, program_op, read_op
from repro.sim import US
from tests.channel.differential import PAGE, Case, addr, batch, play, read

from .golden import digest


def script():
    """Read requests of both shapes (a list, the block FTL's plane runs,
    one longer than a refill), among programs and erases that reach the
    planes and the bus around them, each from a hop at its instant.
    Built per run: an op kept alive here would count in the collector
    tests' census."""
    return (
        batch(0, program_op(addr(0, 0), PAGE), program_op(addr(0, 1), PAGE),
              program_op(addr(1, 0), PAGE)),
        read(10 * US, (0, 0), (1, 1), n=3),
        ("op", 30 * US, 0, read_op(addr(1, 0), PAGE)),
        ("read", 60 * US, 0, OpRuns(OpKind.READ, 0, PAGE,
                                    [(0, 1, 0, 0, 2), (1, 0, 0, 4, 3)], False)),
        batch(200 * US, erase_op(addr(1, 1)), program_op(addr(0, 0, 5), PAGE)),
        read(250 * US, (0, 1), (1, 0), n=2),
        ("op", 400 * US, 0, program_op(addr(1, 1, 6), PAGE)),
        read(900 * US, (0, 0), (0, 1), (1, 0), (1, 1), n=10),
        read(950 * US, (1, 1), n=2),
    )


def play_in(state):
    """The script on a channel-0 engine in ``state`` -- any of "plain",
    "gated", "observed", "stall" and "gated+observed": the read
    requests' flags, the script's signature -- each item's completion
    instants (a read's are its pages' bus ends), then the engine's wait
    and op count and the events scheduled -- and the engine."""
    case = Case(
        script(),
        bound=3 if "gated" in state else None,
        stall={"at_op": 4, "delay_ns": 70 * US} if state == "stall" else None,
        observed="observed" in state,
    )
    played = play(case)
    engine = played.engine
    ends = [played.finished[tag] for tag in range(len(case.items))]
    return played.flags, (
        [instants if isinstance(instants, list) else [instants] for instants in ends],
        engine.wait_ns.value,
        engine.ops_executed.value,
        played.events,
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
    flags, signature, engine = play_in(state)
    assert flags == [flag] * sum(kind == "read" for kind, *_ in script())
    assert signature[1:] == counts
    assert digest(signature) == recorded
    if "observed" in state:
        assert engine.queue_depth(engine.sim.now) > 0
