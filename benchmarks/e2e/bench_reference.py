"""The reference kernel: how fast this box is running *right now*.

Interference on the shared sandbox slows everything in the interpreter
by up to half for seconds to minutes at a time (another tenant on the
same cores and caches: process CPU time rises with the wall clock, so it
is not descheduling).  A burst that outlasts a whole run cannot be
measured away inside it.  So ``run.py`` runs this fixed piece of
simulator-shaped work -- a heap of timestamped generators that hop
through a table of heap-allocated integers -- before and after every
pass, and reports host time in seconds *at reference speed*: the pass's
time divided by how much slower than :data:`NOMINAL_S` the faster of
its two neighbouring kernel runs was.

Only the standard library is used and nothing under ``src/`` is called,
so a change to the simulator cannot change the yardstick.
"""

from __future__ import annotations

import heapq
import random
import time

#: What one kernel run takes inside the harness on the quiet 2-core
#: reference box.  It only fixes the unit: normalised times read as
#: seconds on that box when nothing else disturbs it.
NOMINAL_S = 0.106

_RECORDS = 30_000
_WALKERS = 64
_STEPS = 3000
_PRIME = 1_000_003


def build():
    """The kernel's table: a random successor and a lookup key per record
    (about 7 MiB; tuples and ints only, which the cycle collector does
    not track, so a workload's own collections do not pay for them)."""
    rng = random.Random(20140301)
    links = [
        (rng.randrange(_RECORDS), record * 7919 % _PRIME)
        for record in range(_RECORDS)
    ]
    index = {key: record for record, (_next, key) in enumerate(links)}
    state = links, index
    # CPython 3.11 specialises a function's bytecode on its eighth call:
    # unwarmed, the first seven kernel runs read 25 % slow.
    for _ in range(8):
        _run(state, steps=4)
    return state


def _walker(links, index, hits, record, steps):
    for _ in range(steps):
        hits[record] += 1
        successor, key = links[record]
        record = links[index[key]][0] if hits[successor] & 1 else successor
        yield 100 + (hits[record] & 7)


def run(state) -> float:
    """Seconds one run of the kernel took (always the same work)."""
    return _run(state, _STEPS)


def _run(state, steps) -> float:
    links, index = state
    hits = [0] * _RECORDS
    push, pop = heapq.heappush, heapq.heappop
    schedule = [
        (0, walker, _walker(links, index, hits, walker * 997 % _RECORDS, steps))
        for walker in range(_WALKERS)
    ]
    sequence = _WALKERS
    started = time.perf_counter()
    while schedule:
        now, _sequence, process = pop(schedule)
        delay = next(process, None)
        if delay is not None:
            sequence += 1
            push(schedule, (now + delay, sequence, process))
    return time.perf_counter() - started
