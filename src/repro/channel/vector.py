"""Vectorized (numpy) batch math for the channel fast path.

Everything in this module is **observationally neutral**: it computes
exactly the values the scalar hot paths would compute lazily -- same
float expressions, same rounding -- and schedules exactly the events
the per-op fast path would schedule, so the byte-identical no-drift
contract is untouched.  Three facilities:

* :func:`transfer_costs` -- vectorized ``repro.sim.units.transfer_ns``
  over a batch of payload sizes (identical banker's rounding: both
  Python's ``round`` and ``np.rint`` round half to even on float64).
* :func:`prefill_bus_costs` -- batch-warm a channel engine's memoized
  ``bus_transfer_ns`` table for one submission batch.
* :func:`schedule_erase_batch` -- closed-form scheduling of an
  all-ERASE batch: per-plane grant/end arrays via
  :meth:`~repro.sim.timeline.ResourceTimeline.reserve_bulk` (a cumsum
  instead of per-op Python arithmetic), counters from the array sums,
  and one shared countdown callback instead of per-op closures.

numpy is optional at import time (``HAVE_NUMPY``); callers fall back
to the scalar paths when it is absent.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np
except ImportError:  # pragma: no cover - numpy is baked into the image
    np = None

HAVE_NUMPY = np is not None

#: Below this many ops the per-op scalar path wins (array setup costs
#: more than it saves).
ERASE_BATCH_MIN = 4

from repro.ftl.ops import OpKind
from repro.sim.units import MB_DEC, S, transfer_ns


def transfer_costs(
    sizes: Iterable[int], mb_per_s: float
) -> List[Tuple[int, int]]:
    """``[(nbytes, transfer_ns(nbytes, mb_per_s)), ...]`` for a batch.

    Bit-identical to the scalar :func:`~repro.sim.units.transfer_ns`:
    the rate is the same float expression and ``np.rint`` matches
    ``round``'s half-to-even on float64.
    """
    sizes = [int(n) for n in sizes]
    if np is None or len(sizes) < 2:
        return [(n, transfer_ns(n, mb_per_s)) for n in sizes]
    arr = np.asarray(sizes, dtype=np.int64)
    rate = mb_per_s * MB_DEC / S  # bytes/ns, same expression as scalar
    costs = np.rint(arr.astype(np.float64) / rate).astype(np.int64)
    np.maximum(costs, 1, out=costs)
    costs[arr <= 0] = 0
    return list(zip(sizes, costs.tolist()))


def prefill_bus_costs(timing, cache: dict, ops) -> None:
    """Warm an engine's ``bus_transfer_ns`` memo table for one batch.

    Pure cache fill with the values the per-op path would compute on
    miss; no-op when numpy is absent or fewer than two sizes miss.
    """
    if np is None:
        return
    missing = {op.nbytes for op in ops if op.nbytes not in cache}
    if len(missing) < 2:
        return
    overhead = timing.bus_overhead_ns
    for nbytes, cost in transfer_costs(missing, timing.bus_mb_per_s):
        cache[nbytes] = overhead + cost


def erase_batch_ready(ops) -> bool:
    """True when ``ops`` is a vectorizable all-ERASE batch.

    The engine gates further (plain fast plan, no obs, no faults): the
    closed-form path updates the wait/ops counters at submission rather
    than per op-end, which is only invisible when nothing observes them
    mid-batch.
    """
    return (
        np is not None
        and len(ops) >= ERASE_BATCH_MIN
        and all(op.kind is OpKind.ERASE for op in ops)
    )


def schedule_erase_batch(engine, ops, done) -> None:
    """Schedule an all-ERASE batch in closed form; ``done()`` fires at
    the last op's end instant.

    Event-shape equivalence with per-op ``execute_fast``: per plane the
    first op's end event is pushed (or relay-scheduled / tail-chained)
    exactly as ``_phase_fast`` would, and every successor chains off
    its predecessor's ``_PhaseEnd`` hooks -- identical event times and
    identical seq-assignment points, so the heap order matches the
    per-op path event for event.  Grouping by plane only reorders
    *reservations across independent timelines*, which cannot change
    any grant (the planes share no state) and preserves first-op push
    order (groups keep first-appearance order).
    """
    sim = engine.sim
    now = sim._now
    duration = engine.timing.t_erase_ns
    channel = engine.channel

    groups: dict = {}
    for op in ops:
        if op.address.channel != channel:
            raise ValueError(
                f"op for channel {op.address.channel} sent to engine "
                f"{channel}"
            )
        key = (op.address.chip, op.address.plane)
        groups[key] = groups.get(key, 0) + 1

    remaining = [len(ops)]

    def tick():
        remaining[0] -= 1
        if not remaining[0]:
            done()

    raw = engine._busy_raw
    total_wait = 0
    for key, count in groups.items():
        timeline = engine._tl_planes[key]
        # Programs reserved ahead on this plane and not yet requesting
        # it go behind the erases.
        revoked = engine._ahead and engine._revoke(timeline)
        tail = timeline._tail_hooks
        grants, ends = timeline.reserve_bulk(now, duration, count)
        total_wait += int(grants.sum()) - now * count
        raw.extend(np.column_stack((grants, ends)).ravel().tolist())
        first_grant = int(grants[0])
        hooks: list = []
        if first_grant <= now:
            sim._schedule(sim._phase_event(tick, hooks), duration)
            engine._rank = timeline.rank = engine._rank + 1
        elif tail is None:
            # Predecessor reserved without an end event: relay at grant.
            sim._schedule_call(
                lambda h=hooks: sim._schedule(
                    sim._phase_event(tick, h), duration
                ),
                first_grant - now,
            )
        else:
            tail.append((tick, hooks, duration))
        for _ in range(count - 1):
            successor: list = []
            hooks.append((tick, successor, duration))
            hooks = successor
        timeline._tail_hooks = hooks
        if revoked:
            engine._reserve_again(revoked, timeline)

    # Closed-form counters: identical totals to the per-op path's
    # end-instant updates (ERASE wait is grant - submission), summed.
    engine.ops_executed.add(len(ops))
    engine.wait_ns.add(total_wait)
