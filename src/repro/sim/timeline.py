"""Analytic reservation timelines: the scheduler of flash ops and
link DMAs.

A process-per-op scheduler (``tests/channel/reference_engine.py``, the
test oracle; "the generator path" or "the slow path" below) models
every contended resource as a
:class:`~repro.sim.resources.Resource` and spends one process
suspension per acquire/hold/release.  For capacity-1 FIFO resources
the same schedule can be computed *analytically*: a
resource is a single "next free" timestamp, a request made at ``now``
is granted at ``max(now, free_at)`` and the end of service is
``grant + duration``.  :class:`ResourceTimeline` is that timestamp;
:class:`BusyUnion` reproduces the generator path's merged busy-time
accounting.

Equivalence rules (the contract the no-drift suite enforces):

* requests must be reserved at the simulated instant they would have
  been issued on the slow path -- a multi-phase op reserves each phase
  from the end callback of the one before -- or *ahead* of that instant
  when it is already known and the reservation can still be revoked:
  whoever must precede it undoes it (restoring ``free_at`` and
  ``_tail_hooks``), reserves, and has it made again behind
  (``ChannelEngine.program_page_ahead``, ``ChannelEngine.read_ahead``);
* same-instant requests to one resource are served in one declared
  order, :func:`same_instant_key`;
* anything ordering-sensitive that happens at a phase's *end* must be
  scheduled from its *grant* instant: :meth:`ResourceTimeline.reserve_and_call`
  chains a queued phase's end event off its predecessor's end event --
  same instant, and no extra relay event.
"""

from __future__ import annotations

from array import array

import numpy as np

#: The phase classes of :func:`same_instant_key`, in the order one
#: instant takes them: an op's next phase, an op's first, an op's end.
CONTINUING, ARRIVING, ENDING = 0, 1, 2
#: Bits of the sequence number, submission id and channel in a key; the
#: offset puts every key, plus any sequence number, below zero.
_SEQ, _SUB, _CHANNEL = 40, 44, 16
_KEYED = 1 << (2 + _CHANNEL + _SUB + _SEQ)


def same_instant_key(phase_class: int, channel: int, sub: int) -> int:
    """The declared order of what a channel engine does on one
    nanosecond.

    Which of two requests made on one nanosecond a FIFO serves first has
    no physical meaning (the paper's channel engine queues each channel
    FIFO), so it is declared, not left to the kernel's event order: a
    continuing op's next phase before an op's first, then the channel,
    then the submission id (ops the engine has started, past its
    admission gate).  A resource serves by ``(request instant, key)``.
    The key, plus the sequence number, is also the heap tie of the
    engine's own events, below every ordinary tie: phase ends and stall
    timers run first on their instant -- continuing ops, stalled
    arrivals, then op ends, so that a completion's caller finds the
    instant's requests placed and link transfers started by ends on
    one nanosecond queue in (channel, submission) order.
    """
    return (((phase_class << _CHANNEL | channel) << _SUB | sub) << _SEQ) - _KEYED


class ResourceTimeline:
    """Next-free timestamp of one capacity-1 FIFO resource."""

    __slots__ = ("free_at", "_tail_hooks", "tentative")

    def __init__(self, free_at: int = 0):
        self.free_at = free_at
        #: ``(fn, hooks, delay, key)`` hooks chained off the *most recent*
        #: reservation made through :meth:`reserve_and_call` -- drained
        #: by its ``_PhaseEnd`` at the end instant; ``None`` after a
        #: plain :meth:`reserve` (no end event exists to chain from).
        self._tail_hooks = None
        #: The newest of the owner's reservations on this timeline that
        #: may still be tentative, or None: the channel engine chains
        #: its programs waiting to reach a plane through them, so a
        #: plane intruder revokes them without a scan.
        self.tentative = None

    def reserve(self, request_ns: int, duration_ns: int):
        """Reserve ``duration_ns`` of service requested at ``request_ns``.

        Returns ``(grant_ns, end_ns)`` and advances the timeline.  The
        caller must only reserve at the current simulated instant and in
        slow-path request order for the schedule to be equivalent.
        """
        free = self.free_at
        grant = free if free > request_ns else request_ns
        end = grant + duration_ns
        self.free_at = end
        self._tail_hooks = None
        return grant, end

    def reserve_and_call(self, sim, duration_ns: int, fn):
        """Reserve at sim-now and run ``fn()`` at the end instant.

        Returns ``(grant_ns, end_ns)``.  An immediately granted phase
        schedules its end event now (the slow path schedules the service
        timeout at the grant, which is now).  A queued phase's grant is
        its predecessor's end, so its end event is scheduled from inside
        the predecessor's end callback -- exactly where the slow path's
        release-then-grant happens -- after the predecessor's own work.
        """
        now = sim._now
        free = self.free_at
        grant = free if free > now else now
        end = grant + duration_ns
        self.free_at = end
        hooks = []
        if grant <= now:
            sim._schedule(sim._phase_event(fn, hooks), end - now)
        else:
            tail = self._tail_hooks
            if tail is None:
                # Predecessor made through plain reserve(): no end event
                # to chain from, fall back to a relay at the grant.
                delay = end - grant
                sim._schedule_call(
                    lambda: sim._schedule(sim._phase_event(fn, hooks), delay),
                    grant - now,
                )
            else:
                tail.append((fn, hooks, end - grant, 0))
        self._tail_hooks = hooks
        return grant, end

    def __repr__(self):
        return f"ResourceTimeline(free_at={self.free_at})"


class BusyUnion:
    """Union of service intervals, matching the slow path's busy counter.

    The generator path counts channel busy time with an in-service
    counter: an interval is *closed* (added to the busy counter) when
    the last concurrent op finishes service, even if service resumes at
    the same instant.  We replicate that exactly: intervals are merged
    only when they **overlap** (``begin < end``); merely touching
    intervals stay separate so the counter's closure instants match.

    Nothing here is an object per interval: a run records one interval
    per flash phase, and a container each would be re-walked by every
    older-generation pass of the cyclic collector for the rest of the
    run (DESIGN.md section 7, "Memory and the collector").  Intervals
    arrive as two integers on a flat buffer, are merged in one
    vectorised pass, and leave once closed -- an owner that reads (or
    just calls :meth:`closed_through`) now and then keeps the union at
    the size of what is still open.
    """

    __slots__ = ("_closed", "_open", "raw")

    def __init__(self):
        #: Total length of intervals whose end has passed the last query.
        self._closed = 0
        #: Merged intervals not yet closed, sorted: int64 rows of
        #: ``(begin, end)``.
        self._open = np.empty((0, 2), dtype=np.int64)
        #: Unmerged intervals since the last query, flat: ``begin, end,
        #: begin, end, ...``.  Folding is deferred so the reservation hot
        #: path is two appends; callers on it append here themselves
        #: (``begin < end``, both or neither).  Never rebound.
        self.raw = array("q")

    def add(self, begin: int, end: int) -> None:
        """Record one service interval (begin < end, begin >= now)."""
        if end > begin:
            raw = self.raw
            raw.append(begin)
            raw.append(end)

    def _fold(self) -> None:
        raw = self.raw
        if not raw:
            return
        # concatenate copies, so the buffer is exported only inside it
        # and can be emptied in place.
        items = np.concatenate(
            (self._open, np.frombuffer(raw, dtype=np.int64).reshape(-1, 2))
        )
        del raw[:]
        items = items[np.argsort(items[:, 0], kind="stable")]
        begins = items[:, 0]
        # How far the intervals up to and including each one reach.
        reach = np.maximum.accumulate(items[:, 1])
        # A merged interval starts at every begin that does not strictly
        # overlap what came before it (touching stays separate), and
        # ends where the last interval before the next start reaches.
        starts = np.flatnonzero(begins[1:] >= reach[:-1]) + 1
        merged = np.empty((len(starts) + 1, 2), dtype=np.int64)
        merged[0, 0] = begins[0]
        merged[1:, 0] = begins[starts]
        merged[:-1, 1] = reach[starts - 1]
        merged[-1, 1] = reach[-1]
        self._open = merged

    def closed_through(self, now_ns: int) -> int:
        """Busy time of intervals fully finished by ``now_ns``.

        Matches the slow path's ``busy_ns`` counter value at ``now_ns``.
        Queries must be (weakly) monotonic in time, which holds for any
        live simulation observer.
        """
        self._fold()
        open_ = self._open
        # Merged intervals are disjoint, so their ends rise with their
        # begins: the closed ones are a prefix.
        n_closed = int(open_[:, 1].searchsorted(now_ns, side="right"))
        if n_closed:
            done = open_[:n_closed]
            self._closed += int((done[:, 1] - done[:, 0]).sum())
            self._open = open_[n_closed:]
        return self._closed

    def busy_through(self, now_ns: int) -> int:
        """Closed busy time plus the elapsed part of an open interval.

        Matches the slow path's ``utilization`` numerator at ``now_ns``.
        """
        total = self.closed_through(now_ns)
        open_ = self._open
        if len(open_) and open_[0, 0] < now_ns:
            total += now_ns - int(open_[0, 0])
        return total

    def __repr__(self):
        return (
            f"BusyUnion(closed={self._closed}, "
            f"pending={len(self._open) + len(self.raw) // 2})"
        )
