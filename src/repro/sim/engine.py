"""The simulation event loop.

:class:`Simulator` owns the clock (integer nanoseconds) and a binary heap
of ``(instant, tie, event)`` entries.  An event's tie is its schedule
order, making every run deterministic; a channel engine's phase ends
and stall timers carry a declared key below every schedule order
instead (:func:`repro.sim.timeline.same_instant_key`).

The loop also paces CPython's cyclic collector (:data:`GC_PACE`): the
simulator's request paths are kept free of reference cycles, so what a
collection does during a run is walk live requests and find nothing,
and the default pace has it do so several hundred times a second.
"""

from __future__ import annotations

import gc
import heapq
from typing import Generator, Iterable, Optional

from repro.sim.events import AllOf, Event, PooledTimeout, Timeout
from repro.sim.process import Process


class _Call(Event):
    """Internal event that invokes a plain callable when processed.

    Instances are recycled through the owning simulator's free list:
    nothing may keep a reference to a ``_Call`` past its instant.
    """

    __slots__ = ("_fn",)

    def __init__(self, sim: "Simulator", fn):
        super().__init__(sim)
        self._fn = fn
        self._ok = True
        self._value = None

    def _process(self) -> None:
        self._processed = True
        fn = self._fn
        self._fn = None
        pool = self.sim._call_pool
        if len(pool) < 1024:
            pool.append(self)
        fn()


class _PhaseEnd(Event):
    """End-of-service event for one timeline reservation (fast path).

    Runs ``fn`` at the reservation's end instant, then schedules every
    chained successor reservation's own ``_PhaseEnd`` (the ``hooks``
    list, appended to by :meth:`ResourceTimeline.reserve_and_call` when
    a later reservation queues behind this one), each with the key its
    heap tie adds to the sequence number (0, or a channel engine's
    :func:`~repro.sim.timeline.same_instant_key`).  Folding the chain
    drain into ``_process`` saves one closure and one ``_Call`` per
    phase relative to wrapping the same logic in a plain callback.

    Instances are recycled through ``sim._phase_pool``: nothing may keep
    a reference to one past its instant.
    """

    __slots__ = ("_fn", "_hooks")

    def __init__(self, sim: "Simulator", fn, hooks):
        super().__init__(sim)
        self._fn = fn
        self._hooks = hooks
        self._ok = True
        self._value = None

    def _process(self) -> None:
        self._processed = True
        fn = self._fn
        hooks = self._hooks
        self._fn = None
        self._hooks = None
        sim = self.sim
        pool = sim._phase_pool
        if len(pool) < 1024:
            pool.append(self)
        fn()
        if hooks:
            # Successors queued behind this reservation: materialize
            # their end events only now, so at most heap-resident phase
            # events exist at once and the pool almost always hits.
            now = sim._now
            heap = sim._heap
            for h_fn, h_hooks, h_delay, h_key in hooks:
                if pool:
                    event = pool.pop()
                    event._processed = False
                    event._fn = h_fn
                    event._hooks = h_hooks
                else:
                    event = _PhaseEnd(sim, h_fn, h_hooks)
                sim._seq += 1
                heapq.heappush(heap, (now + h_delay, h_key + sim._seq, event))


#: Net container allocations between automatic collections of the
#: youngest generation while :meth:`Simulator.run` is in its loop
#: (CPython's default is 700).  The page path leaves the cyclic
#: collector nothing to find (``tests/sim/test_gc_hygiene.py``), so a
#: pass only re-walks the requests in flight, and each older-generation
#: pass the whole device; pacing them by the ten thousands makes that a
#: handful of passes a run.  The young generation is what grows
#: meanwhile: DESIGN.md section 7 has wall time and peak memory at this
#: value and either side of it.
GC_PACE = 50_000


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


class Simulator:
    """Discrete-event simulator with an integer-nanosecond clock."""

    __slots__ = (
        "_now", "_heap", "_seq", "obs",
        "_call_pool", "_timeout_pool", "_phase_pool",
    )

    def __init__(self):
        self._now: int = 0
        self._heap: list = []
        self._seq: int = 0
        #: Optional :class:`repro.obs.Observability` consulted by every
        #: instrumented component holding a reference to this
        #: simulator.  ``None`` -- the default -- keeps every
        #: instrumentation site a single attribute check.
        self.obs = None
        #: Free lists recycling the internal fire-and-forget events.
        self._call_pool: list = []
        self._timeout_pool: list = []
        self._phase_pool: list = []

    # -- clock -----------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling (internal API used by events) --------------------------------
    def _schedule(self, event: Event, delay: int = 0) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule {delay} ns in the past")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))

    def _schedule_call(self, fn, delay: int = 0) -> None:
        pool = self._call_pool
        if pool:
            call = pool.pop()
            call._processed = False
            call._fn = fn
        else:
            call = _Call(self, fn)
        # _schedule inlined: delays here are computed from reservation
        # arithmetic and are never negative.
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, call))

    def _phase_event(self, fn, hooks) -> _PhaseEnd:
        """A pooled :class:`_PhaseEnd` ready to be heap-scheduled."""
        pool = self._phase_pool
        if pool:
            event = pool.pop()
            event._processed = False
            event._fn = fn
            event._hooks = hooks
            return event
        return _PhaseEnd(self, fn, hooks)

    # -- public factory helpers ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value=None) -> Timeout:
        """An event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def hold(self, delay: int, value=None) -> Timeout:
        """A pooled timeout for fire-and-forget waits on hot paths.

        Semantically identical to :meth:`timeout`, but the event object
        is recycled once processed.  Only yield it directly from a
        process and drop it; never store it, pass it to ``AllOf`` /
        ``AnyOf``, or ``run(until=...)`` on it.
        """
        pool = self._timeout_pool
        if pool:
            event = pool.pop()
            if delay < 0:
                raise ValueError(f"negative timeout delay {delay}")
            event._processed = False
            event._value = value
            event.delay = delay
            self._schedule(event, delay)
            return event
        return PooledTimeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Launch ``generator`` as a concurrent process."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when every given event has fired."""
        return AllOf(self, events)

    # -- running ----------------------------------------------------------------
    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the queue is empty."""
        return self._heap[0][0] if self._heap else None

    def step(self) -> None:
        """Process the single next event (advancing the clock to it)."""
        if not self._heap:
            raise EmptySchedule("no scheduled events")
        when, _, event = heapq.heappop(self._heap)
        self._now = when
        event._process()

    def run(self, until=None):
        """Run the simulation.

        ``until`` may be:

        * ``None`` -- run until no events remain;
        * an ``int`` -- run until the clock reaches that time (ns);
        * an :class:`Event` -- run until that event is processed, returning
          its value (or raising its failure exception).
        """
        # The loop paces automatic collection (see GC_PACE) and hands
        # back the thresholds it found, whichever way it leaves; a run
        # nested in a callback finds, and restores, the paced ones.
        thresholds = gc.get_threshold()
        if 0 < thresholds[0] < GC_PACE:
            gc.set_threshold(GC_PACE, *thresholds[1:])
        try:
            return self._run(until)
        finally:
            gc.set_threshold(*thresholds)

    def _run(self, until):
        heap = self._heap
        pop = heapq.heappop
        if until is None:
            while heap:
                when, _, event = pop(heap)
                self._now = when
                event._process()
            return None

        if isinstance(until, Event):
            stop = until
            while not stop._processed:
                if not heap:
                    raise RuntimeError(
                        "simulation ran out of events before the awaited "
                        f"event {stop!r} was triggered (deadlock?)"
                    )
                when, _, event = pop(heap)
                self._now = when
                event._process()
            if not stop.ok:
                stop.defused = True
                raise stop.value
            return stop.value

        deadline = int(until)
        if deadline < self._now:
            raise ValueError(f"cannot run until {deadline} < now={self._now}")
        while heap and heap[0][0] <= deadline:
            when, _, event = pop(heap)
            self._now = when
            event._process()
        self._now = deadline
        return None
