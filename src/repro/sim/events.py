"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence.  Processes wait on events by
``yield``-ing them; arbitrary callbacks may also be attached.  Events are
*triggered* (``succeed``/``fail``) at some simulated instant and their
callbacks run when the event loop reaches that instant.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

_PENDING = object()


class Event:
    """A one-shot occurrence that processes and callbacks can wait on.

    State machine: *pending* -> *triggered* (scheduled on the event queue)
    -> *processed* (callbacks have run).  An event can succeed with a value
    or fail with an exception; a failure is re-raised inside every waiting
    process.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed", "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list = []
        self._value = _PENDING
        self._ok: bool = True
        self._processed = False
        #: Set to True once a waiter has observed a failure; unobserved
        #: failures crash the simulation to avoid silently lost errors.
        self.defused = False

    # -- state ---------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event loop has run this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self):
        """The success value or failure exception."""
        if self._value is _PENDING:
            raise RuntimeError("event has not been triggered yet")
        return self._value

    # -- triggering ------------------------------------------------------------
    def succeed(self, value=None, delay: int = 0) -> "Event":
        """Trigger the event successfully after ``delay`` ns (default now)."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Trigger the event with an exception after ``delay`` ns."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    # -- callbacks -------------------------------------------------------------
    def add_callback(self, callback) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed the callback is scheduled to run
        immediately (at the current simulated instant) so that waiting on a
        past event never deadlocks.
        """
        if self._processed:
            self.sim._schedule_call(lambda: callback(self))
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
        if not self._ok and not self.defused:
            # A failure nobody handled: stop the simulation loudly.
            raise self._value

    def __repr__(self):
        state = (
            "processed"
            if self._processed
            else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, delay)


class PooledTimeout(Timeout):
    """A :class:`Timeout` recycled through the simulator's free list.

    Returned by :meth:`repro.sim.engine.Simulator.hold`.  After its
    callbacks run the instance goes back to the pool for reuse, so it
    must never be referenced past the instant it is processed: yield it
    from exactly one process (or attach ephemeral callbacks) and drop
    it.  Composite conditions (``AllOf``/``AnyOf``) and
    ``run(until=...)`` keep references and must use plain timeouts.
    """

    __slots__ = ()

    def _process(self) -> None:
        super()._process()
        pool = self.sim._timeout_pool
        if len(pool) < 1024:
            pool.append(self)


class Condition(Event):
    """Composite event over several sub-events (base for AllOf/AnyOf)."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events):
        super().__init__(sim)
        self.events = list(events)
        self._n_done = 0
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("all events must belong to the same Simulator")
        if not self.events:
            self.succeed(self._collect())
            return
        for event in self.events:
            event.add_callback(self._check)

    def _collect(self):
        raise NotImplementedError

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            return
        self._n_done += 1
        if self._satisfied():
            self.succeed(self._collect())


class AllOf(Condition):
    """Succeeds (with the list of values) when every sub-event succeeds."""

    __slots__ = ()

    def _collect(self):
        return [event.value for event in self.events]

    def _satisfied(self) -> bool:
        return self._n_done >= len(self.events)


class AnyOf(Condition):
    """Succeeds with the value of the first sub-event to be processed."""

    __slots__ = ("_first",)

    def __init__(self, sim: "Simulator", events):
        self._first = None
        super().__init__(sim, events)

    def _check(self, event: Event) -> None:
        if not self.triggered and event.ok and self._n_done == 0:
            self._first = event.value
        super()._check(event)

    def _collect(self):
        return self._first

    def _satisfied(self) -> bool:
        return self._n_done >= 1
