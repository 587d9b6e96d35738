"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  Each ``yield`` must produce
an :class:`~repro.sim.events.Event`; the process sleeps until that event
is processed and is then resumed with the event's value (or has the
event's exception thrown into it).  A process is itself an event that
succeeds with the generator's return value, so processes can wait on each
other.
"""

from __future__ import annotations

import typing
from typing import Generator

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Process(Event):
    """A running simulation process (also an event: its completion)."""

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self._gen = generator
        bootstrap = Event(sim)
        bootstrap._ok = True
        bootstrap._value = None
        sim._schedule(bootstrap)
        bootstrap.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    # -- internals ---------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if event.ok:
            self._advance(self._gen.send, event.value)
            return
        event.defused = True
        exc = event.value
        raised_in = exc.__traceback__
        self._advance(self._gen.throw, exc)
        if self._ok:
            # Handled here.  The frames the exception crossed on its way
            # to the handler hold the failed event (``yield done``),
            # which holds the exception: left on it, every failed
            # request would be a reference cycle.  A process the
            # exception kills keeps them, for whoever debugs it.
            exc.__traceback__ = raised_in

    def _advance(self, step, arg) -> None:
        try:
            target = step(arg)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            error = RuntimeError(
                f"process yielded {target!r}; processes may only yield Events"
            )
            self._gen.close()
            self.fail(error)
            return
        if target is self:
            self._gen.close()
            self.fail(RuntimeError("process cannot wait on itself"))
            return
        target.add_callback(self._resume)


# -- continuations and generators ---------------------------------------------------
#
# A request path written as a continuation is an object whose bound
# methods are the callbacks: ``start(*args, then, fail)`` runs its steps
# up to the first wait (raising whatever a generator would have raised
# before its first ``yield``), each wait is one scheduled hop, and the
# last step calls ``then(value)`` -- or ``fail(exc)``, synchronously from
# the step that raised -- as its final act.  A continuation calls only
# other ``*_call``s; :func:`bridged` is the one adapter, for callers
# that are generators, and adds no event.


class _Bridge(Event):
    """The one event :func:`bridged` yields: processed where the
    continuation resolves it, so its waiter resumes inside the kernel
    event in which ``yield from`` would have returned."""

    __slots__ = ()

    def resolve(self, value=None) -> None:
        self._value = value
        self._process()

    def reject(self, exc: BaseException) -> None:
        self._ok = False
        self._value = exc
        # The generator that yielded this event (or is about to look at
        # it, when the failure came before the wait) always observes it.
        self.defused = True
        self._process()


def bridged(sim: "Simulator", start, *args):
    """Generator: ``start(*args, then, fail)`` seen as a generator --
    ``yield from bridged(...)`` returns its value or raises its failure
    where the continuation settles, with no event of its own."""
    done = _Bridge(sim)
    start(*args, done.resolve, done.reject)
    if not done._processed:
        return (yield done)
    if not done._ok:
        raise done._value
    return done._value
