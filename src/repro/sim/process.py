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

from repro.sim.events import Event, Interrupt

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Process(Event):
    """A running simulation process (also an event: its completion)."""

    __slots__ = ("_gen", "_target")

    def __init__(self, sim: "Simulator", generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self._gen = generator
        self._target: Event | None = None
        bootstrap = Event(sim)
        bootstrap._ok = True
        bootstrap._value = None
        sim._schedule(bootstrap)
        bootstrap.add_callback(self._resume)
        self._target = bootstrap

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        The event the process was waiting on is abandoned (its outcome is
        ignored by this process).  Interrupting a finished process is an
        error.
        """
        if self.triggered:
            raise RuntimeError("cannot interrupt a completed process")
        if self._target is None:
            raise RuntimeError("process is not waiting on anything yet")
        target, self._target = self._target, None
        target.remove_callback(self._resume)
        if not target.ok if target.triggered else False:
            target.defused = True
        self.sim._schedule_call(lambda: self._throw_in(Interrupt(cause)))

    # -- internals ---------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._target = None
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

    def _throw_in(self, exc: BaseException) -> None:
        if self.triggered:
            return
        self._advance(self._gen.throw, exc)

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
        self._target = target
        target.add_callback(self._resume)


# -- continuations and generators ---------------------------------------------------
#
# A request path written as a continuation is an object whose bound
# methods are the callbacks: ``start(*args, then, fail)`` runs its steps
# up to the first wait (raising whatever a generator would have raised
# before its first ``yield``), each wait is one scheduled hop, and the
# last step calls ``then(value)`` -- or ``fail(exc)``, synchronously from
# the step that raised -- as its final act.  The two helpers below join
# that style to generators in either direction, adding no event.


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


class _Inline:
    """A generator driven in place by :func:`run_inline`."""

    __slots__ = ("gen", "then", "fail")

    def __init__(self, gen: Generator, then, fail):
        self.gen = gen
        self.then = then
        self.fail = fail

    def resume(self, event: Event) -> None:
        if event._ok:
            self.advance(self.gen.send, event._value)
            return
        event.defused = True
        exc = event._value
        raised_in = exc.__traceback__
        try:
            self.advance(self.gen.throw, exc)
        finally:
            # As Process._resume: the generator frames the exception
            # crossed hold the failed event, which holds the exception.
            exc.__traceback__ = raised_in

    def advance(self, step, arg) -> None:
        try:
            target = step(arg)
        except StopIteration as stop:
            settle, result = self.then, stop.value
        except Exception as exc:
            settle, result = self.fail, exc
        else:
            target.add_callback(self.resume)
            return
        self.gen = self.then = self.fail = None
        settle(result)


def run_inline(gen: Generator, then, fail) -> None:
    """Drive ``gen`` as ``yield from`` would, as a continuation: no
    :class:`Process`, no bootstrap or completion event.  What it raises
    before its first wait is raised here; after that it goes to
    ``fail(exc)``, and its return value to ``then(value)`` -- at once,
    if it returns without waiting."""
    try:
        target = gen.send(None)
    except StopIteration as stop:
        result = stop.value
    else:
        target.add_callback(_Inline(gen, then, fail).resume)
        return
    then(result)
