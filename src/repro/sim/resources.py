"""Contention primitives for simulator processes: Resource, Store.

A ``Resource(capacity=1)`` is a lock a process holds for a duration, a
``Store`` a queue between processes.  The timed device models do not
use them for flash ops, link DMAs or controller queues -- those are
reservation timelines (:mod:`repro.sim.timeline`).
"""

from __future__ import annotations

import typing
from collections import deque
from typing import Optional

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Request(Event):
    """A pending acquisition of a :class:`Resource` slot.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ... # holding the resource
        # released on exit
    """

    __slots__ = ("resource",)

    def __init__(self, sim, resource: "Resource"):
        super().__init__(sim)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class _CallRequest(Request):
    """A :meth:`Resource.request_call` ticket: granted, it runs ``fn``
    instead of waking waiters, in the event slot ``succeed`` schedules,
    and drops ``fn`` (the holder keeps the ticket to release it)."""

    __slots__ = ("fn",)

    def __init__(self, sim, resource: "Resource", fn):
        super().__init__(sim, resource)
        self.fn = fn

    def _process(self) -> None:
        self._processed = True
        fn = self.fn
        self.fn = None
        fn()


class Resource:
    """A FIFO resource with ``capacity`` identical slots."""

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._users: set = set()
        self._waiting: deque = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when it is granted."""
        return self._enqueue(Request(self.sim, self))

    def request_call(self, fn) -> Request:
        """:meth:`request` for a continuation: ``fn()`` runs at the
        grant, scheduled exactly where the request's event would have
        been.  Hand the returned ticket to :meth:`release`."""
        return self._enqueue(_CallRequest(self.sim, self, fn))

    def _enqueue(self, req: Request) -> Request:
        self._waiting.append(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a slot (or cancel a not-yet-granted request)."""
        if request in self._users:
            self._users.discard(request)
            self._grant()
        else:
            try:
                self._waiting.remove(request)
            except ValueError:
                pass

    def _grant(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            req = self._waiting.popleft()
            self._users.add(req)
            # No value: a request that held itself would be a reference
            # cycle, kept until a collection (the holder has ``req``).
            req.succeed()


class Store:
    """An unbounded-or-bounded FIFO queue of items."""

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: deque = deque()
        self._getters: deque = deque()
        self._putters: deque = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item) -> Event:
        """Insert ``item``; the event fires once the item is accepted."""
        event = Event(self.sim)
        self._putters.append((event, item))
        self._settle()
        return event

    def get(self) -> Event:
        """Remove the oldest item; the event fires with that item."""
        event = Event(self.sim)
        self._getters.append(event)
        self._settle()
        return event

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._putters and (
                self.capacity is None or len(self.items) < self.capacity
            ):
                event, item = self._putters.popleft()
                self.items.append(item)
                event.succeed()
                progress = True
            while self._getters and self.items:
                event = self._getters.popleft()
                event.succeed(self.items.popleft())
                progress = True
