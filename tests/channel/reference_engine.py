"""Process-per-op reference model of one flash channel.

The oracle the differential test compares
:class:`~repro.channel.engine.ChannelEngine` against: the bus and every
(chip, plane) are capacity-1 FIFOs granting the requests of an instant
once all are made, in the declared order
(:func:`~repro.sim.timeline.same_instant_key`); an op is a process that
holds them phase by phase, admission a :class:`~repro.sim.Resource` of
``max_inflight`` slots, busy time an in-service counter.  Slow and
obviously right; never optimise it.

:func:`execute_all` and :func:`execute_sequential` are the old
process-per-op batch drivers and :func:`execute` the one-op generator
they drive; they work on either engine.  :func:`execute_batch` is a
batch's generator form, one completion event.  :func:`per_phase` pins
an engine to its per-phase path, the oracle the reserve-ahead
differentials compare against.
"""

from heapq import heappop, heappush
from typing import Optional

from repro.faults.injector import NULL_INJECTOR, STALL
from repro.ftl.ops import FlashOp, OpKind
from repro.sim import AllOf, Event, Resource
from repro.sim.timeline import ARRIVING, CONTINUING, same_instant_key


def _never() -> bool:
    return False


def per_phase(*engines):
    """Pin each :class:`~repro.channel.engine.ChannelEngine` to its
    per-phase path: ``can_reserve_ahead`` and ``can_program_ahead``
    (which a device asks) answer False on the instance, so every door
    sends each op phase by phase, as a STALL rule would."""
    for engine in engines:
        engine.can_reserve_ahead = engine.can_program_ahead = _never


def execute(engine, op):
    """Generator: run one op to completion (``yield from`` this) -- on
    a :class:`~repro.channel.engine.ChannelEngine` through its
    ``execute_fast`` door, behind its admission gate if it has one."""
    if isinstance(engine, ReferenceEngine):
        yield from engine.execute(op)
        return
    done = Event(engine.sim)
    engine.execute_fast(op, done.succeed)
    yield done


def execute_batch(engine, ops):
    """Generator: a non-empty batch through ``execute_batch_call``, ONE
    completion event at the instant the last op completes."""
    done = Event(engine.sim)
    engine.execute_batch_call(ops, done.succeed)
    yield done


def execute_all(engine, ops):
    """Generator: one process per op, finished when all complete.

    Plane and bus resources serialize exactly where the hardware
    would; everything else overlaps.
    """
    sim = engine.sim
    processes = [sim.process(execute(engine, op)) for op in list(ops)]
    if processes:
        yield AllOf(sim, processes)


def execute_sequential(engine, ops):
    """Generator: run ops strictly one after another."""
    for op in ops:
        yield from execute(engine, op)


class _Ordered:
    """A capacity-1 FIFO granting by ``(request instant,
    same_instant_key)`` once nothing else of the instant is left to run
    (``woken``: the engine's resources with a grant to settle)."""

    def __init__(self, sim, woken):
        self.sim, self.woken, self.held, self.pending = sim, woken, False, []

    def request(self, order) -> Event:
        event = Event(self.sim)
        heappush(self.pending, (order, event))
        self.wake()
        return event

    def release(self) -> None:
        self.held = False
        self.wake()

    def wake(self) -> None:
        if not self.woken:
            self.sim._schedule_call(self.settle)
        self.woken[self] = None

    def settle(self) -> None:
        sim, woken = self.sim, self.woken
        if sim._heap and sim._heap[0][0] == sim._now:
            sim._schedule_call(self.settle)  # behind the rest of the instant
            return
        for resource in list(woken):
            del woken[resource]
            if resource.pending and not resource.held:
                resource.held = True
                heappop(resource.pending)[1].succeed()


class ReferenceEngine:
    """Charges simulated time for FlashOps on one channel, one process
    per op."""

    def __init__(
        self,
        sim,
        geometry,
        timing,
        chips_per_channel: int = 2,
        max_inflight: Optional[int] = None,
    ):
        self.sim = sim
        self.timing = timing
        woken = {}
        self.bus = _Ordered(sim, woken)
        self.planes = {
            (chip, plane): _Ordered(sim, woken)
            for chip in range(chips_per_channel)
            for plane in range(geometry.planes_per_chip)
        }
        self.slots = (
            None if max_inflight is None else Resource(sim, capacity=max_inflight)
        )
        self.faults = NULL_INJECTOR
        #: Ops started so far: the next op's submission id.
        self.started = 0
        self.ops_executed = 0
        self.wait_ns = 0
        self.throttled = 0
        self.throttle_wait_ns = 0
        self._busy_ns = 0
        self._in_service = 0
        self._busy_since = 0

    # -- accounting ----------------------------------------------------------------
    def busy_value(self) -> int:
        """Busy time of service intervals that have fully ended."""
        return self._busy_ns

    def utilization(self) -> float:
        """Fraction of elapsed time with at least one op in service."""
        now = self.sim.now
        if now <= 0:
            return 0.0
        busy = self._busy_ns
        if self._in_service:
            busy += now - self._busy_since
        return busy / now

    # -- execution -----------------------------------------------------------------
    def _phase(self, resource, duration_ns: int, phase_class: int, sub: int):
        """Acquire ``resource`` as op ``sub``'s ``phase_class`` and hold
        it for the service time; returns the queue wait."""
        sim = self.sim
        queued = sim.now
        yield resource.request((queued, same_instant_key(phase_class, 0, sub)))
        granted = sim.now
        if self._in_service == 0:
            self._busy_since = granted
        self._in_service += 1
        yield sim.timeout(duration_ns)
        self._in_service -= 1
        if self._in_service == 0:
            self._busy_ns += sim.now - self._busy_since
        resource.release()
        return granted - queued

    def _execute(self, op: FlashOp):
        sub = self.started
        self.started += 1
        stall_ns = self.faults.delay_ns(
            STALL, op=op.kind.name.lower(), chip=op.address.chip
        )
        if stall_ns > 0:
            # A controller hiccup: the op sits on the channel doing
            # nothing before contending for resources.
            yield self.sim.timeout(stall_ns)
        plane = self.planes[(op.address.chip, op.address.plane)]
        timing = self.timing
        bus_ns = timing.bus_transfer_ns(op.nbytes)
        if op.kind is OpKind.READ:
            # Sense into the plane register, then stream over the bus.
            wait = yield from self._phase(plane, timing.t_read_ns, ARRIVING, sub)
            wait += yield from self._phase(self.bus, bus_ns, CONTINUING, sub)
        elif op.kind is OpKind.PROGRAM:
            # Stream into the chip register, then program the cells.
            wait = yield from self._phase(self.bus, bus_ns, ARRIVING, sub)
            wait += yield from self._phase(plane, timing.t_prog_ns, CONTINUING, sub)
        else:
            wait = yield from self._phase(plane, timing.t_erase_ns, ARRIVING, sub)
        self.ops_executed += 1
        self.wait_ns += wait

    def execute(self, op: FlashOp):
        """Generator: run one op to completion, holding an admission
        slot throughout when the channel has a bound."""
        if self.slots is None:
            yield from self._execute(op)
            return
        queued = self.sim.now
        with self.slots.request() as slot:
            yield slot
            waited = self.sim.now - queued
            if waited > 0:
                self.throttled += 1
                self.throttle_wait_ns += waited
            yield from self._execute(op)
