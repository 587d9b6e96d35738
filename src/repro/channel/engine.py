"""Per-channel timed execution of flash operations.

The bus and every (chip, plane) are capacity-1 FIFO resources whose
grant/end instants are computed analytically against per-resource
:class:`~repro.sim.timeline.ResourceTimeline` objects; an op reserves each phase at the instant it requests it -- one end
event per phase, whose callback requests the next -- and completes in
the last phase's callback (a batch through one shared countdown).

Where an op's bus request instant is known beforehand its bus phase is
reserved *ahead* and the op costs one event: a streamed PROGRAM whose
link DMA end is already known (:meth:`ChannelEngine.program_page_ahead`,
the plane phase reserved behind the bus phase), a batch's PROGRAMs,
whose bus phases are requested at once
(:meth:`ChannelEngine.execute_batch_call` on a plain engine: the
conventional family's door), and a request's READs, whose senses are
reserved at submission with no end events
(:meth:`ChannelEngine.read_ahead`; a plane is a FIFO, so a sense's end
is settled then).  Plane and payload size are all this path reads of an
op, so it takes them as such -- a request's READs as plane runs
(:class:`~repro.ftl.ops.OpRuns`, or a list grouped into runs at the
door), a GC move's programs as plane runs
(:class:`~repro.ftl.ops.Relocation`) -- and builds no
:class:`~repro.ftl.ops.FlashOp`.  Such phases are tentative until their
request instants come: the engine keeps them in the order they will
request the bus, a newcomer takes its place in that order, and
whatever reaches the bus or a plane first revokes those it must precede
and has them made again behind it.  See DESIGN.md "Scheduling".

Ops come in through four doors -- :meth:`ChannelEngine.execute_fast`
(one op), :meth:`ChannelEngine.execute_batch_call` (a batch, one
completion), :meth:`ChannelEngine.read_ahead` (a request's READs) and
:meth:`ChannelEngine.program_page_ahead` (a streamed PROGRAM) -- and
the engine alone picks each op's path: a STALL rule
(:meth:`ChannelEngine.can_reserve_ahead`) and its admission gate
(``qos``) are read in here, never by a caller, which asks at most
:meth:`ChannelEngine.can_program_ahead` before it books a page's DMA.
Observation picks no path: metrics and spans are read off the
reservations.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.faults.injector import NULL_INJECTOR, STALL
from repro.ftl.ops import FlashOp, OpKind, OpParts, OpRuns, Relocation, StripePage
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming
from repro.sim import Simulator
from repro.sim.engine import _PhaseEnd
from repro.sim.stats import Counter, TimeWeighted
from repro.sim.timeline import (
    ARRIVING,
    CONTINUING,
    ENDING,
    BusyUnion,
    ResourceTimeline,
    same_instant_key,
)


def _revoked():
    """What a heap-resident end event runs once its reservation has
    been revoked."""


_order = attrgetter("order")
_plane_key = attrgetter("address.chip", "address.plane")


def _at(sim, when: int, key: int, event) -> None:
    """Schedule ``event`` for ``when`` with ``key``
    (:func:`~repro.sim.timeline.same_instant_key`) as its heap tie."""
    sim._seq += 1
    heappush(sim._heap, (when, key + sim._seq, event))


class _Ahead:
    """One op whose bus phase was reserved ahead of its request instant:
    a streamed PROGRAM (:meth:`ChannelEngine.program_page_ahead`), with the
    plane phase behind it, or a READ whose sense is already reserved
    (:meth:`ChannelEngine.read_ahead`).

    ``bus_req`` is the instant the per-phase path would have reserved
    the bus at (the page's link DMA end, the sense end) and ``bus_end``
    the instant a PROGRAM requests its plane at; until they pass, the
    reservation can be revoked (``ChannelEngine._revoke``) and
    everything below ``bus_ns`` rewritten by
    ``ChannelEngine._reserve_ahead``.  ``plane`` is None for a READ.
    ``ops[index]`` is the op, built only for a span.
    """

    __slots__ = (
        "engine", "then", "plane", "order", "key", "bus_req", "bus_ns", "wait",
        "ops", "index", "bus_grant", "bus_end", "plane_grant", "due",
        "bus_undo", "plane_undo", "event", "below",
    )

    def __init__(self, engine, then, plane, order, key, bus_ns, wait, ops, index):
        self.engine = engine
        self.then = then
        self.plane = plane
        #: Place in ``ChannelEngine._ahead``: the bus request's instant
        #: and ``same_instant_key``.
        self.order = order
        #: The end event's heap tie (``same_instant_key``, ``ENDING``).
        self.key = key
        #: The last instant the reservation can be revoked before: the
        #: bus request (a PROGRAM moves it to each bus end it is given).
        self.bus_req = self.due = order[0]
        self.bus_ns = bus_ns
        #: Queue wait already behind the op (a READ's sense).
        self.wait = wait
        self.ops, self.index = ops, index
        # self.below (a PROGRAM): the program entered before it on its
        # plane, set when it is chained onto ``plane.tentative``.

    def done(self) -> None:
        """The op's end instant: what ``read_done``/``program_done`` do
        on the per-phase path, and, nothing being able to revoke the
        reservation any more, the spans its phases would have left."""
        engine = self.engine
        engine.ops_executed.value += 1
        wait = self.wait + self.bus_grant - self.bus_req
        if self.plane is not None:
            wait += self.plane_grant - self.bus_end
        engine.wait_ns.value += wait
        obs, sim_obs = engine.obs, engine.sim.obs
        if (obs is not None and obs.trace.enabled) or (
            sim_obs is not None and sim_obs.trace.enabled
        ):
            self.spans(wait)
        then = self.then
        if then is not None:
            # This entry may sit in ``_ahead`` until the engine is next
            # used; it must not keep the finished request alive.
            self.then = None
            then()

    def spans(self, wait: int) -> None:
        """The spans the per-phase hops leave, at the op's end: each
        phase's hold to the trace ``sim.obs`` has enabled, the op's span
        to the engine's (``ChannelEngine._op_span``)."""
        engine = self.engine
        sim = engine.sim
        op = self.ops[self.index]
        plane = engine._track_planes[_plane_key(op)]
        bus_grant = self.bus_grant
        bus = (engine._track_bus, bus_grant, self.bus_end, bus_grant - self.bus_req)
        if self.plane is None:  # a READ: the sense before its bus phase
            sense = self.bus_req - engine.timing.t_read_ns
            start = sense - self.wait
            holds = ((plane, sense, self.bus_req, self.wait), bus)
        else:
            start = self.bus_req
            grant = self.plane_grant
            holds = (bus, (plane, grant, sim._now, grant - self.bus_end))
        obs = sim.obs
        if obs is not None and obs.trace.enabled:
            for track, begin, end, hold_wait in holds:
                obs.trace.span(track, "hold", begin, end, wait_ns=hold_wait)
        engine._op_span(op, start, wait)


class _PhasedOp:
    """One op run phase by phase: each phase is reserved at the instant
    it is requested, the first at the op's start instant and the next
    from the end of the one before (``ChannelEngine._chains``).

    Whatever watches is read at the instant it is consulted, never
    remembered: a phase's hold span goes to the trace ``sim.obs`` has
    enabled when the phase ends and the op's span to the engine's when
    the op does; ``record_wait`` alone is taken at the request instant.
    """

    __slots__ = (
        "engine", "op", "then", "start", "chain", "step", "offset",
        "request", "grant", "wait", "record_wait",
    )

    def __init__(self, engine, op, then, start, offset):
        self.engine = engine
        self.op = op
        self.then = then
        #: The op's start instant: past admission, before any stall.
        self.start = start
        self.chain = engine._chains[op.kind]
        self.step = 0
        #: The op's submission id, as its offset in a key
        #: (``ChannelEngine._start``).
        self.offset = offset
        #: Queue wait summed over the phases that have ended.
        self.wait = 0

    def request_phase(self) -> None:
        """Reserve, now, the phase at ``step``."""
        engine = self.engine
        sim = engine.sim
        op = self.op
        step = self.step
        chain = self.chain
        duration = chain[step]
        if duration is None:
            timeline = engine._tl_bus
            duration = engine._bus_ns(op.nbytes)
        else:
            timeline = engine._tl_planes[_plane_key(op)]
        self.request = sim._now
        self.record_wait = sim.obs is not None
        keys, offset = engine._keys, self.offset
        self.grant = engine._phase_fast(
            timeline, duration, self.ended,
            keys[ARRIVING if step == 0 else CONTINUING] + offset,
            keys[ENDING if step + 1 == len(chain) else CONTINUING] + offset,
        )

    def ended(self) -> None:
        """A phase's end instant, where its resource is released: the
        hold span, then the next phase or the op's completion --
        engine counters, the op span, then the caller's continuation
        (behind the QoS slot release, which grants the next admission
        waiter, when the op was admitted)."""
        engine = self.engine
        sim = engine.sim
        grant = self.grant
        wait = grant - self.request
        self.wait = total = self.wait + wait
        obs = sim.obs
        if obs is not None and obs.trace.enabled:
            track = engine._track_bus
            if self.chain[self.step] is not None:
                track = engine._track_planes[_plane_key(self.op)]
            args = {"wait_ns": wait} if self.record_wait else {}
            obs.trace.span(track, "hold", grant, sim._now, **args)
        step = self.step = self.step + 1
        if step < len(self.chain):
            self.request_phase()
            return
        engine.ops_executed.value += 1
        engine.wait_ns.value += total
        engine._op_span(self.op, self.start, total)
        then = self.then
        if then is not None:
            then()


class ChannelEngine:
    """Charges simulated time for FlashOps on one channel.

    The engine knows nothing about FTLs or data -- it only models the
    hardware contention of one channel: a single shared bus and one
    resource per (chip, plane).
    """

    def __init__(
        self,
        sim: Simulator,
        channel: int,
        geometry: FlashGeometry,
        timing: NandTiming,
        chips_per_channel: int = 2,
    ):
        self.sim = sim
        self.channel = channel
        self.geometry = geometry
        self.timing = timing
        #: Optional :class:`repro.obs.Observability` (``attach_device``): op spans go
        #: to its trace, phases into :meth:`queue_depth`.  None: no-op hooks.
        self.obs = None
        #: Optional :class:`repro.qos.limits.ChannelQosState` bounding
        #: the ops admitted to this channel; set by ``QosPlan.attach``.
        #: None keeps admission free.
        #: A gate in front of whichever path an op takes, not a path.
        self.qos = None
        keys = [
            (chip, plane)
            for chip in range(chips_per_channel)
            for plane in range(geometry.planes_per_chip)
        ]
        #: The shared bus and one contention resource per (chip, plane).
        self._tl_bus = ResourceTimeline()
        self._tl_planes = {key: ResourceTimeline() for key in keys}
        #: An op's phases in order (:class:`_PhasedOp`): a plane phase
        #: as its duration, the bus phase -- as long as the payload
        #: takes -- as None.
        self._chains = {
            OpKind.READ: (timing.t_read_ns, None),
            OpKind.PROGRAM: (None, timing.t_prog_ns),
            OpKind.ERASE: (timing.t_erase_ns,),
        }
        #: Precomputed trace track names for the hold spans.
        self._track_bus = f"ch{channel}/bus"
        self._track_planes: Dict[Tuple[int, int], str] = {
            (chip, plane): f"ch{channel}/chip{chip}.plane{plane}"
            for chip, plane in keys
        }
        self._ops_track = f"ch{channel}/ops"
        self._busy_union = BusyUnion()
        #: The union's flat buffer: a phase's service interval is two
        #: appends here (``BusyUnion.add`` inlined at every site).
        self._busy_raw = self._busy_union.raw
        #: Ops with a bus phase reserved ahead (and, for a PROGRAM, the
        #: plane phase behind it) that may still be revoked, in the
        #: order they will request the bus (``_Ahead.order``).  The bus
        #: is FIFO, so the bus ends PROGRAMs request their planes at
        #: rise along it too.
        self._ahead: Deque[_Ahead] = deque()
        #: How many entries at the head of ``_ahead`` have their bus phase
        #: counted (``_count_ahead``): a prefix, bus requests rise along it.
        self._counted = 0
        #: ``same_instant_key`` of this channel at submission id 0, by
        #: phase class, and what one id adds (the key is linear in it):
        #: an op's key is ``_keys[phase_class]`` plus its id's offset.
        self._keys = tuple(
            same_instant_key(phase_class, channel, 0)
            for phase_class in (CONTINUING, ARRIVING, ENDING)
        )
        self._sub_step = same_instant_key(CONTINUING, channel, 1) - self._keys[0]
        #: The offset of the next op's submission id (ops started so far).
        self._started = 0
        self.ops_executed = Counter(f"channel{channel}.ops")
        #: Total queue wait summed over ops; can exceed wall-clock time
        #: when many ops wait concurrently.
        self.wait_ns = Counter(f"channel{channel}.wait")
        #: Fault-injection handle (channel ``stall`` latency spikes);
        #: :data:`~repro.faults.injector.NULL_INJECTOR` unless wired.
        self.faults = NULL_INJECTOR
        #: Phases waiting for the bus or a plane (:meth:`_waited`), each counted once
        #: it cannot be revoked: per phase and a sense at reservation, an ahead
        #: bus phase once its request instant passes, a plane phase at ``_retire``.
        self._depth: Optional[TimeWeighted] = None
        #: Memoized bus_transfer_ns per payload size (hot path).
        self._bus_ns_cache: Dict[int, int] = {}

    # -- accounting --------------------------------------------------------------
    #: Integers (two an interval) the busy union's flat buffer may hold
    #: before the next submission closes the union through now -- by
    #: :meth:`busy_value`, the read an observer makes, so the answers
    #: are those of a run that never closed early, and busy accounting
    #: stays the size of what is in service on a run of any length.
    BUSY_RAW_LIMIT = 8192

    def utilization(self, now_ns: Optional[int] = None) -> float:
        """Fraction of elapsed time with at least one op in service.

        Always in [0, 1]: queue wait is excluded and overlapping service
        intervals are merged before integrating.
        """
        now = self.sim.now if now_ns is None else now_ns
        if now <= 0:
            return 0.0
        self._count_ahead()
        return self._busy_union.busy_through(now) / now

    def busy_value(self, now_ns: Optional[int] = None) -> int:
        """Closed busy time (ns) through ``now``.

        Service intervals count once they have fully ended; the
        currently open interval (if any) is excluded, the way an
        in-service counter excludes in-flight service.
        """
        now = self.sim.now if now_ns is None else now_ns
        self._count_ahead()
        return self._busy_union.closed_through(now)

    def queue_depth(self, now_ns: Optional[int] = None) -> Optional[float]:
        """Time-weighted mean count of phases waiting for the bus or a
        plane, from 0 through ``now_ns`` (the last change known when
        None), of those counted while ``obs`` was set; None before one."""
        self._count_ahead()
        depth = self._depth
        if depth is not None:
            return depth.average(depth.horizon if now_ns is None else now_ns)

    def _waited(self, request_ns: int, grant_ns: int) -> None:
        """Count one phase in the queue depth, from request to grant."""
        if self._depth is None:
            self._depth = TimeWeighted()
        self._depth.shift_at(request_ns, 1)
        self._depth.shift_at(grant_ns, -1)

    def _op_span(self, op: FlashOp, start_ns: int, wait_ns: int) -> None:
        """At ``op``'s end instant, its span from ``start_ns`` (past
        admission, before any stall) on the trace ``obs`` has enabled."""
        obs = self.obs
        if obs is not None and obs.trace.enabled:
            address = op.address
            obs.trace.span(
                self._ops_track, op.kind.name.lower(), start_ns, self.sim._now,
                chip=address.chip, plane=address.plane, block=address.block,
                nbytes=op.nbytes, wait_ns=wait_ns,
            )

    # -- the declared order ----------------------------------------------------------
    def _start(self, n: int = 1) -> int:
        """Take the submission ids of ``n`` ops starting now; returns
        the first's offset, the next ones' following ``_sub_step``
        apart."""
        offset = self._started
        self._started = offset + n * self._sub_step
        return offset

    # -- one phase, at its request instant -----------------------------------------
    def _phase_fast(self, timeline, duration_ns: int, fn, key: int, end_key: int):
        """Reserve one FIFO phase at sim-now, placed by ``key``
        (``same_instant_key``), running ``fn`` at its end.

        The busy union records the service interval, the queue depth
        (with ``obs`` set) the wait from now to the (possibly future)
        grant, and ``fn`` fires at the end instant with ``end_key`` as
        its heap tie.  Returns the grant instant.
        """
        # ResourceTimeline.reserve_and_call inlined: this is the hottest
        # call site and the extra frames are measurable.
        sim = self.sim
        now = sim._now
        revoked = self._ahead and self._revoke(timeline, (now, key))
        free = timeline.free_at
        grant = free if free > now else now
        end = grant + duration_ns
        timeline.free_at = end
        hooks = []
        if grant <= now:
            pool = sim._phase_pool
            if pool:
                event = pool.pop()
                event._processed = False
                event._fn = fn
                event._hooks = hooks
            else:
                event = _PhaseEnd(sim, fn, hooks)
            sim._seq += 1
            heappush(sim._heap, (end, end_key + sim._seq, event))
        else:
            tail = timeline._tail_hooks
            if tail is None:
                sim._schedule_call(
                    lambda: _at(sim, end, end_key, sim._phase_event(fn, hooks)),
                    grant - now,
                )
            else:
                tail.append((fn, hooks, end - grant, end_key))
        timeline._tail_hooks = hooks
        # Phase durations are always positive.
        raw = self._busy_raw
        raw.append(grant)
        raw.append(end)
        if revoked:
            self._reserve_again(revoked, timeline)
        if self.obs is not None:
            self._waited(now, grant)
            self._retire()  # which folds the depth
        return grant

    # -- bus phases reserved ahead of their request instants -------------------------
    #: READ bus phases one request keeps reserved ahead at a time: an
    #: ordered insertion remakes everything behind it, so the tail is
    #: kept short and refilled by one timer per this many pages.
    READ_AHEAD_PAGES = 32

    def can_reserve_ahead(self) -> bool:
        """True when nothing attached needs an op's per-phase hops
        (:meth:`_phased`).  Read afresh at every call -- once a read
        request, once a streamed page -- so whatever is attached
        meanwhile holds from the next op.  Observation does not decide
        it -- metrics and spans are read off the reservations -- nor
        does an admission gate (``qos``): what the gate admits is
        reserved ahead from its grant hop."""
        return not self._phased()

    def _phased(self) -> bool:
        """A STALL rule at this site (drawn at the op's start; a wired
        injector holding none is, then, :data:`NULL_INJECTOR`)."""
        faults = self.faults
        return faults is not NULL_INJECTOR and not faults.quiet(STALL)

    def _bus_ns(self, nbytes: int) -> int:
        cache = self._bus_ns_cache
        bus_ns = cache.get(nbytes)
        if bus_ns is None:
            bus_ns = cache[nbytes] = self.timing.bus_transfer_ns(nbytes)
        return bus_ns

    def program_page_ahead(
        self, plane: Tuple[int, int], nbytes: int, request_ns: int, then, ops, index
    ) -> None:
        """Reserve now ``ops[index]``, a PROGRAM of ``nbytes`` on plane
        ``(chip, plane)`` that reaches the channel at ``request_ns`` --
        the already-known end of its link DMA, or now, from an
        admission hop -- with one event, the program's end; ``then()``
        runs there.  Plane and size are all of an op this path reads:
        the write window names them off its
        :class:`~repro.ftl.ops.OpRuns`, and the :class:`FlashOp` is
        built only for a trace's span.

        Equivalent to ``execute_fast(op, then)`` called at
        ``request_ns``: the bus is reserved with that request instant
        and the plane with the bus end as its request instant, and any
        reservation that reaches either before those instants revokes
        this one, goes first, and has it made again (:meth:`_revoke`).
        One made on such an instant goes first or after by the declared
        order (:func:`~repro.sim.timeline.same_instant_key`; the page
        starts now).  A caller checks
        :meth:`can_program_ahead` first (:meth:`execute_fast` at the
        instant the page reaches the channel otherwise); the engine's
        own grant hop needs only :meth:`can_reserve_ahead`.  The page
        takes its place among the reservations already ahead
        (:meth:`_enter`).
        """
        now = self.sim._now
        ahead = self._ahead
        if ahead and ahead[0].due < now:
            self._retire()
        if len(self._busy_raw) > self.BUSY_RAW_LIMIT:
            self.busy_value()
        if request_ns < now:
            raise ValueError(
                f"request instant {request_ns} is behind now ({now})"
            )
        # ``_bus_ns`` inlined: once a streamed page.
        cache = self._bus_ns_cache
        bus_ns = cache.get(nbytes)
        if bus_ns is None:
            bus_ns = cache[nbytes] = self.timing.bus_transfer_ns(nbytes)
        timeline = self._tl_planes[plane]
        # ``_start`` inlined: once a streamed page.
        offset = self._started
        self._started = offset + self._sub_step
        _, arriving, ending = self._keys
        entry = _Ahead(
            self,
            then,
            timeline,
            (request_ns, arriving + offset),
            ending + offset,
            bus_ns,
            0,
            ops,
            index,
        )
        if ahead and ahead[-1].order > entry.order:
            self._enter([entry])
        else:
            self._reserve_ahead(entry, True)
            ahead.append(entry)
            entry.below = timeline.tentative
            timeline.tentative = entry

    def read_ahead(self, ops: Sequence[FlashOp], then=None) -> bool:
        """Run one request's READs; ``then()`` runs at each page's bus
        end.  Returns :meth:`can_reserve_ahead` as read at submission:
        whether the pages were reserved ahead.  ``ops`` is best the
        :class:`~repro.ftl.ops.OpRuns` the block FTL returned: its
        plane runs are read off it and no op is built.

        Reserved ahead, the request costs one event a page, its bus
        end, and is equivalent to ``execute_fast(op, then)`` for each op
        in turn: every sense is reserved now, plane run by plane run (a
        plane's tentative programs are revoked once before the run and
        remade once behind it), with no end event -- a plane is a FIFO,
        so the sense's end, the instant the page requests the bus, is
        settled.  The bus phases are reserved ahead with those request
        instants, :attr:`READ_AHEAD_PAGES` at a time.  A request in
        flight when something is attached finishes the way it began.
        When something needs the per-phase hops, each op goes to
        :meth:`execute_fast` in turn.

        Behind an admission gate the request takes its slots FIFO and
        each grant hop reserves what it admitted: the prefix that finds
        slots free at submission as one request from one hop, the rest
        page by page from the hops the releases schedule -- a page not
        yet admitted when a STALL rule appears takes the per-phase
        path, where the rule is consulted.  ``then`` runs behind each
        page's release.
        """
        if not self.can_reserve_ahead():
            for op in ops:
                self.execute_fast(op, then)
            return False
        qos = self.qos
        if qos is None:
            self._reserve_reads(ops, then)
        else:
            qos.admit_request(ops, self._admitted_reads, qos.releasing(then))
        return True

    def _admitted_reads(self, ops, then) -> None:
        """A grant hop, the start instant of the READs it admitted;
        ``then`` already releases their slots."""
        if self.can_reserve_ahead():
            self._reserve_reads(ops, then)
        else:
            for op in ops:
                self._submit(op, then, self._start())

    def _reserve_reads(self, ops, then) -> None:
        """:meth:`read_ahead` past the gate: senses now, bus phases
        ahead, each page a continuing op at its sense end
        (:func:`~repro.sim.timeline.same_instant_key`)."""
        runs = self._read_runs(ops)
        now = self.sim._now
        ahead = self._ahead
        if ahead and ahead[0].due < now:
            self._retire()
        if len(self._busy_raw) > self.BUSY_RAW_LIMIT:
            self.busy_value()
        t_read = self.timing.t_read_ns
        raw = self._busy_raw
        observed = self.obs is not None
        step = self._sub_step
        offset = self._start(len(ops))
        continuing, _, ending = self._keys
        entries: List[_Ahead] = []
        for key, count, bus_ns in runs:
            plane = self._tl_planes[key]
            revoked = ahead and self._revoke(plane)
            grant = plane.free_at
            if grant < now:
                grant = now
            if observed:
                for sense in range(grant, grant + count * t_read, t_read):
                    self._waited(now, sense)
            for _ in range(count):
                end = grant + t_read
                raw.append(grant)
                raw.append(end)
                # Op order so far: the page is ``ops[len(entries)]``.
                entries.append(
                    _Ahead(
                        self, then, None, (end, continuing + offset),
                        ending + offset, bus_ns, grant - now, ops, len(entries),
                    )
                )
                offset += step
                grant = end
            plane.free_at = grant
            # No sense end event: a phase queuing behind the run relays
            # at its grant.
            plane._tail_hooks = None
            if revoked:
                self._reserve_again(revoked, plane)
        # Planes sense in parallel: their runs' pages interleave.
        entries.sort(key=_order)
        self._enter_reads(entries, 0)

    def _read_runs(self, ops) -> List[Tuple[Tuple[int, int], int, int]]:
        """One request's READs as ``((chip, plane), pages, bus_ns)``
        plane runs, in op order.  An :class:`~repro.ftl.ops.OpRuns`
        holds them -- one kind and channel check a request, no op
        built; any other sequence of ops is grouped here, a run ending
        where the plane or the page size changes.  Raises before
        anything is reserved."""
        channel = self.channel
        if isinstance(ops, OpRuns):
            if ops.kind is not OpKind.READ or ops.channel != channel:
                raise ValueError(f"not READs on channel {channel}: {ops}")
            bus_ns = self._bus_ns(ops.nbytes)
            return [(key, count, bus_ns) for key, count in ops.plane_runs()]
        runs = []
        last = None
        for op in ops:
            address = op.address
            if op.kind is not OpKind.READ or address.channel != channel:
                raise ValueError(f"not a READ on channel {channel}: {op}")
            run = (address.chip, address.plane, op.nbytes)
            if run == last:
                runs[-1][1] += 1
            else:
                last = run
                runs.append(
                    [(address.chip, address.plane), 1, self._bus_ns(op.nbytes)]
                )
        return runs

    def _enter_reads(self, entries: List[_Ahead], start: int) -> None:
        """Reserve the bus phases of ``entries[start:]``, the next
        :attr:`READ_AHEAD_PAGES` now and the rest from a timer at the
        instant the first of them begins its sense (any instant short
        of its bus request would do)."""
        stop = start + self.READ_AHEAD_PAGES
        self._enter(entries[start:stop])
        if stop < len(entries):
            sim = self.sim
            sim._schedule_call(
                lambda: self._enter_reads(entries, stop),
                entries[stop].bus_req - self.timing.t_read_ns - sim._now,
            )

    def _enter(self, entries: List[_Ahead]) -> None:
        """Reserve ``entries`` (in order) ahead, each at its place in
        ``_ahead``: whatever is already there and requests the bus
        later is revoked and remade behind them -- what happens around
        an intruder, with the first entry's request instant for now."""
        ahead = self._ahead
        first = entries[0].order
        if ahead and ahead[-1].order > first:
            revoked = self._revoke(self._tl_bus, first)
            for entry in reversed(revoked):
                ahead.pop()
                if entry.plane is not None:
                    entry.plane.tentative = entry.below
            # Stable: at equal places the earlier reservation stays first.
            entries = sorted(revoked + entries, key=_order)
        for entry in entries:
            self._reserve_ahead(entry, True)
            plane = entry.plane
            if plane is not None:
                entry.below = plane.tentative
                plane.tentative = entry
        ahead.extend(entries)

    def _reserve_ahead(self, entry: _Ahead, from_bus: bool) -> None:
        """Reserve ``entry``'s bus phase (``from_bus``; a READ has no
        other) and, for a PROGRAM, its plane phase, remembering what
        each timeline held before."""
        plane = entry.plane
        if from_bus:
            timeline = self._tl_bus
            free = timeline.free_at
            tail = timeline._tail_hooks
            entry.bus_undo = (free, tail)
            request = entry.bus_req
            duration = entry.bus_ns
            if plane is not None:
                grant = entry.bus_grant = free if free > request else request
                entry.due = entry.bus_end = timeline.free_at = grant + duration
                # No bus end event: a phase queuing behind this one
                # relays at its grant.
                timeline._tail_hooks = None
        if plane is not None:
            timeline = plane
            free = plane.free_at
            tail = plane._tail_hooks
            entry.plane_undo = (free, tail)
            request = entry.bus_end
            duration = self.timing.t_prog_ns
        # The phase the op ends with, on ``timeline``: the one that has
        # an end event.
        hooks = []
        if free > request and tail is not None:
            # Queued behind a reservation with an end event: chain off
            # it, as ``_phase_fast`` does at the request instant.
            grant = free
            tail.append((entry.done, hooks, duration, entry.key))
            entry.event = None
        else:
            sim = self.sim
            event = entry.event = sim._phase_event(entry.done, hooks)
            grant = free if free > request else request
            sim._seq += 1  # ``_at`` inlined: once a page
            heappush(sim._heap, (grant + duration, entry.key + sim._seq, event))
        timeline.free_at = grant + duration
        timeline._tail_hooks = hooks
        if plane is None:
            entry.bus_grant = grant
            entry.bus_end = grant + duration
        else:
            entry.plane_grant = grant

    def _retire(self) -> None:
        """Drop the reservations nothing can precede any more (last
        request instant past) into the busy union and, observed, the
        depth, folded through the first request still to count (<= now)."""
        now = self.sim._now
        ahead = self._ahead
        raw = self._busy_raw
        duration = self.timing.t_prog_ns
        observed = self.obs is not None
        counted = self._counted
        while ahead and ahead[0].due < now:
            entry = ahead.popleft()
            if counted:
                counted -= 1
            else:
                raw.append(entry.bus_grant)
                raw.append(entry.bus_end)
                if observed:
                    self._waited(entry.bus_req, entry.bus_grant)
            # The tail saved with the op's last phase holds the entry's
            # own hook: a cycle.
            if entry.plane is None:
                entry.bus_undo = None
            else:
                # Off its plane's chain: a revoke stops at it (no undo
                # record), and it keeps no older entry alive.
                entry.plane_undo = entry.below = None
                grant = entry.plane_grant
                raw.append(grant)
                raw.append(grant + duration)
                if observed:
                    self._waited(entry.bus_end, grant)
        self._counted = counted
        if observed and self._depth is not None:
            uncounted = ahead[counted].bus_req if counted < len(ahead) else now
            self._depth.settle(min(now, uncounted))

    def _count_ahead(self) -> None:
        """Before a read of busy time or queue depth: every phase requested
        by now -- what the per-phase path would have recorded -- goes into
        the busy union and, observed, the queue depth.  (Nothing reads
        them before every request of the instant that could precede one
        is placed: those come from the engine's events that run first.)"""
        now = self.sim._now
        raw = self._busy_raw
        observed = self.obs is not None
        ahead = self._ahead
        counted = self._counted
        while counted < len(ahead):
            entry = ahead[counted]
            if entry.bus_req > now:
                break
            counted += 1
            raw.append(entry.bus_grant)
            raw.append(entry.bus_end)
            if observed:
                self._waited(entry.bus_req, entry.bus_grant)
        self._counted = counted
        self._retire()

    def _revoke(self, timeline: ResourceTimeline, order=None) -> List[_Ahead]:
        """Undo, newest first, the ahead reservations that a reservation
        made now on ``timeline`` must precede; returns them oldest
        first for :meth:`_reserve_again`.

        On a plane those are its own programs still short of their
        plane request instant (a READ's sense is never tentative),
        chained from ``timeline.tentative``.  On the bus they are the
        entries placed after ``order`` (the newcomer's), with the plane
        phases of the programs among them: the bus end they request the
        plane at is about to move.  (No other program on those planes
        is newer and left standing -- bus ends rise along ``_ahead``.)
        """
        ahead = self._ahead
        if ahead and ahead[0].due < self.sim._now:
            self._retire()
        if timeline is not self._tl_bus:
            return self._revoke_plane(timeline)
        revoked = []
        for entry in reversed(ahead):
            if entry.order <= order:
                break
            revoked.append(entry)
            plane = entry.plane
            if plane is None:
                tail = entry.bus_undo[1]
            else:
                plane.free_at, tail = entry.plane_undo
                plane._tail_hooks = tail
            event = entry.event
            if event is None:
                # Chained: the newest item of its predecessor's hooks.
                tail.pop()
            else:
                event._fn = _revoked
                event._hooks = None
        if revoked:
            timeline.free_at, timeline._tail_hooks = revoked[-1].bus_undo
        revoked.reverse()
        return revoked

    def _revoke_plane(self, timeline: ResourceTimeline) -> List[_Ahead]:
        """:meth:`_revoke` on a plane: its programs in ``_ahead`` that
        the reservation made now must precede, newest first down its
        chain (``timeline.tentative``, ``_Ahead.below``) and taken off
        it until :meth:`_reserve_again` remakes them (a revoke meanwhile
        finds none).  The chain stops at the first program whose bus
        ends by now (one ending now continues onto the plane, before
        any arrival); bus ends rise along ``_ahead``."""
        now = self.sim._now
        entry = timeline.tentative
        revoked = []
        while entry is not None and entry.bus_end > now:
            revoked.append(entry)
            entry = entry.below
        timeline.tentative = entry
        for entry in revoked:
            timeline.free_at, tail = entry.plane_undo
            timeline._tail_hooks = tail
            event = entry.event
            if event is None:
                tail.pop()
            else:
                event._fn = _revoked
                event._hooks = None
        revoked.reverse()
        return revoked

    def _reserve_again(
        self, revoked: List[_Ahead], timeline: ResourceTimeline
    ) -> None:
        """Remake what :meth:`_revoke` undid, behind the reservation
        just made on ``timeline``."""
        from_bus = timeline is self._tl_bus
        for entry in revoked:
            if not from_bus:
                entry.below = timeline.tentative
                timeline.tentative = entry
            self._reserve_ahead(entry, from_bus)

    def execute_fast(self, op, then=None) -> None:
        """Schedule one op on the reservation timelines.

        ``then()`` (if given) runs at the op's completion instant --
        after the engine's counters update (and, with QoS attached,
        after the admission slot's release) -- so callers can chain
        further reservations (link DMA, batch completions) from it.

        ``op`` is a :class:`FlashOp`, or a PROGRAM of a write's stripe
        as a :class:`~repro.ftl.ops.StripePage`: its plane drawn by the
        write window, its op built only if it runs per phase.  With QoS
        attached the op first takes an admission slot; its grant hop is
        its start instant, and an event scheduled at
        that very instant, so what it admits is reserved ahead from
        there when nothing needs it per phase (:meth:`can_reserve_ahead`):
        a READ as a request of one, a PROGRAM by plane and size with
        request instant now.
        """
        if len(self._busy_raw) > self.BUSY_RAW_LIMIT:
            self.busy_value()
        qos = self.qos
        if qos is not None:
            qos.admit_fast(lambda: self._admitted(op, qos.releasing(then)))
        else:
            self._submit(op, then, self._start())

    def _admitted(self, op, then) -> None:
        """A grant hop, the start instant of the op it admitted;
        ``then`` already releases its slot."""
        kind = op.kind
        if kind is OpKind.READ:
            self._admitted_reads((op,), then)
        elif kind is OpKind.PROGRAM and self.can_reserve_ahead():
            if type(op) is StripePage:
                plane, ops, index = op.plane, op.runs, op.index
            else:
                plane, ops, index = _plane_key(op), (op,), 0
            self.program_page_ahead(plane, op.nbytes, self.sim._now, then, ops, index)
        else:
            self._submit(op, then, self._start())

    def _submit(self, op, then, offset: int) -> None:
        """Per-phase submission at the op's start instant, ``offset``
        its submission id's (:meth:`_start`).

        Runs post-admission (the QoS grant hop already happened) and
        pre-stall: the ops span's start and the stall RNG draw both
        anchor here.  The draw instant matters --
        ``FaultEvent.signature()`` includes ``at_ns`` -- so a queued
        admission must shift the draw to the grant instant, never make
        it early at submission.
        """
        if type(op) is StripePage:
            op = op.runs[op.index]
        sim = self.sim
        phased = _PhasedOp(self, op, then, sim._now, offset)
        if self._phased():
            stall_ns = self.faults.delay_ns(
                STALL, op=op.kind.name.lower(), chip=op.address.chip
            )
            if stall_ns > 0:
                # A controller hiccup: the op sits on the channel doing
                # nothing before contending for resources; then it
                # arrives, in the declared order of its instant.
                _at(
                    sim, sim._now + stall_ns, self._keys[ARRIVING] + offset,
                    sim._phase_event(phased.request_phase, None),
                )
                return
        phased.request_phase()

    # -- batches -------------------------------------------------------------------------
    def execute_batch_call(self, ops: Sequence[FlashOp], then) -> None:
        """Run a non-empty batch of this channel's ops concurrently, as
        if each were submitted now in turn; ``then()`` runs once, at the
        last op's completion instant.  ``ops`` is a list of ops, an
        :class:`~repro.ftl.ops.OpRuns`, or an
        :class:`~repro.ftl.ops.OpParts` whose parts may be batches (a
        page-mapped GC move, :class:`~repro.ftl.ops.Relocation`).  The
        whole batch is checked before anything is reserved.

        On a plain engine (no admission gate, :meth:`can_reserve_ahead`)
        a PROGRAM costs one event, its end: its bus phase is reserved
        now and its plane phase ahead, as :meth:`program_page_ahead`
        does at ``request_ns == now`` (a batch of one PROGRAM is handed
        to it as it is, one of any other op to :meth:`execute_fast`).
        Its plane request at the bus end is a continuing op's, which
        goes before anything that arrives at the plane on that
        nanosecond, however long before its caller was scheduled.
        READs and ERASEs run per phase (DESIGN.md section 7,
        "Conventional batches"), and the senses of consecutive READs on
        one plane are requested as one run, the plane's tentative
        programs revoked once around it.  This is the per-phase
        schedule of the ops in list order, each op's submission id its
        place in the list: senses and erases are the only ops that take
        a plane now, programs the only ones that take the bus now, and
        every other phase is asked for later.  Otherwise each op goes
        through :meth:`execute_fast`, phase by phase.
        """
        parts = self._batch_parts(ops)
        if len(parts) == 1 and type(parts[0]) is FlashOp:
            # One op: what the batch path would do with it, directly.
            op = parts[0]
            if op.kind is OpKind.PROGRAM and self.can_program_ahead():
                self.program_page_ahead(
                    _plane_key(op), op.nbytes, self.sim._now, then, parts, 0
                )
            else:
                self.execute_fast(op, then)
            return
        plain = self.can_program_ahead()
        done = then
        if len(ops) > 1:
            remaining = [len(ops)]

            def done():
                remaining[0] -= 1
                if not remaining[0]:
                    then()

        if plain:
            self._reserve_batch(parts, done, self._start(len(ops)))
        else:
            for op in ops:
                self.execute_fast(op, done)

    def can_program_ahead(self) -> bool:
        """Whether a PROGRAM whose request instant is known now may be
        reserved ahead (:meth:`program_page_ahead`, and
        :meth:`execute_batch_call`'s PROGRAMs): no admission gate -- a
        slot is taken at the instant the page reaches the channel,
        which then has to be an event -- and nothing needing it per
        phase (:meth:`can_reserve_ahead`).  Otherwise the page goes
        through :meth:`execute_fast` at that instant, behind a gate
        reserved ahead from its grant hop when nothing needs it per
        phase."""
        return self.qos is None and not self._phased()

    def _batch_parts(self, ops) -> Sequence:
        """The parts of a batch, each an op or a batch of ops on this
        channel (``OpRuns`` of one kind, a ``Relocation``'s READs and
        PROGRAMs); raises before anything is reserved unless there is
        an op and every op is on this channel."""
        if type(ops) is list:
            parts = ops
        elif isinstance(ops, OpParts):
            parts = ops.parts
        elif isinstance(ops, (OpRuns, Relocation)):
            parts = (ops,)
        else:
            parts = ops
        if not len(ops):
            raise ValueError(f"empty batch for channel {self.channel}")
        channel = self.channel
        for part in parts:
            if part.channel != channel:
                raise ValueError(
                    f"op for channel {part.channel} sent to engine {channel}"
                )
        return parts

    def _reserve_batch(self, parts, then, offset: int) -> None:
        """:meth:`execute_batch_call` past the gate, ``offset`` the first
        op's submission id's (:meth:`_start`): in list order, each run of
        READs on one plane (PROGRAMs between them take no plane now) as
        one run of per-phase senses and each ERASE per phase; then the
        PROGRAMs, bus now and plane ahead, entered at one place."""
        now = self.sim._now
        ahead = self._ahead
        if ahead and ahead[0].due < now:
            self._retire()
        if len(self._busy_raw) > self.BUSY_RAW_LIMIT:
            self.busy_value()
        bus_ns_of = self._bus_ns
        step = self._sub_step
        #: ``(plane, bus_ns, ops, index, offset)``: each PROGRAM is
        #: ``ops[index]``.
        programs: List[Tuple[Tuple[int, int], int, Sequence, int, int]] = []
        reads: List[Tuple[FlashOp, int]] = []  # the READ run being gathered
        for position, part in enumerate(parts):
            first = offset
            offset += step * (1 if isinstance(part, FlashOp) else len(part))
            if isinstance(part, FlashOp):
                ops = ((part, first),)
            elif isinstance(part, Relocation):
                bus_ns = bus_ns_of(part.nbytes)
                planes = enumerate(part.program_planes())
                programs += [
                    (key, bus_ns, part, 2 * k + 1, first + (2 * k + 1) * step)
                    for k, key in planes
                ]
                ops = zip(part.reads(), range(first, offset, 2 * step))
            elif part.kind is OpKind.PROGRAM:
                bus_ns = bus_ns_of(part.nbytes)
                planes = enumerate(part.planes())
                programs += [
                    (key, bus_ns, part, k, first + k * step) for k, key in planes
                ]
                continue
            else:
                ops = zip(part, range(first, offset, step))
            for op, op_offset in ops:
                kind = op.kind
                if kind is OpKind.PROGRAM:  # an op part: ``parts[position]``
                    bus_ns = bus_ns_of(op.nbytes)
                    programs.append((_plane_key(op), bus_ns, parts, position, op_offset))
                    continue
                if reads and (
                    kind is not OpKind.READ or _plane_key(op) != _plane_key(reads[0][0])
                ):
                    self._read_run(reads, then)
                    reads = []
                if kind is OpKind.READ:
                    reads.append((op, op_offset))
                else:
                    self._submit(op, then, op_offset)
        if reads:
            self._read_run(reads, then)
        if programs:
            planes = self._tl_planes
            _, arriving, ending = self._keys
            self._enter(
                [
                    _Ahead(
                        self, then, planes[plane], (now, arriving + offset),
                        ending + offset, bus_ns, 0, ops, index,
                    )
                    for plane, bus_ns, ops, index, offset in programs
                ]
            )

    def _read_run(self, reads: Sequence[Tuple[FlashOp, int]], then) -> None:
        """Per-phase READs on one plane, ``(op, offset)`` pairs,
        whose senses are all requested now: the plane's tentative
        programs are revoked once before the senses and remade once
        behind them (each sense's own revoke then finds none), not once
        a page."""
        plane = self._tl_planes[_plane_key(reads[0][0])]
        revoked = self._ahead and self._revoke(plane)
        now = self.sim._now
        for op, offset in reads:
            _PhasedOp(self, op, then, now, offset).request_phase()
        if revoked:
            self._reserve_again(revoked, plane)


def build_engines(
    sim: Simulator,
    n_channels: int,
    geometry: FlashGeometry,
    timing: NandTiming,
    chips_per_channel: int = 2,
) -> List[ChannelEngine]:
    """One engine per channel, sharing nothing."""
    return [
        ChannelEngine(sim, channel, geometry, timing, chips_per_channel)
        for channel in range(n_channels)
    ]
