"""Per-channel timed execution of flash operations.

The bus and every (chip, plane) are capacity-1 FIFO resources whose
grant/end instants are computed analytically against per-resource
:class:`~repro.sim.timeline.ResourceTimeline` objects; an op reserves each phase at the instant it requests it -- one end
event per phase, whose callback requests the next -- and completes in
the last phase's callback (a batch through one shared countdown).

Where an op's bus request instant is known beforehand its bus phase is
reserved *ahead* and the op costs one event: a streamed PROGRAM whose
link DMA end is already known (:meth:`ChannelEngine.program_page_ahead`,
the plane phase reserved behind the bus phase), and a request's READs,
whose senses are reserved at submission with no end events
(:meth:`ChannelEngine.read_ahead`; a plane is a FIFO, so a sense's end
is settled then).  Plane and payload size are all this path reads of an
op, so it takes them as such -- a request's READs as plane runs
(:class:`~repro.ftl.ops.OpRuns`, or a list grouped into runs at the
door) -- and builds no :class:`~repro.ftl.ops.FlashOp`.  Such bus
phases are tentative until their request instants come: the engine
keeps them in the order they will request the bus, a newcomer takes its
place in that order, and whatever reaches the bus or a plane first
revokes those it must precede and has them made again behind it.  See
DESIGN.md "Scheduling".
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from operator import attrgetter
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.faults.injector import NULL_INJECTOR, STALL
from repro.ftl.ops import FlashOp, OpKind, OpRuns
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming
from repro.sim import Event, Simulator
from repro.sim.engine import _PhaseEnd
from repro.sim.stats import Counter
from repro.sim.timeline import BusyUnion, ResourceTimeline


def _revoked():
    """What a heap-resident end event runs once its reservation has
    been revoked."""


_order = attrgetter("order")

#: Orders an intruder -- a reservation made at its own instant -- behind
#: every tentative entry that requests the bus at that nanosecond.
_LAST = float("inf")


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
    """

    __slots__ = (
        "engine", "then", "plane", "order", "bus_req", "bus_ns", "wait",
        "bus_grant", "bus_end", "plane_grant", "due",
        "bus_undo", "plane_undo", "event", "bus_counted",
    )

    def __init__(self, engine, then, plane, order, bus_ns, wait):
        self.engine = engine
        self.then = then
        self.plane = plane
        #: Place in ``ChannelEngine._ahead``: the bus request instant,
        #: then what orders equal ones (``ChannelEngine.read_ahead``).
        self.order = order
        #: The last instant the reservation can be revoked before: the
        #: bus request (a PROGRAM moves it to each bus end it is given).
        self.bus_req = self.due = order[0]
        self.bus_ns = bus_ns
        #: Queue wait already behind the op (a READ's sense).
        self.wait = wait
        #: True once the bus interval is in the engine's busy union
        #: (a busy read between ``bus_req`` and ``due``).
        self.bus_counted = False

    def done(self) -> None:
        """The op's end instant: what ``read_done``/``program_done`` do
        on the per-phase path."""
        engine = self.engine
        engine.ops_executed.value += 1
        wait = self.wait + self.bus_grant - self.bus_req
        if self.plane is not None:
            wait += self.plane_grant - self.bus_end
        engine.wait_ns.value += wait
        then = self.then
        if then is not None:
            # This entry may sit in ``_ahead`` until the engine is next
            # used; it must not keep the finished request alive.
            self.then = None
            then()


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
        "engine", "op", "then", "start", "chain", "step",
        "request", "grant", "wait", "record_wait",
    )

    def __init__(self, engine, op, then, start):
        self.engine = engine
        self.op = op
        self.then = then
        #: The op's start instant: past admission, before any stall.
        self.start = start
        self.chain = engine._chains[op.kind]
        self.step = 0
        #: Queue wait summed over the phases that have ended.
        self.wait = 0

    def request_phase(self) -> None:
        """Reserve, now, the phase at ``step``."""
        engine = self.engine
        sim = engine.sim
        op = self.op
        duration = self.chain[self.step]
        if duration is None:
            timeline = engine._tl_bus
            duration = engine._bus_ns(op.nbytes)
        else:
            address = op.address
            timeline = engine._tl_planes[(address.chip, address.plane)]
        self.request = sim._now
        self.record_wait = sim.obs is not None
        self.grant = engine._phase_fast(timeline, duration, self.ended)

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
            if self.chain[self.step] is None:
                track = engine._track_bus
            else:
                address = self.op.address
                track = engine._track_planes[(address.chip, address.plane)]
            if self.record_wait:
                obs.trace.span(track, "hold", grant, sim._now, wait_ns=wait)
            else:
                obs.trace.span(track, "hold", grant, sim._now)
        step = self.step = self.step + 1
        if step < len(self.chain):
            self.request_phase()
            return
        engine.ops_executed.value += 1
        engine.wait_ns.value += total
        obs = engine._obs
        if obs is not None and obs.trace.enabled:
            op = self.op
            address = op.address
            obs.trace.span(
                engine._ops_track,
                op.kind.name.lower(),
                self.start,
                sim._now,
                chip=address.chip,
                plane=address.plane,
                block=address.block,
                nbytes=op.nbytes,
                wait_ns=total,
            )
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
        self._obs = None
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
        #: Count of reservations that found their timeline idle, the
        #: source of ``ResourceTimeline.rank``.
        self._rank = 0
        self.ops_executed = Counter(f"channel{channel}.ops")
        #: Total queue wait summed over ops; can exceed wall-clock time
        #: when many ops wait concurrently.
        self.wait_ns = Counter(f"channel{channel}.wait")
        # self._obs (property ``obs``): optional
        # :class:`repro.obs.Observability`, set by
        # ``repro.obs.attach_device``; None keeps all hooks no-ops.
        #: Fault-injection handle (channel ``stall`` latency spikes);
        #: :data:`~repro.faults.injector.NULL_INJECTOR` unless wired.
        self.faults = NULL_INJECTOR
        self._depth_metric = None
        #: Memoized bus_transfer_ns per payload size (hot path).
        self._bus_ns_cache: Dict[int, int] = {}

    # -- attachment points -----------------------------------------------------
    @property
    def obs(self):
        """Optional :class:`repro.obs.Observability`; set by
        ``repro.obs.attach_device``.  None keeps all hooks no-ops."""
        return self._obs

    @obs.setter
    def obs(self, value) -> None:
        self._obs = value
        self._depth_metric = None

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
        if self._ahead:
            self._count_ahead()
        return self._busy_union.busy_through(now) / now

    def busy_value(self, now_ns: Optional[int] = None) -> int:
        """Closed busy time (ns) through ``now``.

        Service intervals count once they have fully ended; the
        currently open interval (if any) is excluded, the way an
        in-service counter excludes in-flight service.
        """
        now = self.sim.now if now_ns is None else now_ns
        if self._ahead:
            self._count_ahead()
        return self._busy_union.closed_through(now)

    # -- one phase, at its request instant -----------------------------------------
    def _phase_fast(self, timeline: ResourceTimeline, duration_ns: int, fn):
        """Reserve one FIFO phase at sim-now, running ``fn`` at its end.

        The queue-depth metric sees the request at now and the grant at
        its (possibly future) instant, the busy union records the
        service interval, and ``fn`` fires at the end instant with the
        tie ordering of ``repro.sim.timeline``.  Returns the grant
        instant.
        """
        # ResourceTimeline.reserve_and_call inlined: this is the hottest
        # call site and the extra frames are measurable.
        sim = self.sim
        now = sim._now
        revoked = self._ahead and self._revoke(timeline)
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
            heappush(sim._heap, (end, sim._seq, event))
            self._rank = timeline.rank = self._rank + 1
        else:
            tail = timeline._tail_hooks
            if tail is None:
                delay = end - grant
                sim._schedule_call(
                    lambda: sim._schedule(sim._phase_event(fn, hooks), delay),
                    grant - now,
                )
            else:
                tail.append((fn, hooks, end - grant))
        timeline._tail_hooks = hooks
        # Phase durations are always positive.
        raw = self._busy_raw
        raw.append(grant)
        raw.append(end)
        if self._obs is not None:
            self._depth_track(now, grant)
        if revoked:
            self._reserve_again(revoked, timeline)
        return grant

    def _depth(self):
        """The attached ``obs``'s queue-depth metric."""
        depth = self._depth_metric
        if depth is None:
            depth = self._depth_metric = self._obs.metrics.time_weighted(
                f"channel{self.channel}.queue_depth"
            )
        return depth

    def _depth_track(self, request_ns: int, grant_ns: int) -> None:
        """Queue-depth accounting for one phase, event-free.

        The grant instant is already known at reservation time, so the
        depth decrement is *deferred* into the metric (folded in, in
        timestamp order, by its next update or read) rather than
        scheduled -- the integrated area is byte-identical to a
        grant-instant update, at zero event cost.
        """
        depth = self._depth()
        depth.shift(request_ns, 1)
        if grant_ns <= request_ns:
            depth.shift(request_ns, -1)
        else:
            depth.shift_at(grant_ns, -1)

    # -- bus phases reserved ahead of their request instants -------------------------
    #: READ bus phases one request keeps reserved ahead at a time: an
    #: ordered insertion remakes everything behind it, so the tail is
    #: kept short and refilled by one timer per this many pages.
    READ_AHEAD_PAGES = 32

    def can_reserve_ahead(self) -> bool:
        """True when nothing attached needs an op's per-phase hops: no
        engine observability (queue depth is tracked per phase), no
        hold spans to emit, no STALL rule at this site (one is drawn at
        the op's start instant; a wired injector holding none is, at
        that instant, :data:`NULL_INJECTOR`).  Read afresh at every
        call -- once a read request, once a streamed page -- so
        whatever is attached or enabled meanwhile, through this engine
        or not, holds from the next op.  :meth:`program_page_ahead` and
        :meth:`read_ahead` require it.  An admission gate (``qos``)
        does not decide it: the gate stands in front, and what it
        admits is reserved ahead from its grant hop."""
        if self._obs is not None:
            return False
        sim_obs = self.sim.obs
        if sim_obs is not None and sim_obs.trace.enabled:
            return False
        faults = self.faults
        return faults is NULL_INJECTOR or faults.quiet(STALL)

    def _bus_ns(self, nbytes: int) -> int:
        cache = self._bus_ns_cache
        bus_ns = cache.get(nbytes)
        if bus_ns is None:
            bus_ns = cache[nbytes] = self.timing.bus_transfer_ns(nbytes)
        return bus_ns

    def program_page_ahead(
        self, plane: Tuple[int, int], nbytes: int, request_ns: int, then=None
    ) -> None:
        """Reserve now a PROGRAM of ``nbytes`` on plane ``(chip,
        plane)`` that reaches the channel at ``request_ns`` -- the
        already-known end of its link DMA, or now, from an admission
        hop -- with one event, the program's end; ``then()`` runs
        there.  Plane and size are all of an op this path reads: the
        write window names them off its :class:`~repro.ftl.ops.OpRuns`
        and no :class:`FlashOp` is built.

        Equivalent to ``execute_fast(op, then)`` called at
        ``request_ns``: the bus is reserved with that request instant
        and the plane with the bus end as its request instant, and any
        reservation that reaches either before those instants revokes
        this one, goes first, and has it made again (:meth:`_revoke`).
        One made *at* such an instant goes after.  Callers check
        :meth:`can_reserve_ahead` first -- and, for a request instant
        still to come, that no admission gate is attached: a slot is
        taken at the instant the page reaches the channel, which then
        has to be an event (:meth:`execute_fast` there).  The page takes
        its place among the reservations already ahead by request
        instant (:meth:`_enter`); at ``request_ns == now`` only the
        plane phase is tentative, and the page stands behind everything
        that asks for the bus this nanosecond -- right for a caller
        that is an event scheduled at this very instant, as a grant hop
        is: every sense end and DMA end it ties with was scheduled
        earlier.
        """
        now = self.sim._now
        ahead = self._ahead
        if ahead and ahead[0].due <= now:
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
        entry = _Ahead(
            self,
            then,
            self._tl_planes[plane],
            # Among equal request instants a page stands where the
            # instant it asked the link for its DMA puts it.
            (request_ns, now, 0, self._rank),
            bus_ns,
            0,
        )
        if ahead and ahead[-1].order > entry.order:
            self._enter([entry])
        else:
            self._reserve_ahead(entry, True)
            ahead.append(entry)

    def read_ahead(self, ops: Sequence[FlashOp], then=None) -> None:
        """Run one request's READs with one event a page, its bus end;
        ``then()`` runs at each.  ``ops`` is best the
        :class:`~repro.ftl.ops.OpRuns` the block FTL returned: its
        plane runs are read off it and no op is built.

        Equivalent to ``execute_fast(op, then)`` for each op in turn:
        every sense is reserved now, plane run by plane run (a plane's
        tentative programs are revoked once before the run and remade
        once behind it), with no end event -- a plane is a FIFO, so the
        sense's end, the instant the page requests the bus, is settled.
        The bus phases are reserved ahead with those request instants,
        :attr:`READ_AHEAD_PAGES` at a time.  Callers check
        :meth:`can_reserve_ahead` first; a request in flight when
        something is attached finishes the way it began.

        Behind an admission gate the request takes its slots FIFO and
        each grant hop reserves what it admitted: the prefix that finds
        slots free at submission as one request from one hop, the rest
        page by page from the hops the releases schedule -- a page not
        yet admitted when a STALL rule appears takes the per-phase
        path, where the rule is consulted.  ``then`` runs behind each
        page's release.
        """
        qos = self.qos
        if qos is None:
            self._reserve_reads(ops, then)
        else:
            qos.admit_request(ops, self._admitted_reads, qos.releasing(then))

    def _admitted_reads(self, ops, then) -> None:
        """A grant hop, the start instant of the READs it admitted;
        ``then`` already releases their slots."""
        if self.can_reserve_ahead():
            self._reserve_reads(ops, then)
        else:
            for op in ops:
                self._submit(op, then)

    def _reserve_reads(self, ops, then) -> None:
        """:meth:`read_ahead` past the gate: senses now, bus phases
        ahead.

        Pages whose senses end on one nanosecond take the bus in the
        order their sense-end events would have run in.  Events at one
        instant run in the order they were scheduled, a queued sense's
        from the end event before it on its plane, so the question
        steps back down both planes' queues to where they differ.  In
        turn: the earlier sense grant (all equal between READs; a
        streamed page stands by the instant it asked the link); a run
        of back-to-back senses that *queued* behind something before
        one whose first sense found its plane idle (that one was
        scheduled by a submission, itself scheduled a moment before;
        the other by an end event scheduled a phase ago); of two
        queued runs the one that started *later* (where it stops, the
        longer run still has a sense and the shorter the longer phase
        it queued behind, scheduled earlier), of two that found their
        planes idle the earlier; then the plane whose queue started
        earlier (``rank``, handed down a plane's queue from the
        reservation that found it idle); then the earlier submission.
        Queues that differ only further back are beyond it (DESIGN.md
        section 7).
        """
        runs = self._read_runs(ops)
        now = self.sim._now
        ahead = self._ahead
        if ahead and ahead[0].due <= now:
            self._retire()
        if len(self._busy_raw) > self.BUSY_RAW_LIMIT:
            self.busy_value()
        t_read = self.timing.t_read_ns
        raw = self._busy_raw
        entries: List[_Ahead] = []
        for key, count, bus_ns in runs:
            plane = self._tl_planes[key]
            revoked = ahead and self._revoke(plane)
            grant = plane.free_at
            if grant <= now:
                grant = start = now
                self._rank = plane.rank = self._rank + 1
            else:
                # Behind senses reserved here the run goes on; behind
                # anything else a new one starts, queued: negative, so
                # the later start sorts first and all before idle ones.
                run = plane.run
                start = run[0] if run is not None and run[1] == grant else -grant
            rank = plane.rank
            for _ in range(count):
                end = grant + t_read
                raw.append(grant)
                raw.append(end)
                entries.append(
                    _Ahead(
                        self, then, None, (end, grant, start, rank),
                        bus_ns, grant - now,
                    )
                )
                grant = end
            plane.free_at = grant
            plane.run = (start, grant)
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
                entries[stop].order[1] - sim._now,
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
            for _ in revoked:
                ahead.pop()
            # Stable: at equal places the earlier reservation stays first.
            entries = sorted(revoked + entries, key=_order)
        for entry in entries:
            self._reserve_ahead(entry, True)
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
            entry.plane_undo = (free, tail, plane.rank)
            request = entry.bus_end
            duration = self.timing.t_prog_ns
        # The phase the op ends with, on ``timeline``: the one that has
        # an end event.
        hooks = []
        if free > request and tail is not None:
            # Queued behind a reservation with an end event: chain off
            # it, as ``_phase_fast`` does at the request instant.
            grant = free
            tail.append((entry.done, hooks, duration))
            entry.event = None
        else:
            sim = self.sim
            event = entry.event = sim._phase_event(entry.done, hooks)
            sim._seq += 1
            if free > request:
                grant = free
            else:
                grant = request
                self._rank = timeline.rank = self._rank + 1
            heappush(sim._heap, (grant + duration, sim._seq, event))
        timeline.free_at = grant + duration
        timeline._tail_hooks = hooks
        if plane is None:
            entry.bus_grant = grant
            entry.bus_end = grant + duration
        else:
            entry.plane_grant = grant

    def _retire(self) -> None:
        """Drop the reservations nothing can precede any more (last
        request instant reached) into the busy union."""
        now = self.sim._now
        ahead = self._ahead
        raw = self._busy_raw
        duration = self.timing.t_prog_ns
        while ahead and ahead[0].due <= now:
            entry = ahead.popleft()
            if not entry.bus_counted:
                raw.append(entry.bus_grant)
                raw.append(entry.bus_end)
            # The tail saved with the op's last phase holds the entry's
            # own hook: a cycle.
            if entry.plane is None:
                entry.bus_undo = None
            else:
                entry.plane_undo = None
                grant = entry.plane_grant
                raw.append(grant)
                raw.append(grant + duration)

    def _count_ahead(self) -> None:
        """Before a busy-time read: every service interval whose request
        instant has been reached -- what the per-phase path would have
        recorded by now -- goes into the busy union."""
        self._retire()
        now = self.sim._now
        raw = self._busy_raw
        for entry in self._ahead:
            if entry.bus_req > now:
                break
            if not entry.bus_counted:
                entry.bus_counted = True
                raw.append(entry.bus_grant)
                raw.append(entry.bus_end)

    def _revoke(self, timeline: ResourceTimeline, order=None) -> List[_Ahead]:
        """Undo, newest first, the ahead reservations that a reservation
        made on ``timeline`` must precede; returns them oldest first
        for :meth:`_reserve_again`.

        On a plane those are its own programs still short of their
        plane request instant (a READ's sense is never tentative).  On
        the bus they are the entries placed after ``order`` -- for an
        intruder, which reserves at its own instant, those still short
        of their bus request instant -- with the plane phases of the
        programs among them: the bus end they request the plane at is
        about to move.  (No other program on those planes is newer and
        left standing -- bus ends rise along ``_ahead``.)
        """
        self._retire()
        on_bus = timeline is self._tl_bus
        if on_bus and order is None:
            order = (self.sim._now, _LAST)
        revoked = []
        for entry in reversed(self._ahead):
            if on_bus:
                if entry.order <= order:
                    break
            elif entry.plane is not timeline:
                continue
            revoked.append(entry)
            plane = entry.plane
            if plane is None:
                tail = entry.bus_undo[1]
            else:
                plane.free_at, tail, plane.rank = entry.plane_undo
                plane._tail_hooks = tail
            event = entry.event
            if event is None:
                # Chained: the newest item of its predecessor's hooks.
                tail.pop()
            else:
                event._fn = _revoked
                event._hooks = None
        if on_bus and revoked:
            timeline.free_at, timeline._tail_hooks = revoked[-1].bus_undo
        revoked.reverse()
        return revoked

    def _reserve_again(
        self, revoked: List[_Ahead], timeline: ResourceTimeline
    ) -> None:
        """Remake what :meth:`_revoke` undid, behind the reservation
        just made on ``timeline``."""
        from_bus = timeline is self._tl_bus
        for entry in revoked:
            self._reserve_ahead(entry, from_bus)

    def execute_fast(self, op: FlashOp, then=None) -> None:
        """Schedule one op on the reservation timelines.

        ``then()`` (if given) runs at the op's completion instant --
        after the engine's counters update (and, with QoS attached,
        after the admission slot's release) -- so callers can chain
        further reservations (link DMA, batch completions) from it.

        With QoS attached the op first takes an admission slot; its
        grant hop is its start instant, and an event scheduled at that
        very instant, so what it admits is reserved ahead from there
        when nothing watches per phase (:meth:`can_reserve_ahead`): a
        READ as a request of one, a PROGRAM with request instant now.
        """
        if len(self._busy_raw) > self.BUSY_RAW_LIMIT:
            self.busy_value()
        qos = self.qos
        if qos is not None:
            qos.admit_fast(lambda: self._admitted(op, qos.releasing(then)))
        else:
            self._submit(op, then)

    def execute_program(
        self, plane: Tuple[int, int], nbytes: int, ops, index: int, then
    ) -> None:
        """:meth:`execute_fast` for the PROGRAM ``ops[index]`` of
        ``nbytes`` on plane ``(chip, plane)``, building the op only if
        it takes the per-phase path: behind an admission gate its grant
        hop reserves it ahead by plane and size, as
        :meth:`program_page_ahead` takes them."""
        qos = self.qos
        if qos is None:
            self.execute_fast(ops[index], then)
            return
        if len(self._busy_raw) > self.BUSY_RAW_LIMIT:
            self.busy_value()
        then = qos.releasing(then)

        def admitted():
            if self.can_reserve_ahead():
                self.program_page_ahead(plane, nbytes, self.sim._now, then)
            else:
                self._submit(ops[index], then)

        qos.admit_fast(admitted)

    def _admitted(self, op: FlashOp, then) -> None:
        """A grant hop, the start instant of the op it admitted;
        ``then`` already releases its slot."""
        kind = op.kind
        if kind is OpKind.READ:
            self._admitted_reads((op,), then)
        elif kind is OpKind.PROGRAM and self.can_reserve_ahead():
            address = op.address
            self.program_page_ahead(
                (address.chip, address.plane), op.nbytes, self.sim._now, then
            )
        else:
            self._submit(op, then)

    def _submit(self, op: FlashOp, then) -> None:
        """Per-phase submission at the op's start instant.

        Runs post-admission (the QoS grant hop already happened) and
        pre-stall: the ops span's start and the stall RNG draw both
        anchor here.  The draw instant matters --
        ``FaultEvent.signature()`` includes ``at_ns`` -- so a queued
        admission must shift the draw to the grant instant, never make
        it early at submission.
        """
        phased = _PhasedOp(self, op, then, self.sim._now)
        faults = self.faults
        if faults is not NULL_INJECTOR and not faults.quiet(STALL):
            stall_ns = faults.delay_ns(
                STALL, op=op.kind.name.lower(), chip=op.address.chip
            )
            if stall_ns > 0:
                # A controller hiccup: the op sits on the channel doing
                # nothing before contending for resources.
                self.sim._schedule_call(phased.request_phase, stall_ns)
                return
        phased.request_phase()

    # -- single-op execution -------------------------------------------------------
    def execute(self, op: FlashOp):
        """Generator: run one op to completion (``yield from`` this).

        With a QoS bound attached, the op first waits for one of the
        channel's admission slots; the queue the planes and bus see
        stays shallow and the wait lands on the issuer as backpressure.
        """
        if op.address.channel != self.channel:
            raise ValueError(
                f"op for channel {op.address.channel} sent to engine "
                f"{self.channel}"
            )
        done = Event(self.sim)
        self.execute_fast(op, done.succeed)
        yield done

    # -- batch helpers ----------------------------------------------------------------
    def execute_batch(self, ops: Iterable[FlashOp]):
        """Generator form of :meth:`execute_batch_call`: ONE completion
        event, at the instant the last op completes."""
        ops = list(ops)
        if not ops:
            return
        done = Event(self.sim)
        self.execute_batch_call(ops, done.succeed)
        yield done

    def execute_batch_call(self, ops: List[FlashOp], then) -> None:
        """Run a non-empty list of ops concurrently; ``then()`` runs at
        the last op's completion instant.  Each op costs a
        phase-boundary callback per phase on the reservation timelines
        and the whole batch completes through one shared countdown."""
        remaining = [len(ops)]

        def one_done():
            remaining[0] -= 1
            if not remaining[0]:
                then()

        for op in ops:
            if op.address.channel != self.channel:
                raise ValueError(
                    f"op for channel {op.address.channel} sent to engine "
                    f"{self.channel}"
                )
            self.execute_fast(op, one_done)


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
