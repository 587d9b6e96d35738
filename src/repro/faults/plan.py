"""The :class:`FaultPlan`: one seedable description of everything that
will go wrong in a run.

A plan is built up front, wired into an already-constructed system with
:meth:`FaultPlan.attach` (or by assigning
``layer.faults = plan.injector(site)`` by hand), and then left alone:
layers consult their injector on each operation, and
:meth:`FaultPlan.start` drives the scheduled faults against the
targets ``attach`` recorded.

Scheduled kinds, and what the target at their site must expose:

* ``crash`` -- ``crash()`` (synchronous) and ``restart()`` (a generator
  run as part of the driver process);
* ``brownout`` -- ``begin_brownout(multiplier)`` and ``end_brownout()``
  (both synchronous); the node stays up but every handler CPU charge is
  multiplied for the fault's duration.  Pass the multiplier as a
  schedule arg: ``plan.schedule(site, BROWNOUT, at_ns, duration_ns,
  multiplier=20.0)``.
* ``partition`` -- ``begin_partition(a, b, symmetric)`` and
  ``end_partition(a, b, symmetric)`` (both synchronous;
  :class:`repro.cluster.network.Network` has them).  ``a`` and ``b``
  name the two sides of the cut: single NIC names or comma-joined
  groups (``a="ctl0", b="ctl1,ctl2,n0"``); ``symmetric=False`` cuts only
  the ``a`` -> ``b`` direction.  Schedule as ``plan.schedule("net",
  PARTITION, at_ns, duration_ns, a="ctl0", b="ctl1,ctl2")``.

After the recovery of any kind, a site that holds a replica of an
attached :class:`~repro.cluster.replication.ReplicatedKV` resyncs it
(:meth:`~repro.cluster.replication.ReplicatedKV.heal`).

Two properties the test tier leans on:

* **Determinism** -- the full fault sequence is a pure function of the
  plan (seed, rules, schedule) and the simulated workload.  Each rule
  draws from its own RNG stream, so adding a rule at one site never
  shifts the draws at another.
* **No drift** -- an *empty* plan is behaviourally identical to no plan
  at all: injectors return immediately on the rule-table miss, make no
  RNG draws and schedule no events, so traces and metrics come out
  byte-identical (asserted by ``tests/faults/test_no_drift.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.errors import FaultInjectionError
from repro.faults.injector import (
    BROWNOUT,
    CRASH,
    PARTITION,
    FaultEvent,
    FaultInjector,
    FaultRule,
    ScheduledFault,
    _RuleState,
)

#: Scheduled kind -> (onset method, recovery method, recovery event).
_SCHEDULED = {
    CRASH: ("crash", "restart", "restart"),
    BROWNOUT: ("begin_brownout", "end_brownout", "brownout_end"),
    PARTITION: ("begin_partition", "end_partition", "partition_heal"),
}


def _partition_sides(args: dict):
    """Decode the ``a``/``b`` endpoint groups of one partition fault."""
    try:
        a, b = args["a"], args["b"]
    except KeyError as exc:
        raise FaultInjectionError(
            "partition fault needs a= and b= endpoint names"
        ) from exc
    side_a = tuple(a.split(",")) if isinstance(a, str) else a
    side_b = tuple(b.split(",")) if isinstance(b, str) else b
    return side_a, side_b, bool(args.get("symmetric", True))


def _calls(fault: ScheduledFault) -> tuple:
    """``(onset args, recovery args, keywords)`` of one scheduled fault."""
    args = dict(fault.args)
    if fault.kind == BROWNOUT:
        return (args.get("multiplier", 10.0),), (), {}
    if fault.kind == PARTITION:
        side_a, side_b, symmetric = _partition_sides(args)
        return (side_a, side_b), (side_a, side_b), {"symmetric": symmetric}
    return (), (), {}


class FaultPlan:
    """A seeded collection of probabilistic rules and scheduled faults."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        #: every fired fault and recovery action, in firing order
        self.log: List[FaultEvent] = []
        self._states: Dict[Tuple[str, str], List[_RuleState]] = {}
        self._scheduled: Dict[str, List[ScheduledFault]] = {}
        self._injectors: Dict[str, FaultInjector] = {}
        #: site -> the object its scheduled faults hit (set by attach)
        self._targets: Dict[str, object] = {}
        #: site -> generator function run after each recovery there
        self._restore: Dict[str, Callable] = {}
        self._n_rules = 0
        self._sim = None
        self._started = False
        self.obs = None

    # -- construction ------------------------------------------------------------
    def add(
        self,
        site: str,
        kind: str,
        rate: float = 0.0,
        at_op: Optional[int] = None,
        count: Optional[int] = None,
        after_ns: int = 0,
        before_ns: Optional[int] = None,
        delay_ns: int = 0,
        where: Optional[dict] = None,
        rng=None,
    ) -> "FaultPlan":
        """Add one probabilistic (``rate``) or deterministic (``at_op``)
        fault rule.  Returns ``self`` so rules chain fluently.

        ``rng`` overrides the rule's derived RNG stream with a caller
        generator -- only for compatibility shims that must preserve a
        historical draw sequence; normal plans should leave it unset.
        """
        if rate < 0.0 or rate > 1.0:
            raise FaultInjectionError(f"rate must be in [0, 1], got {rate}")
        if at_op is not None and at_op < 1:
            raise FaultInjectionError(f"at_op is 1-based, got {at_op}")
        if at_op is None and rate == 0.0 and delay_ns == 0:
            raise FaultInjectionError(
                "rule needs a rate, an at_op or a delay_ns; got none"
            )
        if count is not None and count < 1:
            raise FaultInjectionError(f"count must be >= 1, got {count}")
        rule = FaultRule(
            site=site,
            kind=kind,
            rate=rate,
            at_op=at_op,
            count=count,
            after_ns=after_ns,
            before_ns=before_ns,
            delay_ns=delay_ns,
            where=tuple(sorted(where.items())) if where else None,
            # Stream index is the rule's position *within its own
            # (site, kind) list*: adding rules elsewhere never shifts
            # another site's RNG stream.
            index=len(self._states.get((site, kind), ())),
        )
        self._n_rules += 1
        self._states.setdefault((site, kind), []).append(
            _RuleState(rule, self.seed, rng=rng)
        )
        return self

    def schedule(
        self,
        site: str,
        kind: str,
        at_ns: int,
        duration_ns: Optional[int] = 0,
        **args,
    ) -> "FaultPlan":
        """Pin a fault to an absolute simulated time (node crashes).

        ``duration_ns`` is how long the fault lasts before recovery
        begins (``None`` = never recovers).
        """
        if at_ns < 0:
            raise FaultInjectionError(f"at_ns must be >= 0, got {at_ns}")
        if duration_ns is not None and duration_ns < 0:
            raise FaultInjectionError(
                f"duration_ns must be >= 0 or None, got {duration_ns}"
            )
        fault = ScheduledFault(
            site=site,
            kind=kind,
            at_ns=int(at_ns),
            duration_ns=duration_ns,
            args=tuple(sorted(args.items())),
        )
        self._scheduled.setdefault(site, []).append(fault)
        return self

    # -- wiring --------------------------------------------------------------------
    def injector(self, site: str) -> FaultInjector:
        """The (cached) injector handle for a named site."""
        handle = self._injectors.get(site)
        if handle is None:
            handle = self._injectors[site] = FaultInjector(self, site)
        return handle

    def bind_clock(self, sim) -> None:
        """Give the plan a simulator so events carry timestamps and
        time-window rules (``after_ns``/``before_ns``) take effect."""
        self._sim = sim

    def attach(self, target, name: str = "") -> "FaultPlan":
        """Wire this plan into a built device, SDF system, storage
        server, network, cluster controller, controller group or
        replicated KV, record the targets of its scheduled faults and
        bind its clock (sites in :mod:`repro.faults.wire`); returns
        ``self`` so calls chain."""
        from repro.faults.wire import wire

        wire(self, target, name)
        return self

    def start(self) -> None:
        """Spawn one driver process per scheduled fault: sites in
        order, each site's faults by ``at_ns``.

        Call after attaching every target and before (or during)
        ``sim.run()``.  A fault that could not run -- a site with no
        target, an unknown kind, a target without the kind's methods, a
        partition without ``a=``/``b=`` -- raises
        :class:`FaultInjectionError` here, before any process exists:
        a typo'd site silently injecting nothing would defeat the test
        tier.
        """
        if self._started:
            raise FaultInjectionError("FaultPlan.start() called twice")
        drivers = []
        for site in sorted(self._scheduled):
            target = self._targets.get(site)
            if target is None:
                raise FaultInjectionError(
                    f"scheduled fault at site {site!r} with no target; "
                    f"attached targets: {sorted(self._targets)}"
                )
            for fault in self.scheduled_for(site):
                if fault.kind not in _SCHEDULED:
                    raise FaultInjectionError(
                        f"don't know how to drive scheduled fault kind "
                        f"{fault.kind!r} at site {site!r}"
                    )
                for method in _SCHEDULED[fault.kind][:2]:
                    if not callable(getattr(target, method, None)):
                        raise FaultInjectionError(
                            f"{type(target).__name__} at site {site!r} "
                            f"cannot take a scheduled {fault.kind}: "
                            f"it has no {method}()"
                        )
                drivers.append((site, target, fault, _calls(fault)))
        self._started = True
        for site, target, fault, calls in drivers:
            self._sim.process(self._drive(site, target, fault, calls))

    def _drive(self, site, target, fault: ScheduledFault, calls):
        sim = self._sim
        injector = self.injector(site)
        onset, recovery, event = _SCHEDULED[fault.kind]
        onset_args, recovery_args, keywords = calls
        args = dict(fault.args)
        delay = fault.at_ns - sim.now
        if delay > 0:
            yield sim.timeout(delay)
        getattr(target, onset)(*onset_args, **keywords)
        injector.inject(fault.kind, **args)
        if fault.duration_ns is None:
            return  # never recovers
        if fault.duration_ns > 0:
            yield sim.timeout(fault.duration_ns)
        recovering = getattr(target, recovery)(*recovery_args, **keywords)
        if recovering is not None:
            yield from recovering  # a restart takes simulated time
        injector.note(event, **args)
        restore = self._restore.get(site)
        if restore is not None:
            yield from restore()

    def scheduled_for(self, site: str) -> List[ScheduledFault]:
        """Scheduled faults registered against a site, in time order."""
        return sorted(self._scheduled.get(site, ()), key=lambda f: f.at_ns)

    def sites(self) -> List[str]:
        """Every site named by a rule or a scheduled fault."""
        names = {site for (site, _kind) in self._states}
        names.update(self._scheduled)
        return sorted(names)

    # -- runtime ---------------------------------------------------------------------
    def now_ns(self) -> Optional[int]:
        """Current simulated time, or None before a clock is bound."""
        return self._sim.now if self._sim is not None else None

    def _record(
        self,
        site: str,
        kind: str,
        now_ns: Optional[int],
        ctx: dict,
        rule: Optional[FaultRule] = None,
        recovery: bool = False,
    ) -> FaultEvent:
        event = FaultEvent(
            site=site, kind=kind, at_ns=now_ns, recovery=recovery, ctx=dict(ctx)
        )
        self.log.append(event)
        obs = self.obs
        if obs is not None:
            family = "recovery" if recovery else "faults"
            obs.metrics.counter(f"{family}.{site}.{kind}").add(1)
            if obs.trace.enabled:
                obs.trace.instant(
                    f"faults/{site}",
                    f"{'recover:' if recovery else ''}{kind}",
                    now_ns or 0,
                    **event.ctx,
                )
        return event

    # -- inspection --------------------------------------------------------------------
    def signatures(self) -> List[tuple]:
        """The fault log as hashable tuples (for determinism asserts)."""
        return [event.signature() for event in self.log]

    def fault_count(self, site: Optional[str] = None, kind: Optional[str] = None) -> int:
        """Fired (non-recovery) faults, optionally filtered."""
        return sum(
            1
            for e in self.log
            if not e.recovery
            and (site is None or e.site == site)
            and (kind is None or e.kind == kind)
        )

    def recovery_count(
        self, site: Optional[str] = None, kind: Optional[str] = None
    ) -> int:
        """Logged recovery actions, optionally filtered."""
        return sum(
            1
            for e in self.log
            if e.recovery
            and (site is None or e.site == site)
            and (kind is None or e.kind == kind)
        )

    def __repr__(self):
        return (
            f"FaultPlan(seed={self.seed}, rules={self._n_rules}, "
            f"scheduled={sum(len(v) for v in self._scheduled.values())}, "
            f"fired={len(self.log)})"
        )
