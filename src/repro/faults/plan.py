"""The :class:`FaultPlan`: one seedable description of everything that
will go wrong in a run.

A plan is built up front, wired into an already-constructed system with
:meth:`FaultPlan.attach` (or by assigning
``layer.faults = plan.injector(site)`` by hand), and then left alone:
layers consult their injector on each operation, scheduled faults are
driven by a :class:`~repro.faults.runner.FaultRunner`.

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

from typing import Dict, List, Optional, Tuple

from repro.faults.errors import FaultInjectionError
from repro.faults.injector import (
    FaultEvent,
    FaultInjector,
    FaultRule,
    ScheduledFault,
    _RuleState,
)


class FaultPlan:
    """A seeded collection of probabilistic rules and scheduled faults."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        #: every fired fault and recovery action, in firing order
        self.log: List[FaultEvent] = []
        self._states: Dict[Tuple[str, str], List[_RuleState]] = {}
        self._scheduled: Dict[str, List[ScheduledFault]] = {}
        self._injectors: Dict[str, FaultInjector] = {}
        self._n_rules = 0
        self._sim = None
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
        server, network or cluster controller and bind its clock (sites
        in :mod:`repro.faults.wire`); returns ``self`` so calls chain."""
        from repro.faults.wire import wire

        wire(self, target, name)
        return self

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
