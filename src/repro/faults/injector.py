"""Fault rules, events and the per-site injector handle.

The fault plane follows the same attachment pattern as ``repro.obs``:
every instrumented layer holds a :data:`NULL_INJECTOR` by default, so an
unconfigured run pays one attribute access per site and executes an
*identical* event sequence (no RNG draws, no extra timeouts).  Wiring a
:class:`~repro.faults.plan.FaultPlan` swaps the attribute for a live
:class:`FaultInjector` bound to a named site.

Sites are plain strings; the conventions used by the wiring helpers:

========================  =====================================================
site                      faults consulted there
========================  =====================================================
``nand``                  chip ops (``program_fail``/``erase_fail``/
                          ``read_uncorrectable``), ctx: chip/plane/block/page
``ch<N>``                 channel engine N (``stall`` latency spikes)
``link``                  host link (``drop``, ``delay``)
``net``                   datacenter network (``drop``, ``delay``,
                          scheduled ``partition`` link cuts)
``node<N>``               storage server N (scheduled ``crash``/``brownout``)
``ctl<N>``                controller replica N (scheduled ``crash``)
``replication``           ``ReplicatedKV`` read-path BCH-failure stand-in
========================  =====================================================

Determinism: each rule owns an independent RNG stream derived from
``(plan seed, site, kind, rule index)`` via CRC32 of the strings, so the
fault sequence depends only on the plan seed and the (deterministic)
order of checks at its own site -- never on activity at other sites.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

# -- fault kinds (plain strings so layers can define their own) -------------------
PROGRAM_FAIL = "program_fail"  #: NAND program failed to verify
ERASE_FAIL = "erase_fail"  #: NAND erase failed to verify
READ_UNCORRECTABLE = "read_uncorrectable"  #: page read beyond BCH strength
STALL = "stall"  #: channel latency spike
DROP = "drop"  #: message/transfer lost
DELAY = "delay"  #: message/transfer delayed
CRASH = "crash"  #: node crash (scheduled; paired with restart)
BROWNOUT = "brownout"  #: node slowdown (scheduled; latency multiplier)
PARTITION = "partition"  #: network link cut (scheduled; paired with heal)


@dataclass(frozen=True)
class FaultRule:
    """One configured fault source at a (site, kind).

    Probabilistic rules set ``rate`` (one RNG draw per opportunity);
    deterministic rules set ``at_op`` (fire on the Nth matching
    opportunity, 1-based).  ``count`` caps total fires, ``after_ns`` /
    ``before_ns`` gate by simulated time (evaluated when the plan has a
    bound clock), ``where`` filters on context keys (e.g.
    ``{"plane": 0}``), and ``delay_ns`` is the injected latency for
    delay-type kinds.
    """

    site: str
    kind: str
    rate: float = 0.0
    at_op: Optional[int] = None
    count: Optional[int] = None
    after_ns: int = 0
    before_ns: Optional[int] = None
    delay_ns: int = 0
    where: Optional[Tuple[Tuple[str, object], ...]] = None
    index: int = 0


@dataclass(frozen=True)
class ScheduledFault:
    """A fault pinned to an absolute simulated time (node crashes)."""

    site: str
    kind: str
    at_ns: int
    duration_ns: Optional[int] = 0
    args: Tuple[Tuple[str, object], ...] = ()


@dataclass
class FaultEvent:
    """One fired fault or recovery action (the plan's audit log entry)."""

    site: str
    kind: str
    at_ns: Optional[int]
    recovery: bool = False
    ctx: dict = field(default_factory=dict)

    def signature(self) -> tuple:
        """Hashable identity used by determinism tests."""
        return (
            self.site,
            self.kind,
            self.at_ns,
            self.recovery,
            tuple(sorted(self.ctx.items())),
        )


class _RuleState:
    """Mutable per-rule bookkeeping: opportunity/fire counters + RNG."""

    __slots__ = ("rule", "opportunities", "fired", "_rng", "_seed")

    def __init__(self, rule: FaultRule, seed: int):
        self.rule = rule
        self.opportunities = 0
        self.fired = 0
        self._rng = None
        self._seed = seed

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            rule = self.rule
            self._rng = np.random.default_rng(
                [
                    self._seed,
                    zlib.crc32(rule.site.encode()),
                    zlib.crc32(rule.kind.encode()),
                    rule.index,
                ]
            )
        return self._rng

    def exhausted(self) -> bool:
        rule = self.rule
        if rule.count is not None and self.fired >= rule.count:
            return True
        if rule.at_op is not None and self.opportunities >= rule.at_op:
            return True
        return False


def _matches(rule: FaultRule, now_ns: Optional[int], ctx: dict) -> bool:
    if now_ns is not None:
        if now_ns < rule.after_ns:
            return False
        if rule.before_ns is not None and now_ns >= rule.before_ns:
            return False
    if rule.where:
        for key, expected in rule.where:
            if ctx.get(key) != expected:
                return False
    return True


class FaultInjector:
    """A site-scoped handle any layer can consult on its hot path.

    All state lives in the owning plan; the injector is a thin view so
    that rules added after :meth:`~repro.faults.plan.FaultPlan.injector`
    was called are still seen.
    """

    __slots__ = ("plan", "site")

    def __init__(self, plan, site: str):
        self.plan = plan
        self.site = site

    def fires(self, kind: str, **ctx) -> Optional[FaultEvent]:
        """Should a ``kind`` fault strike this operation?

        Returns the logged :class:`FaultEvent` when a rule fires, else
        None.  With no rule configured for (site, kind) this is one dict
        miss: no RNG draw, no logging, no drift.
        """
        states = self.plan._states.get((self.site, kind))
        if not states:
            return None
        return self._evaluate(states, kind, ctx)

    def quiet(self, *kinds: str) -> bool:
        """True when no rule is configured here for any of ``kinds``:
        the site-level check a hot path makes *before* building a
        draw's context -- a wired injector that is quiet behaves, at
        that instant, exactly as :data:`NULL_INJECTOR`.  (An exhausted
        rule still counts: the site stays on the path that consults
        it.)"""
        states = self.plan._states
        site = self.site
        for kind in kinds:
            if states.get((site, kind)):
                return False
        return True

    def delay_ns(self, kind: str, **ctx) -> int:
        """Injected extra latency for this operation (0 when quiet)."""
        states = self.plan._states.get((self.site, kind))
        if not states:
            return 0
        total = 0
        event = self._evaluate(states, kind, ctx, sum_delays=True)
        if event is not None:
            total = event.ctx.get("delay_ns", 0)
        return total

    def _evaluate(self, states, kind, ctx, sum_delays: bool = False):
        now = self.plan.now_ns()
        fired_delay = 0
        event = None
        for state in states:
            rule = state.rule
            if state.exhausted():
                continue
            if not _matches(rule, now, ctx):
                continue
            state.opportunities += 1
            hit = False
            if rule.at_op is not None:
                hit = state.opportunities == rule.at_op
            elif rule.rate > 0.0:
                hit = state.rng.random() < rule.rate
            if not hit:
                continue
            state.fired += 1
            if sum_delays:
                fired_delay += rule.delay_ns
                continue
            event = self.plan._record(self.site, kind, now, ctx, rule=rule)
            return event
        if sum_delays and fired_delay > 0:
            return self.plan._record(
                self.site, kind, now, dict(ctx, delay_ns=fired_delay)
            )
        return event

    # -- bookkeeping hooks for the layers ------------------------------------------
    def inject(self, kind: str, **ctx) -> FaultEvent:
        """Log an externally-applied fault (e.g. a scheduled crash)."""
        return self.plan._record(self.site, kind, self.plan.now_ns(), ctx)

    def note(self, event: str, **ctx) -> FaultEvent:
        """Log a *recovery* action (remap, retire, WAL replay, ...)."""
        return self.plan._record(
            self.site, event, self.plan.now_ns(), ctx, recovery=True
        )

    def __repr__(self):
        return f"FaultInjector(site={self.site!r})"


class NullFaultInjector:
    """The no-op default: never fires, never delays, never logs."""

    __slots__ = ()
    site = ""
    plan = None

    def fires(self, kind: str, **ctx) -> None:
        return None

    def quiet(self, *kinds: str) -> bool:
        return True

    def delay_ns(self, kind: str, **ctx) -> int:
        return 0

    def inject(self, kind: str, **ctx) -> None:
        return None

    def note(self, event: str, **ctx) -> None:
        return None

    def __repr__(self):
        return "NullFaultInjector()"


#: Shared no-op injector every instrumented layer defaults to.
NULL_INJECTOR = NullFaultInjector()
