"""Actions: the control-plane levers a fired rule pulls.

Each action's ``apply(ctx, rng)`` either reconfigures the system
synchronously (admission limits, migration pacing) and returns a
description string, or returns a *generator* that the plan spawns as
its own simulation process (rebalance passes -- work that takes
simulated time and must not block rule evaluation).  While such a
process runs, the owning rule is *busy*: a would-be re-fire is
suppressed without consuming the cooldown, so overlapping migrations
can never be triggered by one rule.  A bare ``fn(ctx, rng)`` works
anywhere an action does.

``rng`` is the rule's private :class:`numpy.random.Generator` stream
(seeded from the plan seed and the rule's position), available for
randomised actions; the built-in actions are fully deterministic and
leave it untouched -- which is exactly why a policy run replays
byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import TransientFault
from repro.qos.config import AdmissionConfig, MigrationConfig


def _admission_targets(ctx):
    """Every reachable (name, AdmissionController), deterministically.

    Cluster-attached plans resolve through the controller's node map;
    single-server or single-system plans through the servers bound at
    attach time.  Servers without an admission controller (no QoS plan
    attached) are skipped -- there is nothing to retune.
    """
    seen = []
    names = set()
    ctrl = ctx.controller
    if ctrl is not None:
        for name in sorted(ctrl.nodes):
            admission = ctrl.nodes[name].qos
            if admission is not None:
                seen.append((name, admission))
                names.add(name)
    for name in sorted(ctx.servers):
        admission = ctx.servers[name].qos
        if admission is not None and name not in names:
            seen.append((name, admission))
    return seen


@dataclass(frozen=True)
class SetAdmission:
    """Replace every node's per-class admission limits outright.

    The blunt, predictable lever: "the flash crowd is here, switch to
    the tight profile".  ``None`` keeps a class unlimited.
    """

    max_reads: Optional[int] = None
    max_writes: Optional[int] = None
    max_scans: Optional[int] = None

    def apply(self, ctx, rng) -> str:
        changed = 0
        for _name, admission in _admission_targets(ctx):
            admission.config = replace(
                admission.config,
                max_reads=self.max_reads,
                max_writes=self.max_writes,
                max_scans=self.max_scans,
            )
            changed += 1
        return (
            f"admission := reads={self.max_reads} writes={self.max_writes} "
            f"scans={self.max_scans} on {changed} nodes"
        )


@dataclass(frozen=True)
class ScaleAdmission:
    """Multiply every node's per-class admission limits, clamped.

    The proportional lever for gradual tightening/relaxing: factors
    below 1 tighten, above 1 relax.  Unlimited (``None``) classes stay
    unlimited -- scaling infinity is not a decision, switch profiles
    with :class:`SetAdmission` instead.
    """

    read: float = 1.0
    write: float = 1.0
    scan: float = 1.0
    floor: int = 1
    ceiling: int = 4096

    def __post_init__(self):
        for name in ("read", "write", "scan"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} factor must be > 0")
        if not 1 <= self.floor <= self.ceiling:
            raise ValueError("need 1 <= floor <= ceiling")

    def _scaled(self, limit: Optional[int], factor: float) -> Optional[int]:
        if limit is None:
            return None
        return max(self.floor, min(self.ceiling, round(limit * factor)))

    def apply(self, ctx, rng) -> str:
        changed = 0
        for _name, admission in _admission_targets(ctx):
            cfg = admission.config
            admission.config = replace(
                cfg,
                max_reads=self._scaled(cfg.max_reads, self.read),
                max_writes=self._scaled(cfg.max_writes, self.write),
                max_scans=self._scaled(cfg.max_scans, self.scan),
            )
            changed += 1
        return (
            f"admission *= r{self.read}/w{self.write}/s{self.scan} "
            f"on {changed} nodes"
        )


@dataclass(frozen=True)
class PaceMigrations:
    """Re-budget the control plane's migration copy rate.

    "Foreground is hurting, slow the movers down" (or the reverse when
    the cluster is quiet and a backlog of moves should drain fast).
    """

    copy_mb_per_s: Optional[float] = None
    max_concurrent: Optional[int] = None

    def apply(self, ctx, rng) -> str:
        ctrl = ctx.controller
        if ctrl is None:
            return "no controller; migration pacing unchanged"
        ctrl.migration_budget = MigrationConfig(
            copy_mb_per_s=self.copy_mb_per_s,
            max_concurrent=self.max_concurrent,
        )
        return (
            f"migration budget := {self.copy_mb_per_s} MB/s, "
            f"max {self.max_concurrent} concurrent"
        )


@dataclass(frozen=True)
class TriggerRebalance:
    """Run one load-driven rebalance pass (simulated-time process).

    The rule's hysteresis decides *when* load skew warrants action; the
    controller's :meth:`~repro.cluster.control.ClusterController.
    rebalance` decides *what* to move.  An injected abort or a node
    crash mid-migration rolls back inside the controller; the rule just
    re-arms and may try again after its cooldown.
    """

    imbalance: float = 2.0

    def apply(self, ctx, rng):
        ctrl = ctx.controller
        if ctrl is None:
            return "no controller; rebalance skipped"

        def _pass():
            try:
                yield from ctrl.rebalance(imbalance=self.imbalance)
            except (TransientFault, KeyError):
                pass  # rolled back inside the controller; retry later

        return _pass()
