"""repro.policy -- deterministic, declarative self-tuning.

A started :class:`PolicyPlan` closes the observe -> decide -> actuate
loop: declarative :class:`Rule` objects read live metrics through the
observability plane, pass through a property-tested hysteresis +
cooldown automaton (no flapping), and pull the control-plane levers the
rest of the repo already exposes -- admission limits, rebalance,
migration pacing -- on the controller and servers ``PolicyPlan.attach``
bound.  ``PolicyPlan.start(sim)`` runs it on the simulated clock with
per-rule RNG streams, so a policy-driven run replays byte-identically.
"""

from repro.policy.actions import (
    PaceMigrations,
    ScaleAdmission,
    SetAdmission,
    TriggerRebalance,
)
from repro.policy.engine import PolicyContext, PolicyPlan
from repro.policy.rules import (
    FIRED,
    IDLE,
    OUTCOMES,
    PENDING,
    SUPPRESSED_BUSY,
    SUPPRESSED_COOLDOWN,
    SUPPRESSED_HYSTERESIS,
    Hysteresis,
    Rule,
    RuleState,
)
from repro.policy.signals import DeltaRateSignal, MetricSignal

__all__ = [
    "DeltaRateSignal",
    "FIRED",
    "Hysteresis",
    "IDLE",
    "MetricSignal",
    "OUTCOMES",
    "PENDING",
    "PaceMigrations",
    "PolicyContext",
    "PolicyPlan",
    "Rule",
    "RuleState",
    "SUPPRESSED_BUSY",
    "SUPPRESSED_COOLDOWN",
    "SUPPRESSED_HYSTERESIS",
    "ScaleAdmission",
    "SetAdmission",
    "TriggerRebalance",
]
