"""repro.policy -- deterministic, declarative self-tuning.

The autonomous policy engine closes the observe -> decide -> actuate
loop: declarative :class:`Rule` objects read live metrics through the
observability plane, pass through a property-tested hysteresis +
cooldown automaton (no flapping), and pull the control-plane levers the
rest of the repo already exposes -- admission limits, rebalance, slice
splits, migration pacing -- on the controller and servers
``PolicyPlan.attach`` bound.  Everything runs on the simulated clock
with per-rule RNG streams, so a policy-driven run replays
byte-identically.
"""

from repro.policy.actions import (
    CallbackAction,
    PaceMigrations,
    ScaleAdmission,
    SetAdmission,
    SplitHottestSlice,
    TriggerRebalance,
)
from repro.policy.engine import (
    PolicyContext,
    PolicyEngine,
    PolicyPlan,
    build_policy_engine,
)
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
from repro.policy.signals import (
    DeadNodeSignal,
    DeltaRateSignal,
    MetricSignal,
    NodeSkewSignal,
    SliceSkewSignal,
)

__all__ = [
    "CallbackAction",
    "DeadNodeSignal",
    "DeltaRateSignal",
    "FIRED",
    "Hysteresis",
    "IDLE",
    "MetricSignal",
    "NodeSkewSignal",
    "OUTCOMES",
    "PENDING",
    "PaceMigrations",
    "PolicyContext",
    "PolicyEngine",
    "PolicyPlan",
    "Rule",
    "RuleState",
    "SUPPRESSED_BUSY",
    "SUPPRESSED_COOLDOWN",
    "SUPPRESSED_HYSTERESIS",
    "ScaleAdmission",
    "SetAdmission",
    "SliceSkewSignal",
    "SplitHottestSlice",
    "TriggerRebalance",
    "build_policy_engine",
]
