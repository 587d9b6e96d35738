"""repro.faults -- deterministic, seedable fault injection (paper S2.2).

The paper's reliability bet is that host software -- replication,
failover, bad-block remapping, WAL replay -- can absorb every failure
the device no longer hides.  This package is the test substrate for
that bet: a :class:`FaultPlan` describes what goes wrong (probabilistic
rules + scheduled crashes), ``FaultPlan.attach`` threads per-site
:class:`FaultInjector` handles through the NAND/channel/link/network/
controller layers behind no-op defaults and records the targets of
scheduled faults, ``FaultPlan.start`` drives those, and
:class:`RetryPolicy`/:func:`race_with_timeout` provide the host-side
timeout/backoff machinery.

An unconfigured run is guaranteed byte-identical to a run with no plan
attached (same event sequence, no RNG draws); same plan seed + same
workload is guaranteed to produce the same fault sequence.
"""

from repro.faults.errors import FaultInjectionError, TransientFault
from repro.faults.injector import (
    BROWNOUT,
    CRASH,
    DELAY,
    DROP,
    ERASE_FAIL,
    NULL_INJECTOR,
    PARTITION,
    PROGRAM_FAIL,
    READ_UNCORRECTABLE,
    STALL,
    FaultEvent,
    FaultInjector,
    FaultRule,
    NullFaultInjector,
    ScheduledFault,
)
from repro.faults.plan import FaultPlan
from repro.faults.retry import (
    RetryPolicy,
    defuse_on_failure,
    race_with_timeout,
)

__all__ = [
    "BROWNOUT",
    "CRASH",
    "DELAY",
    "DROP",
    "ERASE_FAIL",
    "NULL_INJECTOR",
    "PARTITION",
    "PROGRAM_FAIL",
    "READ_UNCORRECTABLE",
    "STALL",
    "FaultEvent",
    "FaultInjectionError",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "NullFaultInjector",
    "RetryPolicy",
    "ScheduledFault",
    "TransientFault",
    "defuse_on_failure",
    "race_with_timeout",
]
