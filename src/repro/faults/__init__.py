"""repro.faults -- deterministic, seedable fault injection (paper S2.2).

The paper's reliability bet is that host software -- replication,
failover, bad-block remapping, WAL replay -- can absorb every failure
the device no longer hides.  This package is the test substrate for
that bet: a :class:`FaultPlan` describes what goes wrong (probabilistic
rules + scheduled crashes), per-site :class:`FaultInjector` handles are
threaded through the NAND/channel/link/network/node layers behind no-op
defaults, a :class:`FaultRunner` drives scheduled faults, and
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
from repro.faults.runner import FaultRunner
from repro.faults.wire import (
    attach_device_faults,
    attach_network_faults,
    attach_server_faults,
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
    "FaultRunner",
    "NullFaultInjector",
    "RetryPolicy",
    "ScheduledFault",
    "TransientFault",
    "attach_device_faults",
    "attach_network_faults",
    "attach_server_faults",
    "defuse_on_failure",
    "race_with_timeout",
]
