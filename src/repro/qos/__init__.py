"""repro.qos -- overload protection for web-scale traffic (ROADMAP north
star; RackBlox/LFTL in PAPERS.md make the case that overload behaviour
must be engineered per layer, not inherited).

The plane bounds queues and sheds doomed work at every level of the
stack, each mechanism individually opt-in through a :class:`QosPlan`:

* **channel backpressure** -- per-channel admitted-op bounds in
  :class:`~repro.channel.engine.ChannelEngine` and per-channel write
  slots in :class:`~repro.core.block_layer.UserSpaceBlockLayer`;
* **write stalls** -- RocksDB-style stall/stop thresholds on LSM flush
  backlog and level-0 run count, gated in the server's put path;
* **admission control** -- per-class (read/write/scan) inflight limits
  with deadline-aware shedding at the storage server;
* **circuit breaking + deadline budgets** -- client-side per-node
  breakers and a total retry budget, so retries stop amplifying
  brownouts.

Same discipline as :mod:`repro.faults`: ``QosPlan.attach`` wires a plan
into a built device, block layer, system, server or controller, and an
unconfigured run is byte-identical to a run with no plan attached (no
attribute changes, no metric registration, no extra events).
"""

from repro.qos.admission import (
    REQUEST_CLASSES,
    AdmissionController,
    DeadlineExceededError,
    RequestSheddedError,
)
from repro.qos.breaker import BreakerState, CircuitBreaker, CircuitOpenError
from repro.qos.config import (
    AdmissionConfig,
    BreakerConfig,
    ChannelQosConfig,
    MigrationConfig,
    QosPlan,
    WriteStallConfig,
)
from repro.qos.limits import BlockWriteLimiter, ChannelQosState

__all__ = [
    "REQUEST_CLASSES",
    "AdmissionConfig",
    "AdmissionController",
    "BlockWriteLimiter",
    "BreakerConfig",
    "BreakerState",
    "ChannelQosConfig",
    "ChannelQosState",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceededError",
    "MigrationConfig",
    "QosPlan",
    "RequestSheddedError",
    "WriteStallConfig",
]
