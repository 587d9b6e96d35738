"""The storage-cluster model (paper S3.1 / Table 2).

Client nodes send synchronous, optionally batched KV requests over
10 GbE to a storage server hosting CCDB slices, one patch per write
unit of whatever device is underneath.  This is the testbed every
production-system experiment (Figures 10-14) runs on.

* :mod:`~repro.cluster.network` -- NIC/switch bandwidth model;
* :mod:`~repro.cluster.storage` -- the timed :class:`PatchStore`
  binding slices to any device through a claim / write / read / free
  extent backend (SDF blocks, zones, LPN extents);
* :mod:`~repro.cluster.node` -- the storage server: request fan-out,
  slice routing, background patch flushing and compaction;
* :mod:`~repro.cluster.client` -- closed-loop clients (one per slice,
  as in the paper's experiments);
* :mod:`~repro.cluster.replication` -- the system-level replication that
  replaces on-device parity (S2.2);
* :mod:`~repro.cluster.control` -- the control plane: versioned
  routing, elastic membership, online slice migration and split/merge;
* :mod:`~repro.cluster.membership` -- the fault-tolerant control
  plane: SWIM failure detection, leader election and leadership
  fencing over replicated controller state.
"""

from repro.cluster.client import (
    BatchSpec,
    KVClient,
    RequestAbandonedError,
    run_clients,
)
from repro.cluster.control import (
    MIGRATION_ABORT,
    MIGRATION_PHASES,
    MIGRATION_SITE,
    ClusterController,
    MigrationError,
    RoutingTable,
    RoutingView,
    SliceLocation,
)
from repro.cluster.membership import (
    ControllerFencedError,
    ControllerGroup,
    ControllerLease,
    ControllerReplica,
    ControllerReplicationError,
    ControllerUnavailableError,
    MigrationRecord,
    SwimConfig,
    SwimDetector,
)
from repro.cluster.network import (
    MessageDroppedError,
    Network,
    NetworkPartitionedError,
    Nic,
    TEN_GBE_MB_S,
)
from repro.cluster.node import (
    NodeDownError,
    SERVER_CONFIG,
    StorageServer,
    build_conventional_server,
    build_sdf_server,
    build_storage_server,
)
from repro.cluster.replication import (
    ReplicatedKV,
    ReplicaReadError,
    ReplicaWriteError,
)
from repro.cluster.storage import PatchStore

__all__ = [
    "Nic",
    "Network",
    "TEN_GBE_MB_S",
    "MessageDroppedError",
    "NetworkPartitionedError",
    "ControllerFencedError",
    "ControllerGroup",
    "ControllerLease",
    "ControllerReplica",
    "ControllerReplicationError",
    "ControllerUnavailableError",
    "MigrationRecord",
    "SwimConfig",
    "SwimDetector",
    "PatchStore",
    "StorageServer",
    "SERVER_CONFIG",
    "NodeDownError",
    "build_sdf_server",
    "build_conventional_server",
    "build_storage_server",
    "KVClient",
    "BatchSpec",
    "RequestAbandonedError",
    "run_clients",
    "ReplicatedKV",
    "ReplicaReadError",
    "ReplicaWriteError",
    "ClusterController",
    "MigrationError",
    "RoutingTable",
    "RoutingView",
    "SliceLocation",
    "MIGRATION_ABORT",
    "MIGRATION_PHASES",
    "MIGRATION_SITE",
]
