"""repro -- reproduction of *SDF: Software-Defined Flash* (ASPLOS 2014).

The package implements, in pure Python:

* a discrete-event simulation kernel (:mod:`repro.sim`);
* a NAND flash substrate with datasheet timing (:mod:`repro.nand`,
  :mod:`repro.channel`), BCH ECC (:mod:`repro.ecc`) and FTLs
  (:mod:`repro.ftl`);
* the SDF device and its conventional-SSD baselines
  (:mod:`repro.devices`);
* the paper's host-software contribution -- the user-space block layer
  and schedulers (:mod:`repro.core`);
* the CCDB LSM-tree KV store and cluster/workload models the evaluation
  runs on (:mod:`repro.kv`, :mod:`repro.cluster`, :mod:`repro.workloads`);
* analytic models for capacity, cost and reliability
  (:mod:`repro.analysis`);
* four opt-in planes -- observability (:mod:`repro.obs`), deterministic
  fault injection (:mod:`repro.faults`), overload protection
  (:mod:`repro.qos`) and self-tuning (:mod:`repro.policy`) -- each
  attaching itself to an already-built component
  (``plane.attach(target)``) behind no-op defaults.

Quickstart::

    from repro import build_sdf_system

    system = build_sdf_system()
    block = system.block_layer.allocate()
    system.block_layer.write(block, b"hello" * 100)
    assert system.block_layer.read(block, 0, 500) == b"hello" * 100
"""

from repro._version import __version__
from repro.core.api import (
    SDFSystem,
    build_conventional_ssd,
    build_sdf_system,
)
from repro.errors import (
    ClusterError,
    PermanentFault,
    ReproError,
    StorageFullError,
    TransientFault,
    WrongEpochError,
)

__all__ = [
    "__version__",
    "SDFSystem",
    "build_sdf_system",
    "build_conventional_ssd",
    "ReproError",
    "TransientFault",
    "PermanentFault",
    "ClusterError",
    "WrongEpochError",
    "StorageFullError",
]
