"""Workload generators for the paper's experiments.

* :mod:`~repro.workloads.distributions` -- the request-size mix of the
  production system (web pages 32 KB, thumbnails 128 KB, images 512 KB;
  write sizes 100 KB - 1 MB for Figure 14);
* :mod:`~repro.workloads.keys` -- key-popularity models (uniform,
  zipfian over the full keyspace, hot-set shift) plus the legacy
  key-sequence generators;
* :mod:`~repro.workloads.generators` -- closed-loop device drivers used
  by the microbenchmarks (Table 4, Figures 7-8);
* :mod:`~repro.workloads.arrivals` -- open-loop arrival schedules
  (diurnal waves, flash-crowd spikes, Poisson thinning);
* :mod:`~repro.workloads.tenants` -- YCSB-style operation mixes and
  per-tenant SLO declarations;
* :mod:`~repro.workloads.scenarios` -- seeded fleet-day scenarios that
  drive a multi-node cluster with every plane attached.
"""

from repro.workloads.arrivals import (
    ArrivalStats,
    DiurnalWave,
    OpenLoopArrivals,
    RateSchedule,
    Spike,
)
from repro.workloads.distributions import (
    FIG12_REQUEST_SIZES,
    FIG14_WRITE_SIZES,
    SizeDistribution,
)
from repro.workloads.generators import (
    drive_conventional_reads,
    drive_conventional_writes,
    drive_sdf_reads,
    drive_sdf_writes,
)
from repro.workloads.keys import (
    HotSetShiftKeyModel,
    KeyModel,
    UniformKeyModel,
    ZipfianKeyModel,
    sequential_keys,
    uniform_keys,
    zipfian_keys,
)
from repro.workloads.scenarios import (
    FaultBurst,
    Scenario,
    ScenarioResult,
    ScenarioRunner,
    TenantReport,
    run_scenario,
    run_scenario_sharded,
)
from repro.workloads.tenants import (
    OP_KINDS,
    YCSB_A,
    YCSB_B,
    YCSB_C,
    YCSB_E,
    OpMix,
    SloSpec,
    TenantSpec,
)

__all__ = [
    "SizeDistribution",
    "FIG12_REQUEST_SIZES",
    "FIG14_WRITE_SIZES",
    "KeyModel",
    "UniformKeyModel",
    "ZipfianKeyModel",
    "HotSetShiftKeyModel",
    "sequential_keys",
    "uniform_keys",
    "zipfian_keys",
    "DiurnalWave",
    "Spike",
    "RateSchedule",
    "OpenLoopArrivals",
    "ArrivalStats",
    "OP_KINDS",
    "OpMix",
    "YCSB_A",
    "YCSB_B",
    "YCSB_C",
    "YCSB_E",
    "SloSpec",
    "TenantSpec",
    "FaultBurst",
    "Scenario",
    "ScenarioResult",
    "ScenarioRunner",
    "TenantReport",
    "run_scenario",
    "run_scenario_sharded",
    "drive_sdf_reads",
    "drive_sdf_writes",
    "drive_conventional_reads",
    "drive_conventional_writes",
]
