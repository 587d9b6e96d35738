"""Fleet schedules held fixed: the request path above the channel
engine is continuation objects, and three small fleets must come out
as they did when every arrival, get and put was a simulator process.

Each digest (``tests/channel/golden_schedule.json``, ``fleet/*``) was
recorded from the process-per-request request path and covers the
report, every per-tenant latency sample and the fault log.  The event
count is not in it: the kernel schedules exactly one event fewer per
request and per tenant's arrival stream -- the completion events nothing
waited on -- which is asserted on its own against the count that path
had.
"""

import pytest

from repro.qos import (
    AdmissionConfig,
    BreakerConfig,
    ChannelQosConfig,
    QosPlan,
    WriteStallConfig,
)
from repro.sim.units import KIB, MS
from repro.workloads import (
    YCSB_A,
    YCSB_E,
    FaultBurst,
    RateSchedule,
    ScenarioRunner,
    SizeDistribution,
    SloSpec,
    TenantSpec,
    UniformKeyModel,
)
from tests.channel.golden import check_golden
from tests.workloads.test_scenarios import SPAN, tiny_scenario, tiny_tenant

#: ``sim._seq`` at the end of each fleet when every request and each
#: tenant's arrival stream was a process (bootstrap and completion
#: event each).
PROCESS_PATH_EVENTS = {
    "crash_brownout_migration": 13_138,
    "link_drop": 2_247,
    "overload": 54_346,
}


def _crash_brownout_migration():
    scenario = tiny_scenario(
        tenants=(
            tiny_tenant("web", rps=1500.0),
            tiny_tenant("bulk", rps=500.0),
        ),
        duration_ns=80 * MS,
        n_nodes=3,
        n_slices=6,
        faults=(
            FaultBurst(node=1, at_ns=20 * MS, duration_ns=15 * MS),
            FaultBurst(
                node=2, at_ns=30 * MS, duration_ns=10 * MS,
                kind="brownout", multiplier=10.0,
            ),
        ),
    )
    runner = ScenarioRunner(
        scenario,
        qos=QosPlan(
            channel=ChannelQosConfig(max_inflight_ops=4),
            admission=AdmissionConfig(max_reads=32, max_writes=16),
            write_stall=WriteStallConfig(),
            breaker=BreakerConfig(failure_threshold=4, reset_ns=20 * MS),
        ),
    )
    sim = runner.sim

    def planned_migration():
        yield sim.timeout(10 * MS)
        yield from runner.ctrl.migrate_slice(3, "n0", "n2")

    sim.process(planned_migration())
    return runner


def _link_drop():
    runner = ScenarioRunner(
        tiny_scenario(
            tenants=(tiny_tenant("web", rps=2000.0),), duration_ns=60 * MS
        )
    )
    # Read DMAs only: a dropped page fails its get mid-flight, after
    # the other pages of the read were reserved.
    for node in ("n0", "n1"):
        runner.plan.add(
            f"{node}.link", "drop", rate=0.02, where={"direction": "read"}
        )
    return runner


def _overload():
    scanner = TenantSpec(
        name="scan",
        mix=YCSB_E,
        keys=UniformKeyModel(0, SPAN),
        sizes=SizeDistribution(fixed=8 * KIB),
        arrivals=RateSchedule(base_rps=300.0),
        slo=SloSpec(deadline_ns=30 * MS),
        scan_span=16,
    )
    writer = TenantSpec(
        name="bulk",
        mix=YCSB_A,
        keys=UniformKeyModel(0, SPAN),
        sizes=SizeDistribution(lo=8 * KIB, hi=64 * KIB),
        arrivals=RateSchedule(base_rps=1500.0),
        slo=SloSpec(deadline_ns=4 * MS),
    )
    scenario = tiny_scenario(
        tenants=(tiny_tenant("web", rps=4000.0), scanner, writer),
        duration_ns=50 * MS,
        memtable_bytes=128 * KIB,
    )
    return ScenarioRunner(
        scenario,
        qos=QosPlan(
            channel=ChannelQosConfig(max_inflight_ops=2),
            admission=AdmissionConfig(max_reads=4, max_writes=4, max_scans=2),
            write_stall=WriteStallConfig(),
            breaker=BreakerConfig(failure_threshold=8, reset_ns=10 * MS),
        ),
    )


def _crashed_and_migrated(runner, result):
    assert result.faults_fired == 2 and result.migrations_completed == 1
    assert sum(report.retries for report in result.tenants.values()) > 0


def _dropped(runner, result):
    assert runner.plan.fault_count(kind="drop") > 0
    assert result.tenants["web"].retries > 0


def _overloaded(runner, result):
    snapshot = result.snapshot
    assert snapshot["qos.n0.shed_reads"] and snapshot["qos.n0.shed_scans"]
    assert snapshot["qos.n1.shed_deadline"]
    reports = result.tenants
    assert all(report.shed and report.retries for report in reports.values())
    # Scans are served (late, behind 8 MB patch reads) as well as shed.
    assert reports["scan"].late > 0


#: name -> (build, what the run must have exercised).
FLEETS = {
    "crash_brownout_migration": (_crash_brownout_migration, _crashed_and_migrated),
    "link_drop": (_link_drop, _dropped),
    "overload": (_overload, _overloaded),
}


def _signature(runner, result):
    samples = {
        tenant.name: list(
            runner.obs.metrics.histogram(
                f"tenant.{tenant.name}.request_ns"
            ).samples
        )
        for tenant in runner.scenario.tenants
    }
    return [result.to_json(), samples, runner.plan.signatures()]


@pytest.mark.parametrize("name", sorted(FLEETS))
def test_fleet_schedule_matches_the_process_path(name):
    build, exercised = FLEETS[name]
    runner = build()
    result = runner.run()
    exercised(runner, result)
    check_golden(f"fleet/{name}", _signature(runner, result))
    offered = sum(report.offered for report in result.tenants.values())
    streams = len(runner.scenario.tenants)
    assert runner.sim._seq == PROCESS_PATH_EVENTS[name] - (offered + streams)
