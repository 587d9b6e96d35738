"""Sharded scenario execution: byte-identical to in-process, any workers.

The contract under test (see :mod:`repro.sim.shard` and
:func:`repro.workloads.scenarios.run_scenario_sharded`): with a static
control plane, a fleet scenario factors into one independent
sub-simulation per node, and the merged ``ScenarioResult.to_json`` is
byte-identical to the in-process run for *any* worker count -- including
real forked workers racing to fill the result queue.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs.attach import Observability
from repro.qos import AdmissionConfig, BreakerConfig, ChannelQosConfig, QosPlan
from repro.sim.shard import ShardError, run_sharded
from repro.sim.units import MS
from repro.workloads import FaultBurst, run_scenario, run_scenario_sharded
from repro.workloads.scenarios import ScenarioRunner

from tests.workloads.test_scenarios import tiny_scenario, tiny_tenant


def _qos():
    return QosPlan(
        channel=ChannelQosConfig(max_inflight_ops=8),
        admission=AdmissionConfig(max_reads=32, max_writes=16),
        breaker=BreakerConfig(failure_threshold=4, reset_ns=20 * MS),
    )


# --- the headline guarantee -------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sharded_byte_identical_to_in_process(workers):
    """Real forked workers, two tenants, faults and QoS: the merged
    report must be byte-identical to the in-process run."""
    scenario = tiny_scenario(
        tenants=(tiny_tenant("web"), tiny_tenant("bulk", rps=40.0)),
        faults=(
            FaultBurst(node=1, at_ns=20 * MS, duration_ns=10 * MS),
            FaultBurst(node=0, at_ns=25 * MS, duration_ns=5 * MS),
        ),
    )
    base = run_scenario(scenario, qos=_qos())
    sharded = run_scenario_sharded(scenario, workers, qos=_qos())
    assert sharded.to_json() == base.to_json()


def test_sharded_merged_fault_log_matches_chronology():
    """With tie-free timestamps the merged fault log reproduces the
    in-process chronology exactly; with ties it is still deterministic
    (ordered by node) and the same multiset of events."""
    # Distinct fire and recovery instants: no cross-node ties.
    scenario = tiny_scenario(
        faults=(
            FaultBurst(node=1, at_ns=20 * MS, duration_ns=10 * MS),
            FaultBurst(node=0, at_ns=25 * MS, duration_ns=7 * MS),
        ),
    )
    runner = ScenarioRunner(scenario, obs=Observability())
    runner.run()
    merged = run_scenario_sharded(scenario, 2).snapshot["faults.merged_log"]
    assert merged == [tuple(s) for s in runner.plan.signatures()]

    # Simultaneous recoveries: cross-shard ties have no causal order, so
    # the merger breaks them by stream -- deterministically.
    tied = tiny_scenario(
        faults=(
            FaultBurst(node=1, at_ns=20 * MS, duration_ns=10 * MS),
            FaultBurst(node=0, at_ns=25 * MS, duration_ns=5 * MS),
        ),
    )
    logs = [
        run_scenario_sharded(tied, workers).snapshot["faults.merged_log"]
        for workers in (1, 2)
    ]
    assert logs[0] == logs[1]
    times = [event[2] for event in logs[0]]
    assert times == sorted(times)


def test_sharded_rejects_dynamic_control_plane():
    from repro.policy import Hysteresis, PolicyPlan, Rule
    from repro.policy.actions import SetAdmission
    from repro.policy.signals import MetricSignal

    with pytest.raises(ConfigError):
        run_scenario_sharded(tiny_scenario(rebalance_every_ns=20 * MS), 2)

    active = PolicyPlan(
        rules=(
            Rule(
                name="tighten",
                signal=MetricSignal("qos.n0.shed_reads"),
                hysteresis=Hysteresis(upper=1.0, lower=0.0),
                action=SetAdmission(max_reads=1, max_writes=1),
            ),
        )
    )
    with pytest.raises(ConfigError):
        run_scenario_sharded(tiny_scenario(), 2, policy=active)
    # An *empty* plan is the documented no-op and stays eligible.
    result = run_scenario_sharded(tiny_scenario(), 2, policy=PolicyPlan())
    assert result.tenants["web"].offered > 0


def test_only_node_validation():
    with pytest.raises(ConfigError):
        ScenarioRunner(tiny_scenario(), only_node=9)


# --- worker-count invariance as a property ----------------------------------


@st.composite
def _shard_configs(draw):
    n_nodes = draw(st.integers(min_value=1, max_value=3))
    n_slices = draw(st.integers(min_value=n_nodes, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rps = draw(st.sampled_from([40.0, 90.0]))
    with_fault = draw(st.booleans())
    faults = (
        (FaultBurst(node=n_nodes - 1, at_ns=10 * MS, duration_ns=8 * MS),)
        if with_fault
        else ()
    )
    return dict(
        n_nodes=n_nodes,
        n_slices=n_slices,
        seed=seed,
        duration_ns=30 * MS,
        tenants=(tiny_tenant(rps=rps),),
        faults=faults,
    )


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=_shard_configs(), workers=st.integers(min_value=1, max_value=5))
def test_worker_count_never_changes_observables(config, workers):
    """Property: for any eligible scenario, the worker count used to run
    the shards never changes a single observable byte."""
    scenario = tiny_scenario(**config)
    # Inline single-worker run as the canonical merged result; the drawn
    # worker count (with real processes when > 1) must reproduce it.
    canonical = run_scenario_sharded(scenario, 1)
    probed = run_scenario_sharded(scenario, workers)
    assert probed.to_json() == canonical.to_json()
    assert (
        probed.snapshot["faults.merged_log"]
        == canonical.snapshot["faults.merged_log"]
    )


# --- the runtime pieces in isolation ----------------------------------------


def test_run_sharded_orders_results_and_surfaces_failures():
    tasks = [lambda value=value: value * value for value in range(7)]
    assert run_sharded(tasks, 3) == [v * v for v in range(7)]
    assert run_sharded(tasks, 1) == [v * v for v in range(7)]

    def boom():
        raise RuntimeError("shard exploded")

    with pytest.raises(ShardError, match="shard exploded"):
        run_sharded([lambda: 1, boom, lambda: 3], 2)
