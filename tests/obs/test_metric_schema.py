"""Regression lock on the metric-name schema policy rules key on.

Policy rules reference metrics *by name* (``MetricSignal("tenant.web.
get_ns", field="p99")``), so a rename in the emitting code would
silently sever every rule reading it.  These tests pin the load-bearing
names by driving real requests through a server and asserting the
exact names appear in the registry -- a rename now fails tier-1 loudly
instead of un-wiring deployed policies.

Locked schema:

* ``tenant.{t}.{op}_ns``   -- per-tenant request-latency histograms
* ``tenant.{t}.{op}s``     -- per-tenant request counters
* ``qos.{name}.shed_{cls}s`` / ``qos.{name}.shed_deadline``
* ``qos.{name}.tenant.{t}.shed_{cls}s`` / ``...shed_deadline``
* ``policy.{rule}.{evals,fired,suppressed_*}``
* ``cluster.membership.*`` / ``cluster.election.*`` -- the replicated
  control plane's failure-detector and leadership metrics
* ``device.{kind}.*`` -- the uniform device-zoo metric family every
  backend reports (the ablation tooling diffs kinds by these names)
"""

import pytest

from repro.errors import TransientFault
from repro.kv.common import PlaceholderValue
from repro.kv.lsm import LSMTree
from repro.kv.slice import KeyRange, Slice
from repro.obs import Observability
from repro.qos import AdmissionConfig, QosPlan
from repro.sim import Simulator


def make_server(sim, obs, qos):
    from repro.cluster.node import build_sdf_server

    server = build_sdf_server(
        sim,
        [Slice(0, KeyRange(0, 1_000), lsm=LSMTree(memtable_bytes=64 * 1024))],
        capacity_scale=0.01,
        n_channels=4,
    )
    obs.attach(server)
    qos.attach(server, "n0")
    obs.attach(qos)
    return server


def test_tenant_request_metric_names_are_stable():
    sim = Simulator()
    obs = Observability()
    qos = QosPlan(admission=AdmissionConfig(max_reads=8, max_writes=8))
    server = make_server(sim, obs, qos)

    def drive():
        yield from server.handle_put(
            7, PlaceholderValue(1024), tenant="web"
        )
        yield from server.handle_get(7, tenant="web")

    sim.run(until=sim.process(drive()))
    names = set(obs.metrics.names())
    assert "tenant.web.put_ns" in names
    assert "tenant.web.get_ns" in names
    assert "tenant.web.puts" in names
    assert "tenant.web.gets" in names
    snap = obs.metrics.snapshot(sim.now)
    assert snap["tenant.web.puts"] == 1
    assert snap["tenant.web.gets"] == 1
    assert snap["tenant.web.get_ns"]["count"] == 1


def test_qos_shed_metric_names_are_stable():
    sim = Simulator()
    obs = Observability()
    # One admission slot: a second concurrent get is shed.
    qos = QosPlan(admission=AdmissionConfig(max_reads=1))
    server = make_server(sim, obs, qos)
    sheds = []

    def one_get():
        try:
            yield from server.handle_get(7, tenant="web")
        except TransientFault as exc:
            sheds.append(exc)

    def drive():
        sim.process(one_get())
        sim.process(one_get())
        yield sim.timeout(0)
        # Expired deadline: counted under shed_deadline.
        with pytest.raises(TransientFault):
            yield from server.handle_put(
                8, PlaceholderValue(64), deadline_ns=-1, tenant="web"
            )

    sim.run(until=sim.process(drive()))
    sim.run()
    assert len(sheds) == 1
    names = set(obs.metrics.names())
    assert "qos.n0.shed_reads" in names
    assert "qos.n0.shed_deadline" in names
    assert "qos.n0.tenant.web.shed_reads" in names
    assert "qos.n0.tenant.web.shed_deadline" in names
    snap = obs.metrics.snapshot(sim.now)
    assert snap["qos.n0.shed_reads"] == 1
    assert snap["qos.n0.tenant.web.shed_reads"] == 1
    assert snap["qos.n0.tenant.web.shed_deadline"] == 1


def test_policy_outcome_metric_names_are_stable():
    from repro.policy import Hysteresis, MetricSignal, PolicyPlan, Rule
    from repro.sim import MS

    sim = Simulator()
    obs = Observability()
    plan = PolicyPlan(
        rules=(
            Rule(
                name="tighten",
                signal=MetricSignal("load"),
                hysteresis=Hysteresis(upper=1.0, lower=0.5),
                action=lambda ctx, rng: None,
            ),
        ),
        period_ns=MS,
    )
    obs.attach(plan)
    obs.metrics.gauge("load").set(5.0)
    plan.start(sim, until_ns=3 * MS)
    sim.run()
    names = set(obs.metrics.names())
    assert "policy.tighten.evals" in names
    assert "policy.tighten.fired" in names
    assert "policy.tighten.suppressed_hysteresis" in names


def test_device_zoo_metric_names_are_stable():
    """Every registered backend publishes exactly the same metric-key
    family under its own ``device.{kind}.`` prefix -- ablation reports
    and policies diff kinds by these names."""
    from repro.devices import DEVICE_METRIC_KEYS, build_device, device_kinds
    from repro.obs.attach import attach_device

    assert DEVICE_METRIC_KEYS == (
        "write_amplification",
        "host_programs",
        "gc_programs",
        "gc_runs",
        "merges",
        "erases",
        "map_cache_hits",
        "map_cache_misses",
        "map_cache_hit_rate",
    )
    for kind in device_kinds():
        sim = Simulator()
        obs = Observability()
        params = {"capacity_scale": 0.01}
        if kind in ("sdf", "zoned"):
            params["n_channels"] = 2
        device = build_device(kind, sim, **params)
        attach_device(obs, device)
        names = set(obs.metrics.names())
        for key in DEVICE_METRIC_KEYS:
            assert f"device.{kind}.{key}" in names, (kind, key)


def test_membership_and_election_metric_names_are_stable():
    """Dead-node policy rules (and any operator dashboard) key on these
    names; a rename would silently un-wire dead-node rules."""
    from repro.cluster import (
        ClusterController,
        ControllerGroup,
        Network,
        SwimConfig,
        build_sdf_server,
    )
    from repro.sim import MS

    sim = Simulator()
    obs = Observability()
    network = Network(sim)
    ctrl = ClusterController(sim, network)
    ctrl.add_node("n0", build_sdf_server(sim, [], capacity_scale=0.01))
    group = ControllerGroup(
        sim, network, ctrl, n_replicas=3,
        swim=SwimConfig(
            period_ns=10 * MS,
            ping_timeout_ns=2 * MS,
            suspect_timeout_ns=40 * MS,
        ),
    )
    obs.attach(group)
    group.watch_nodes()

    def killer():
        yield sim.timeout(50 * MS)
        group.replica("ctl0").crash()

    sim.process(killer())
    group.start(until_ns=400 * MS)
    sim.run()
    names = set(obs.metrics.names())
    for name in (
        "cluster.membership.pings",
        "cluster.membership.ping_reqs",
        "cluster.membership.suspicions",
        "cluster.membership.refutes",
        "cluster.membership.confirms",
        "cluster.membership.rejoins",
        "cluster.membership.alive",
        "cluster.membership.suspects",
        "cluster.membership.dead",
        "cluster.election.elections",
        "cluster.election.rounds",
        "cluster.election.term",
        "cluster.election.fences",
        "cluster.election.migrations_resolved",
        "cluster.replication.records",
        "cluster.replication.failures",
    ):
        assert name in names, name
    snap = obs.metrics.snapshot(sim.now)
    assert snap["cluster.membership.dead"] == 1  # the crashed leader
    assert snap["cluster.election.term"] == 2
    assert snap["cluster.election.elections"] == 1
