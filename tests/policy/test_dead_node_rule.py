"""End-to-end: a SWIM-confirmed node death drives a policy rule.

The chain under test spans three planes: the controller group's
failure detector confirms a watched storage node dead, the
``cluster.membership.dead`` gauge rises through observability, a
:class:`~repro.policy.signals.MetricSignal` rule on it crosses its band,
and :class:`~repro.policy.actions.TriggerRebalance` re-spreads load
across the survivors.
"""

from repro.cluster import (
    ClusterController,
    ControllerGroup,
    Network,
    SwimConfig,
    build_sdf_server,
)
from repro.kv.slice import KeyRange
from repro.obs import Observability
from repro.policy import (
    Hysteresis,
    MetricSignal,
    PolicyPlan,
    Rule,
    TriggerRebalance,
)
from repro.sim import MS, Simulator

VALUE = b"p" * 4096
FAST = SwimConfig(
    period_ns=10 * MS,
    ping_timeout_ns=2 * MS,
    ping_req_fanout=1,
    suspect_timeout_ns=40 * MS,
)


def dead_node_rule():
    return Rule(
        name="dead_node",
        signal=MetricSignal("cluster.membership.dead"),
        hysteresis=Hysteresis(upper=1.0, lower=0.5),
        action=TriggerRebalance(imbalance=1.5),
        cooldown_ns=10_000 * MS,  # one shot per death in this run
    )


def make_scenario():
    sim = Simulator()
    network = Network(sim)
    ctrl = ClusterController(sim, network)
    obs = Observability()
    for name in ("n0", "n1", "n2"):
        ctrl.add_node(
            name,
            build_sdf_server(sim, [], capacity_scale=0.01, n_channels=4),
        )
    # Two hot slices on n0, one quiet one on n1, n2 empty and cold --
    # after n1 dies, the only useful move is n0 -> n2.
    sids = [
        ctrl.create_slice(KeyRange(0, 1_000), on=["n0"]),
        ctrl.create_slice(KeyRange(1_000, 2_000), on=["n0"]),
        ctrl.create_slice(KeyRange(2_000, 3_000), on=["n1"]),
    ]
    group = ControllerGroup(
        sim, network, ctrl, n_replicas=3, swim=FAST, seed=3
    )
    obs.attach(group)
    group.watch_nodes()
    plan = PolicyPlan(rules=(dead_node_rule(),), period_ns=10 * MS)
    obs.attach(plan)
    plan.attach(ctrl)
    return sim, ctrl, group, obs, plan, sids


def load(sim, ctrl):
    def _fill():
        for key in range(0, 60):
            yield from ctrl.node("n0").handle_put(key, VALUE)
        for key in range(1_000, 1_030):
            yield from ctrl.node("n0").handle_put(key, VALUE)
        for key in range(2_000, 2_005):
            yield from ctrl.node("n1").handle_put(key, VALUE)

    sim.run(until=sim.process(_fill()))


def test_confirmed_node_death_triggers_rebalance():
    sim, ctrl, group, obs, plan, sids = make_scenario()
    load(sim, ctrl)
    group.start(until_ns=1_000 * MS)
    plan.start(sim, until_ns=1_000 * MS)

    def killer():
        yield sim.timeout(100 * MS)
        ctrl.nodes["n1"].crash()

    sim.process(killer())
    sim.run(until=1_000 * MS)
    # The detector confirmed the death...
    assert group.detector.state(group.leader.name, "n1") == "dead"
    assert group.membership_counts()[2] == 1
    # ...the rule fired on the gauge...
    snap = obs.metrics.snapshot(sim.now)
    assert snap["cluster.membership.dead"] == 1
    assert snap["policy.dead_node.fired"] == 1
    # ...and the rebalance moved one of the hot node's slices to the
    # cold survivor (never to the dead node).
    assert ctrl.rebalance_moves.value == 1
    moved = [
        entry for entry in ctrl.table.entries()
        if entry.replicas == ("n2",)
    ]
    assert len(moved) == 1
    assert moved[0].slice_id in sids[:2]


def test_rule_stays_idle_while_everyone_lives():
    sim, ctrl, group, obs, plan, _sids = make_scenario()
    load(sim, ctrl)
    group.start(until_ns=500 * MS)
    plan.start(sim, until_ns=500 * MS)
    sim.run(until=500 * MS)
    snap = obs.metrics.snapshot(sim.now)
    assert snap["cluster.membership.dead"] == 0
    assert snap.get("policy.dead_node.fired", 0) == 0
    assert ctrl.rebalance_moves.value == 0


def test_signal_reads_default_without_a_group():
    # No controller group attached: the gauge never exists and the
    # signal reads its harmless default, so the rule can ship in every
    # deployment's rulebook.
    sim = Simulator()
    obs = Observability()
    plan = PolicyPlan(rules=(dead_node_rule(),), period_ns=10 * MS)
    obs.attach(plan)
    plan.start(sim, until_ns=100 * MS)
    sim.run()
    snap = obs.metrics.snapshot(sim.now)
    assert snap.get("policy.dead_node.fired", 0) == 0
