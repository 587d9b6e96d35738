"""SWIM failure detection over the replicated controller group.

Suspect -> confirm timelines, refutation, the rejoin stability gate,
watched storage nodes, metric export, byte-identical determinism, and
the no-drift contract of the inactive (single-replica) group.
"""

import hashlib

import pytest

from repro.cluster import (
    ClusterController,
    ControllerGroup,
    Network,
    SwimConfig,
    build_sdf_server,
)
from repro.cluster.membership import (
    MEMBER_ALIVE,
    MEMBER_DEAD,
    MEMBER_SUSPECT,
)
from repro.obs import Observability
from repro.sim import MS, Simulator

FAST = SwimConfig(
    period_ns=10 * MS,
    ping_timeout_ns=2 * MS,
    ping_req_fanout=1,
    suspect_timeout_ns=40 * MS,
)
#: Hash of ``group.events`` of the seed-7 detection replay, recorded at
#: the last commit before the control plane was refactored.
GOLDEN_EVENTS = "0081693fb34207a9"


def make_group(n_replicas=3, swim=FAST, seed=0, nodes=0, obs=None):
    sim = Simulator()
    net = Network(sim)
    ctrl = ClusterController(sim, net)
    for i in range(nodes):
        ctrl.add_node(f"n{i}", build_sdf_server(sim, [], capacity_scale=0.01))
    group = ControllerGroup(
        sim, net, ctrl, n_replicas=n_replicas, swim=swim, seed=seed
    )
    if obs is not None:
        obs.attach(group)
    group.watch_nodes()
    return sim, net, ctrl, group


def at(sim, when_ns, fn):
    def _driver():
        yield sim.timeout(when_ns)
        fn()

    sim.process(_driver())


def test_crashed_replica_is_suspected_then_confirmed_dead():
    sim, _net, _ctrl, group = make_group()
    at(sim, 50 * MS, group.replica("ctl2").crash)
    group.start(until_ns=400 * MS)
    sim.run()
    for observer in ("ctl0", "ctl1"):
        assert group.detector.state(observer, "ctl2") == MEMBER_DEAD
    kinds = [e[3] for e in group.events if e[2] == "ctl2"]
    assert kinds.index("suspect") < kinds.index("confirm")
    assert group.suspicions.value >= 1
    assert group.confirms.value >= 1
    # Confirmation respects the suspicion window.
    suspect_at = next(
        e[0] for e in group.events if e[2] == "ctl2" and e[3] == "suspect"
    )
    confirm_at = next(
        e[0] for e in group.events if e[2] == "ctl2" and e[3] == "confirm"
    )
    assert confirm_at - suspect_at >= FAST.suspect_timeout_ns


def test_fast_recovery_is_refuted_without_a_confirm():
    sim, _net, _ctrl, group = make_group()
    ctl2 = group.replica("ctl2")
    at(sim, 50 * MS, ctl2.crash)
    at(sim, 70 * MS, lambda: sim.process(ctl2.restart()))
    group.start(until_ns=400 * MS)
    sim.run()
    # The outage (20 ms) sits well inside the 40 ms suspicion window:
    # nobody may confirm it dead, and every view ends alive.
    assert group.confirms.value == 0
    for observer in ("ctl0", "ctl1"):
        assert group.detector.state(observer, "ctl2") == MEMBER_ALIVE


def test_rejoin_waits_out_the_stability_window():
    sim, _net, _ctrl, group = make_group()
    ctl2 = group.replica("ctl2")
    restart_at = 300 * MS
    at(sim, 50 * MS, ctl2.crash)
    at(sim, restart_at, lambda: sim.process(ctl2.restart()))
    group.start(until_ns=900 * MS)
    sim.run()
    assert group.confirms.value >= 1
    assert group.rejoins.value >= 1
    rejoin_at = next(
        e[0] for e in group.events if e[2] == "ctl2" and e[3] == "rejoin"
    )
    # Readmission only after a full stability window of good probes.
    assert rejoin_at - restart_at >= FAST.stable_ns()
    for observer in ("ctl0", "ctl1"):
        assert group.detector.state(observer, "ctl2") == MEMBER_ALIVE


def test_watched_storage_node_death_is_confirmed():
    sim, _net, ctrl, group = make_group(nodes=2)
    assert set(group.watched) == {"n0", "n1"}
    at(sim, 50 * MS, ctrl.nodes["n1"].crash)
    group.start(until_ns=400 * MS)
    sim.run()
    assert group.detector.state(group.leader.name, "n1") == MEMBER_DEAD
    alive, _suspect, dead = group.membership_counts()
    assert dead == 1
    assert alive == 4  # 3 replicas + n0


def test_membership_metrics_export_through_observability():
    obs = Observability()
    sim, _net, ctrl, group = make_group(nodes=1, obs=obs)
    at(sim, 50 * MS, ctrl.nodes["n0"].crash)
    group.start(until_ns=400 * MS)
    sim.run()
    snap = obs.metrics.snapshot(sim.now)
    assert snap["cluster.membership.dead"] == 1
    assert snap["cluster.membership.alive"] == 3
    assert snap["cluster.membership.suspects"] == 0
    assert snap["cluster.membership.pings"] >= 1
    assert snap["cluster.membership.confirms"] >= 1
    assert snap["cluster.election.term"] == 1


def test_detection_replays_byte_identically():
    def run(seed):
        sim, net, _ctrl, group = make_group(seed=seed, nodes=1)
        at(sim, 50 * MS, group.replica("ctl2").crash)
        group.start(until_ns=500 * MS)
        sim.run()
        return (
            sim.now,
            tuple(group.events),
            group.pings.value,
            group.ping_reqs.value,
            net.messages,
            net.bytes_moved,
        )

    first = run(7)
    assert first == run(7)
    # ...and it is the schedule recorded before the control plane was
    # refactored (a hash of ``group.events``).
    events = hashlib.sha256(repr(first[1]).encode()).hexdigest()[:16]
    assert events == GOLDEN_EVENTS
    # ...and the seed actually matters (different probe orders).
    assert run(7)[2:] != run(11)[2:] or run(7)[1] != run(11)[1]


def test_suspect_state_is_visible_between_miss_and_confirm():
    sim, _net, _ctrl, group = make_group()
    group.start(until_ns=400 * MS)
    seen = []

    def sampler():
        yield sim.timeout(50 * MS)
        group.replica("ctl2").crash()
        for _ in range(40):
            yield sim.timeout(5 * MS)
            seen.append(group.detector.state("ctl0", "ctl2"))

    sim.process(sampler())
    sim.run()
    assert MEMBER_SUSPECT in seen
    assert seen[-1] == MEMBER_DEAD


def test_inactive_group_wires_nothing():
    sim, net, ctrl, group = make_group(n_replicas=1, nodes=1)
    assert not group.active
    assert ctrl.group is None  # the controller stays a plain singleton
    group.start(until_ns=400 * MS)
    sim.run()
    assert sim.now == 0  # no processes were ever spawned
    assert net.messages == 0
    assert group.pings.value == 0
    assert group.events == []


def test_group_validates_shape():
    sim = Simulator()
    net = Network(sim)
    ctrl = ClusterController(sim, net)
    with pytest.raises(ValueError):
        ControllerGroup(sim, net, ctrl, n_replicas=0)
    with pytest.raises(ValueError):
        ControllerGroup(sim, net, ctrl, n_replicas=3, quorum=4)
    group = ControllerGroup(sim, net, ctrl, n_replicas=3)
    with pytest.raises(ValueError):
        group.watch("ctl0", object())  # name collides with a replica
    group.start()
    with pytest.raises(RuntimeError):
        group.start()
