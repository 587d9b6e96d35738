"""Leader election and leadership fencing in the controller group.

Bully-with-quorum: the lowest-rank live replica that has confirmed the
leader dead campaigns at a fresh term; a majority of votes is required,
so a minority partition can never elect, and a deposed leader is fenced
out of routing publishes and node commands.
"""

import pytest

from repro.cluster import (
    ClusterController,
    ControllerFencedError,
    ControllerGroup,
    ControllerUnavailableError,
    Network,
    SwimConfig,
    build_sdf_server,
)
from repro.errors import WrongEpochError
from repro.obs import Observability
from repro.sim import MS, Simulator

FAST = SwimConfig(
    period_ns=10 * MS,
    ping_timeout_ns=2 * MS,
    ping_req_fanout=1,
    suspect_timeout_ns=40 * MS,
)


def make_group(n_replicas=3, seed=0, nodes=1, obs=None):
    sim = Simulator()
    net = Network(sim)
    ctrl = ClusterController(sim, net)
    for i in range(nodes):
        ctrl.add_node(f"n{i}", build_sdf_server(sim, [], capacity_scale=0.01))
    group = ControllerGroup(
        sim, net, ctrl, n_replicas=n_replicas, swim=FAST, seed=seed
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


def test_leader_crash_elects_next_rank_at_higher_term():
    sim, _net, ctrl, group = make_group()
    at(sim, 50 * MS, group.replica("ctl0").crash)
    group.start(until_ns=500 * MS)
    sim.run()
    assert group.leader is group.replica("ctl1")
    assert group.term == 2
    assert group.elections.value == 1
    # The winner announced the term to its live peer...
    assert group.replica("ctl2").term == 2
    # ...and fenced the storage node.
    assert ctrl.nodes["n0"].controller_term == 2
    assert group.fences.value == 1
    kinds = [e[3] for e in group.events]
    assert "elect" in kinds


def test_minority_partition_cannot_elect():
    sim, net, _ctrl, group = make_group()
    # Cut ctl2 (a one-replica minority) away from both peers.
    at(sim, 50 * MS, lambda: net.begin_partition("ctl2", ("ctl0", "ctl1")))
    group.start(until_ns=600 * MS)
    sim.run()
    # ctl2 confirmed both peers dead -- but its own view shows no
    # quorum, so the pre-vote guard keeps it from even opening a
    # round (which would inflate its term and depose the healthy
    # leader at heal time).
    assert group.detector.state("ctl2", "ctl0") == "dead"
    assert group.election_rounds.value == 0
    assert group.elections.value == 0
    assert group.leader is group.replica("ctl0")
    assert group.term == 1


def test_partitioned_leader_is_deposed_and_fenced():
    sim, net, ctrl, group = make_group()
    lease = group.open_lease(slice_id=0)
    assert lease.replica is group.replica("ctl0") and lease.term == 1
    at(sim, 50 * MS, lambda: net.begin_partition("ctl0", ("ctl1", "ctl2")))
    group.start(until_ns=600 * MS)
    sim.run()
    # The majority side elected ctl1; the old leader is still up but
    # holds a stale term.
    assert group.leader is group.replica("ctl1")
    assert group.term == 2
    assert group.replica("ctl0").up
    # Its pre-partition lease may no longer publish routing...
    with pytest.raises(ControllerFencedError):
        group.fence_publish(lease)
    # ...and the fenced storage node rejects its commands outright.
    with pytest.raises(WrongEpochError):
        ctrl.nodes["n0"].fence_controller(lease.term)


def test_terms_are_monotonic_across_successive_failures():
    sim, _net, _ctrl, group = make_group()
    ctl0 = group.replica("ctl0")
    # ctl0 crashes (ctl1 takes term 2), rejoins as a follower, then
    # wins the next election when ctl1 dies -- at a strictly higher
    # term, even though ctl0 slept through term 2's announcement.
    at(sim, 50 * MS, ctl0.crash)
    at(sim, 300 * MS, lambda: sim.process(ctl0.restart()))
    at(sim, 600 * MS, group.replica("ctl1").crash)
    group.start(until_ns=1500 * MS)
    sim.run()
    assert group.leader is ctl0
    assert group.term == 3
    assert group.elections.value == 2


def test_lone_survivor_cannot_elect_itself():
    sim, _net, _ctrl, group = make_group()
    at(sim, 50 * MS, group.replica("ctl0").crash)
    at(sim, 400 * MS, group.replica("ctl1").crash)
    group.start(until_ns=1000 * MS)
    sim.run()
    # ctl1 won term 2 while a quorum existed; after its death the lone
    # ctl2 sees no quorum of live replicas, so it stands by instead of
    # burning election rounds it can never win.
    assert group.elections.value == 1
    assert group.election_rounds.value >= 1
    assert group.leader is group.replica("ctl1")
    assert not group.leader.up


def test_healed_leader_rejoins_as_follower():
    sim, net, _ctrl, group = make_group()
    at(sim, 50 * MS, lambda: net.begin_partition("ctl0", ("ctl1", "ctl2")))
    at(sim, 400 * MS, lambda: net.end_partition("ctl0", ("ctl1", "ctl2")))
    group.start(until_ns=1200 * MS)
    sim.run()
    # After the heal the deposed founder is readmitted (stability gate
    # allowing), but leadership stays with ctl1 -- no flap-back.
    assert group.leader is group.replica("ctl1")
    assert group.term == 2
    assert group.elections.value == 1
    assert group.detector.state("ctl1", "ctl0") == "alive"


def test_open_lease_requires_a_live_leader():
    sim, _net, _ctrl, group = make_group()
    group.replica("ctl0").crash()
    with pytest.raises(ControllerUnavailableError):
        group.open_lease(slice_id=0)


def test_election_metrics_export():
    obs = Observability()
    sim, _net, _ctrl, group = make_group(obs=obs)
    at(sim, 50 * MS, group.replica("ctl0").crash)
    group.start(until_ns=500 * MS)
    sim.run()
    snap = obs.metrics.snapshot(sim.now)
    assert snap["cluster.election.term"] == 2
    assert snap["cluster.election.elections"] == 1
    assert snap["cluster.election.rounds"] >= 1
    assert snap["cluster.election.fences"] == 1


def test_election_replays_byte_identically():
    def run():
        sim, net, _ctrl, group = make_group(seed=5)
        at(sim, 50 * MS, group.replica("ctl0").crash)
        group.start(until_ns=500 * MS)
        sim.run()
        return (
            sim.now,
            tuple(group.events),
            group.term,
            group.leader.name,
            net.messages,
            net.bytes_moved,
        )

    assert run() == run()
