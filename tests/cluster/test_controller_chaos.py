"""Chaos tier: membership stability under a flapping partition.

A link that heals and re-cuts faster than the suspicion window is the
classic failure-detector torture test: without a rejoin stability gate
every heal re-admits the member and every re-cut restarts the
suspect/confirm cycle, churning membership (and potentially
leadership) at the flap frequency.  These runs cut a follower away
from its peers on a 40 ms flap cycle -- 30 ms cut, 10 ms heal, well
inside the 40 ms suspicion window -- and require:

* exactly one confirm per observer (no confirm -> rejoin -> confirm
  churn while the link flaps),
* readmission only after the link stays up for a full stability
  window, and
* leadership untouched throughout (no elections, term 1).

Driven by the CI ``CHAOS_SEED`` matrix; every run must replay
byte-identically under its seed.
"""

import os

import pytest

from repro.cluster import (
    ClusterController,
    ControllerGroup,
    Network,
    SwimConfig,
    build_sdf_server,
)
from repro.faults import PARTITION, FaultPlan
from repro.sim import MS, Simulator

#: The CI chaos job sweeps this via the environment; 0 is the default
#: local seed.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

FAST = SwimConfig(
    period_ns=10 * MS,
    ping_timeout_ns=2 * MS,
    ping_req_fanout=1,
    suspect_timeout_ns=40 * MS,
)
FLAPS = 12
FLAP_PERIOD_NS = 40 * MS  # 30 ms cut + 10 ms heal, per cycle
FIRST_CUT_NS = 50 * MS


def flap_run(seed):
    """One deterministic flapping-partition run; returns its digest."""
    sim = Simulator()
    network = Network(sim)
    ctrl = ClusterController(sim, network)
    ctrl.add_node(
        "n0", build_sdf_server(sim, [], capacity_scale=0.01, n_channels=4)
    )
    group = ControllerGroup(
        sim, network, ctrl, n_replicas=3, swim=FAST, seed=seed
    )
    group.watch_nodes()
    plan = FaultPlan(seed=seed)
    for k in range(FLAPS):
        plan.schedule(
            "net",
            PARTITION,
            at_ns=FIRST_CUT_NS + k * FLAP_PERIOD_NS,
            duration_ns=30 * MS,
            a="ctl2",
            b="ctl0,ctl1",
        )
    plan.attach(network).start()
    last_heal = FIRST_CUT_NS + (FLAPS - 1) * FLAP_PERIOD_NS + 30 * MS
    end = last_heal + 600 * MS
    group.start(until_ns=end)
    sim.run(until=end)
    sim.run()  # drain the plan's heal bookkeeping
    return sim, network, group, last_heal


@pytest.mark.chaos
def test_flapping_partition_does_not_churn_membership():
    sim, network, group, last_heal = flap_run(CHAOS_SEED)
    assert not network._cuts  # every cut healed
    assert network.partition_drops > 0  # the flaps actually bit
    for observer in ("ctl0", "ctl1"):
        about = [
            (at, kind)
            for at, obs_, subj, kind in group.events
            if obs_ == observer and subj == "ctl2"
        ]
        confirms = [at for at, kind in about if kind == "confirm"]
        rejoins = [at for at, kind in about if kind == "rejoin"]
        # One confirm when the flapping starts -- and *only* one: the
        # 10 ms heal windows never satisfy the stability gate, so the
        # member cannot oscillate back in mid-flap.
        assert len(confirms) == 1, about
        # Readmitted once, a full stability window after the *final*
        # heal: recovery-verification probing (one probe per period at
        # a recovering member) guarantees every mid-flap cut is
        # observed and resets the gate clock, so no sampling streak
        # can sneak a flapping member back in early.
        assert len(rejoins) == 1, about
        assert rejoins[0] >= last_heal + FAST.stable_ns()
        assert group.detector.state(observer, "ctl2") == "alive"
    # A flapping follower must not shake leadership.
    assert group.elections.value == 0
    assert group.term == 1
    assert group.leader.name == "ctl0"


@pytest.mark.chaos
def test_flapping_partition_replays_byte_identically():
    def digest():
        sim, network, group, _ = flap_run(CHAOS_SEED)
        return (
            sim.now,
            tuple(group.events),
            group.term,
            group.pings.value,
            group.ping_reqs.value,
            group.suspicions.value,
            group.confirms.value,
            group.rejoins.value,
            network.messages,
            network.bytes_moved,
            network.partition_drops,
        )

    assert digest() == digest()
