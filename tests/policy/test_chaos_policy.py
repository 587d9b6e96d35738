"""Chaos tier for the policy plane: the plan stays live and correct
while the cluster it steers crashes and browns out underneath it.

A three-node cluster with durable WALs runs a bursty write stream while
two rules (tighten admission on write-rate spikes, relax on lulls) fire
throughout.  Mid-run, one node fail-stops and another browns out via
scheduled FaultBursts.  The contracts:

* **zero acked-write loss** -- every write acknowledged to the driver is
  readable after the faults heal, including writes acked just before
  the crash (durable-WAL replay covers them);
* **rules keep firing** -- the fire log shows activity both before the
  crash and after the restart; the plan never wedges on a dead node;
* **determinism** -- two runs under the same ``CHAOS_SEED`` produce the
  identical fire log, acked-write model and fault signatures.

The unmarked test is the tier-1 smoke; the ``chaos``-marked ones run
the same harness longer under the CI seed matrix (``CHAOS_SEED``).
"""

import os

import numpy as np
import pytest

from repro.cluster.control import ClusterController
from repro.cluster.network import Network
from repro.cluster.node import build_sdf_server
from repro.errors import TransientFault
from repro.faults import BROWNOUT, CRASH, FaultPlan
from repro.kv.slice import KeyRange
from repro.obs import Observability
from repro.policy import (
    DeltaRateSignal,
    Hysteresis,
    PolicyPlan,
    Rule,
    ScaleAdmission,
    SetAdmission,
)
from repro.qos import AdmissionConfig, QosPlan
from repro.sim import MS, S, Simulator

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

SPAN = 3_000
CRASH_AT_NS = 30 * MS
CRASH_NS = 20 * MS
BROWNOUT_AT_NS = 80 * MS
BROWNOUT_NS = 30 * MS
#: Bursty writes: BURST_NS on, BURST_NS off, so the acked-write rate
#: oscillates through the rules' hysteresis bands all run long.
BURST_NS = 15 * MS
OPS_PER_BURST = 30
MAX_ATTEMPTS = 8


def make_rules():
    """Tighten on write-rate spikes, relax on lulls."""
    acked_rate = DeltaRateSignal("chaos.acked")
    return (
        Rule(
            name="tighten",
            signal=acked_rate,
            # Raised above 400 acked/s; re-armed once the burst ends.
            hysteresis=Hysteresis(upper=400.0, lower=100.0),
            action=ScaleAdmission(write=0.5, read=0.5, floor=4),
            cooldown_ns=10 * MS,
        ),
        Rule(
            name="relax",
            signal=acked_rate,
            # Falling-edge mirror: fire when the rate drops to ~zero.
            hysteresis=Hysteresis(
                upper=400.0, lower=50.0, direction="below"
            ),
            action=SetAdmission(max_reads=64, max_writes=64),
            cooldown_ns=10 * MS,
        ),
    )


def run_policy_chaos(seed, n_bursts=4):
    """One seeded crash+brownout run; returns everything asserts need."""
    sim = Simulator()
    obs = Observability()
    plan = FaultPlan(seed=seed)
    qos = QosPlan(admission=AdmissionConfig(max_reads=64, max_writes=64))
    policy = PolicyPlan(rules=make_rules(), period_ns=5 * MS, seed=seed)
    ctrl = ClusterController(sim, Network(sim))
    obs.attach(ctrl)
    plan.attach(ctrl)
    qos.attach(ctrl)
    policy.attach(ctrl)
    obs.attach(policy)
    for index in range(3):
        name = f"n{index}"
        server = build_sdf_server(
            sim, [], capacity_scale=0.01, n_channels=4
        )
        ctrl.add_node(name, server)
        obs.attach(server)
        plan.attach(server, name)
        qos.attach(server, name)
        policy.attach(server, name)
    for index in range(3):
        ctrl.create_slice(
            KeyRange(index * SPAN // 3, (index + 1) * SPAN // 3),
            on=[f"n{index}"],
            memtable_bytes=64 * 1024,
            enable_wal=True,
            durable_wal=True,
        )
    plan.schedule("n1", CRASH, at_ns=CRASH_AT_NS, duration_ns=CRASH_NS)
    plan.schedule(
        "n2",
        BROWNOUT,
        at_ns=BROWNOUT_AT_NS,
        duration_ns=BROWNOUT_NS,
        multiplier=20.0,
    )
    plan.start()
    duration_ns = n_bursts * 2 * BURST_NS + BROWNOUT_AT_NS + BROWNOUT_NS
    policy.start(sim, until_ns=duration_ns)

    model = {}  # key -> last *acknowledged* value
    rng = np.random.default_rng(seed)
    metrics = obs.metrics

    def one_put(key, value):
        """Bounded-retry put; records the ack into the model."""
        view = ctrl.view()
        for attempt in range(MAX_ATTEMPTS):
            if attempt > 0:
                backoff = (2 * MS) << (attempt - 1)
                yield sim.timeout(int(backoff * (1.0 + rng.random())))
                view.refresh()
            try:
                server, entry = view.lookup(key)
                yield from server.handle_put(
                    key, value, epoch=entry.epoch
                )
            except (TransientFault, KeyError):
                continue
            model[key] = value
            metrics.counter("chaos.acked").add(1)
            return

    def driver():
        seq = 0
        for burst in range(n_bursts):
            burst_start = sim.now
            for op in range(OPS_PER_BURST):
                key = (burst * 17 + op * 97) % SPAN
                value = f"{key}:{seq}".encode().ljust(512, b".")
                seq += 1
                sim.process(one_put(key, value))
                gap = BURST_NS // OPS_PER_BURST
                yield sim.timeout(gap)
            idle = 2 * BURST_NS - (sim.now - burst_start)
            if idle > 0:
                yield sim.timeout(idle)

    sim.run(until=sim.process(driver()))
    # Drain: retries, WAL replay, the brownout window, policy ticks.
    sim.run(until=max(sim.now, duration_ns) + S)
    sim.run()

    final = {}

    def verify():
        view = ctrl.view()
        for key in sorted(model):
            server, entry = view.lookup(key)
            final[key] = yield from server.handle_get(
                key, epoch=entry.epoch
            )

    sim.run(until=sim.process(verify()))
    digest = (
        sim.now,
        tuple(policy.fire_log),
        tuple(sorted(model.items())),
        tuple(sorted(final.items())),
        tuple(plan.signatures()),
    )
    return {
        "sim": sim,
        "obs": obs,
        "plan": plan,
        "policy": policy,
        "ctrl": ctrl,
        "model": model,
        "final": final,
        "digest": digest,
    }


def _assert_invariants(run):
    # Zero acknowledged-write loss across crash + WAL replay + brownout.
    assert run["final"] == run["model"]
    assert len(run["model"]) > 0
    # Both faults ran their course.
    plan = run["plan"]
    assert plan.fault_count("n1", CRASH) == 1
    assert plan.fault_count("n2", BROWNOUT) == 1
    servers = run["ctrl"].nodes
    assert servers["n1"].up and servers["n1"].restarts == 1
    assert servers["n2"].slowdown == 1.0
    # Rules fired on both sides of the crash window: the plan never
    # wedged on the dead node.
    policy = run["policy"]
    fire_times = [at for at, _name in policy.fire_log]
    assert any(at < CRASH_AT_NS for at in fire_times)
    assert any(at > CRASH_AT_NS + CRASH_NS for at in fire_times)
    # Both directions of the control loop ran.
    assert policy.fires("tighten") >= 1
    assert policy.fires("relax") >= 1


def test_policy_chaos_smoke_zero_acked_write_loss():
    run = run_policy_chaos(seed=11, n_bursts=4)
    _assert_invariants(run)
    # The plan's own activity surfaced through repro.obs.
    snap = run["obs"].metrics.snapshot(run["sim"].now)
    assert snap["policy.tighten.fired"] == run["policy"].fires("tighten")
    assert snap["policy.relax.fired"] == run["policy"].fires("relax")


@pytest.mark.chaos
def test_chaos_tier_policy_seeded_run():
    run = run_policy_chaos(seed=CHAOS_SEED, n_bursts=8)
    _assert_invariants(run)


@pytest.mark.chaos
def test_chaos_tier_policy_determinism_under_seed():
    a = run_policy_chaos(seed=CHAOS_SEED, n_bursts=6)
    b = run_policy_chaos(seed=CHAOS_SEED, n_bursts=6)
    assert a["digest"] == b["digest"]
