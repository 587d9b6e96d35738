"""Chaos tier for the QoS plane: a replica browns out (every CPU charge
x200) mid-workload while clients run circuit breakers and a total retry
budget.  The breaker must trip -- converting the brownout from a
retry-amplified stampede into fast local failure -- the behind ledger
must cover writes the sick replica missed, and after the brownout ends
and the heal runs, **zero acknowledged writes may be lost**.

The unmarked test is the tier-1 smoke; the ``chaos``-marked ones run the
same harness longer under the CI seed matrix (``CHAOS_SEED``).
"""

import os

import numpy as np
import pytest

from repro.cluster import ReplicatedKV, build_sdf_server
from repro.faults import BROWNOUT, FaultPlan, RetryPolicy
from repro.kv.lsm import LSMTree
from repro.kv.slice import KeyRange, Slice
from repro.obs import Observability
from repro.qos import BreakerState, CircuitBreaker
from repro.sim import MS, S, Simulator

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

KEYS = [k * 53 for k in range(20)]

#: Brownout geometry: starts a few ops into the run and lasts long
#: enough for the breaker to trip, probe once while the node is still
#: sick, re-trip, and finally reclose against the healed node.
BROWNOUT_AT_NS = 5 * MS
BROWNOUT_NS = 120 * MS
MULTIPLIER = 200.0
#: Client think time between ops, so the workload spans the whole
#: brownout-and-recovery timeline instead of racing past it.
THINK_NS = 2 * MS


def _replica(sim):
    lsm = LSMTree(memtable_bytes=64 * 1024, durable_wal=True)
    return build_sdf_server(
        sim,
        [Slice(0, KeyRange(0, 1_000_000), lsm=lsm)],
        capacity_scale=0.01,
        n_channels=4,
    )


def run_brownout_chaos(seed, n_ops=60):
    """One seeded brownout run.  Returns everything the asserts need."""
    sim = Simulator()
    obs = Observability(trace=True)
    plan = FaultPlan(seed=seed)
    servers = [_replica(sim) for _ in range(3)]
    for index, server in enumerate(servers):
        plan.attach(server, f"node{index}")
    obs.attach(servers[1])  # the replica that browns out
    obs.attach(plan)

    plan.schedule(
        "node1",
        BROWNOUT,
        at_ns=BROWNOUT_AT_NS,
        duration_ns=BROWNOUT_NS,
        multiplier=MULTIPLIER,
    )

    # Per-attempt timeout far above the healthy put tail (~0.2 ms
    # for 1 KB values -- small enough that the replicas' correlated
    # memtable freezes never stall a put) yet well under the browned-out
    # service time (~200 us CPU x 200 = ~40 ms), so only the sick node
    # fails; the breaker needs 3 in a row, then cools down for 40 ms.
    breakers = [
        CircuitBreaker(
            sim, failure_threshold=3, reset_ns=40 * MS, name=f"node{i}"
        )
        for i in range(3)
    ]
    for breaker in breakers:
        breaker.bind_obs(obs)
    kv = ReplicatedKV(
        sim,
        servers,
        retry=RetryPolicy(timeout_ns=15 * MS, max_attempts=5),
        rng=np.random.default_rng(seed),
        breakers=breakers,
    )
    plan.attach(kv).start()

    model = {}
    rng = np.random.default_rng(seed)

    def driver():
        seq = 0
        for _ in range(n_ops):
            key = KEYS[int(rng.integers(0, len(KEYS)))]
            if rng.random() < 0.6 or key not in model:
                value = f"{key}:{seq}".encode().ljust(1024, b".")
                seq += 1
                yield from kv.put(key, value)
                model[key] = value
            else:
                got = yield from kv.get(key)
                assert got == model[key], f"stale read of {key}"
            yield sim.timeout(THINK_NS)

    sim.run(until=sim.process(driver()))
    # Let the brownout window close, the heal land, stragglers drain.
    sim.run(until=max(sim.now, BROWNOUT_AT_NS + BROWNOUT_NS) + 1 * S)
    # Writes issued between the mid-run heal and the breaker reclosing
    # were debited to the ledger; a final resync clears that debt (the
    # operator-driven "catch the node back up" step).
    sim.run(until=sim.process(kv.heal(1)))

    final = {}

    def verify():
        for key in sorted(model):
            final[key] = yield from kv.get(key)

    sim.run(until=sim.process(verify()))
    digest = (
        sim.now,
        tuple(sorted(model.items())),
        tuple(sorted(final.items())),
        tuple(plan.signatures()),
        tuple(
            (b.opens.value, b.closes.value, b.rejections.value)
            for b in breakers
        ),
    )
    return {
        "sim": sim,
        "plan": plan,
        "obs": obs,
        "kv": kv,
        "servers": servers,
        "breakers": breakers,
        "model": model,
        "final": final,
        "digest": digest,
    }


def _assert_invariants(run):
    # Zero acknowledged-write losses, no stale reads, ledger healed.
    assert run["final"] == run["model"]
    assert run["kv"].data_loss_events.value == 0
    assert run["kv"].behind_count() == 0
    # The brownout actually ran its course on node 1.
    plan = run["plan"]
    assert plan.fault_count("node1", BROWNOUT) == 1
    assert plan.recovery_count("node1", "brownout_end") == 1
    assert run["servers"][1].slowdown == 1.0  # restored
    # The breaker for the sick node tripped and shed load locally;
    # the healthy nodes' breakers never moved.
    sick = run["breakers"][1]
    assert sick.opens.value >= 1
    assert sick.rejections.value >= 1
    assert run["breakers"][0].opens.value == 0
    assert run["breakers"][2].opens.value == 0
    # With traffic continuing after the heal, the probe succeeded and
    # the breaker closed again.
    assert sick.state is BreakerState.CLOSED
    assert sick.closes.value >= 1


def test_brownout_breaker_smoke_zero_acked_write_loss():
    run = run_brownout_chaos(seed=11, n_ops=60)
    _assert_invariants(run)
    # The brownout and breaker activity surfaced through repro.obs.
    snap = run["obs"].snapshot(run["sim"].now)
    assert snap["faults.node1.brownout"] == 1
    assert snap["server.brownouts"] == 1
    assert snap["qos.node1.opens"] >= 1
    assert snap["qos.node1.state"] == 0  # closed again


@pytest.mark.chaos
def test_chaos_tier_brownout_breaker_seeded_run():
    run = run_brownout_chaos(seed=CHAOS_SEED, n_ops=250)
    _assert_invariants(run)


@pytest.mark.chaos
def test_chaos_tier_brownout_determinism_under_seed():
    a = run_brownout_chaos(seed=CHAOS_SEED, n_ops=150)
    b = run_brownout_chaos(seed=CHAOS_SEED, n_ops=150)
    assert a["digest"] == b["digest"]
