"""End-to-end chaos: node crash + chip program/erase failures + message
drops + link delays during a mixed read/write workload over a replicated
cluster.

The unmarked tests are the tier-1 smoke: a short seeded run must finish
with zero acknowledged-write losses, log fault *and* recovery events
into the plan and the obs trace, and replay bit-identically under the
same seed.  The ``chaos``-marked tests run the same harness longer and
are driven by the CI seed matrix via ``CHAOS_SEED``.
"""

import os

import numpy as np
import pytest

from repro.analysis.reliability import (
    expected_fleet_uncorrectable_events,
    wear_for_target_fleet_events,
)
from repro.cluster import (
    BatchSpec,
    KVClient,
    Network,
    ReplicatedKV,
    build_sdf_server,
)
from repro.faults import (
    CRASH,
    DELAY,
    DROP,
    ERASE_FAIL,
    PROGRAM_FAIL,
    READ_UNCORRECTABLE,
    FaultPlan,
    RetryPolicy,
)
from repro.kv.compaction import TieredCompactionPolicy
from repro.kv.lsm import LSMTree
from repro.kv.slice import KeyRange, Slice
from repro.obs import Observability
from repro.sim import MS, S, Simulator

#: The CI chaos job sweeps this via the environment; 0 is the default
#: local seed.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

KEYS = [k * 31 for k in range(24)]
CLIENT_RANGE = KeyRange(1_000_000, 2_000_000)


def _replica(sim, with_client_slice=False):
    slices = [
        Slice(
            0,
            KeyRange(0, 1_000_000),
            lsm=LSMTree(
                # Small memtable: even the short smoke run freezes
                # several patches, so compaction frees blocks and the
                # background eraser gives the ERASE_FAIL rule its shot.
                memtable_bytes=32 * 1024,
                durable_wal=True,
                policy=TieredCompactionPolicy(fanout=2),
            ),
        )
    ]
    if with_client_slice:
        slices.append(
            Slice(1, CLIENT_RANGE, lsm=LSMTree(memtable_bytes=64 * 1024))
        )
    return build_sdf_server(sim, slices, capacity_scale=0.01, n_channels=4)


def run_chaos(seed, n_ops=120, client_requests=10):
    """One seeded chaos run.  Returns everything the asserts need."""
    sim = Simulator()
    obs = Observability(trace=True)
    plan = FaultPlan(seed=seed)
    # replica 0 carries an extra slice fed by a network client, so the
    # workload mixes replicated traffic with client request traffic.
    servers = [_replica(sim, with_client_slice=(i == 0)) for i in range(3)]
    for index, server in enumerate(servers):
        plan.attach(server, f"node{index}")
    obs.attach(servers[1])  # the replica that will crash
    obs.attach(plan)

    network = Network(sim)
    plan.attach(network)

    # The schedule: a mid-run crash, deterministic chip failures on
    # replica 0, sporadic uncorrectable reads on replica 2, network
    # drops and host-link latency spikes.
    plan.schedule("node1", CRASH, at_ns=10 * MS, duration_ns=15 * MS)
    plan.add("node0.nand", PROGRAM_FAIL, at_op=4)
    plan.add("node0.nand", ERASE_FAIL, at_op=1)
    plan.add("node2.nand", READ_UNCORRECTABLE, rate=0.01, count=2)
    plan.add("net", DROP, at_op=2)
    plan.add("net", DROP, rate=0.02, count=3)
    plan.add("node0.link", DELAY, rate=0.05, count=5, delay_ns=1 * MS)

    kv = ReplicatedKV(
        sim,
        servers,
        retry=RetryPolicy(timeout_ns=40 * MS, max_attempts=5),
        rng=np.random.default_rng(seed),
    )
    plan.attach(kv).start()

    client = KVClient(
        sim,
        network,
        servers[0],
        servers[0].slices[1],
        BatchSpec(batch_size=1, value_bytes=16 * 1024, mode="write"),
        rng=np.random.default_rng(seed + 1),
        retry=RetryPolicy(timeout_ns=100 * MS, max_attempts=6),
    )

    model = {}
    rng = np.random.default_rng(seed)

    def driver():
        seq = 0
        for _ in range(n_ops):
            key = KEYS[int(rng.integers(0, len(KEYS)))]
            if rng.random() < 0.6 or key not in model:
                value = f"{key}:{seq}".encode().ljust(4096, b".")
                seq += 1
                yield from kv.put(key, value)
                model[key] = value
            else:
                got = yield from kv.get(key)
                assert got == model[key], f"stale read of {key}"

    def client_loop():
        for _ in range(client_requests):
            yield from client.request_once()

    driver_proc = sim.process(driver())
    client_proc = sim.process(client_loop())
    sim.run(until=driver_proc)
    sim.run(until=client_proc)
    # Close out the crash window, the heal, and background flush/compact.
    sim.run(until=max(sim.now, 40 * MS) + 1 * S)

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
    )
    return {
        "sim": sim,
        "plan": plan,
        "obs": obs,
        "kv": kv,
        "client": client,
        "network": network,
        "servers": servers,
        "model": model,
        "final": final,
        "digest": digest,
    }


def _assert_invariants(run):
    model, final = run["model"], run["final"]
    # Zero acknowledged-write losses, no stale reads.
    assert final == model
    assert run["kv"].data_loss_events.value == 0
    assert run["kv"].behind_count() == 0
    # The crash/restart cycle actually happened and healed.
    plan = run["plan"]
    assert plan.fault_count("node1", CRASH) == 1
    assert plan.recovery_count("node1", "restart") == 1
    assert run["servers"][1].crashes == 1
    assert run["servers"][1].restarts == 1
    # Chip faults fired and were absorbed by the FTL.
    assert plan.fault_count("node0.nand", PROGRAM_FAIL) == 1
    assert plan.fault_count("node0.nand", ERASE_FAIL) == 1
    device = run["servers"][0].system.device
    assert sum(ftl.program_remaps for ftl in device.ftls) == 1
    assert sum(ftl.grown_bad_blocks() for ftl in device.ftls) >= 2
    # Dropped messages were retried by the client, not surfaced.
    assert run["network"].drops >= 1
    assert run["client"].requests_retried >= 1
    assert run["client"].requests_completed > 0


def test_chaos_smoke_zero_acked_write_loss():
    run = run_chaos(seed=7, n_ops=80, client_requests=8)
    _assert_invariants(run)
    # Fault and recovery events surfaced through repro.obs as well.
    snap = run["obs"].snapshot(run["sim"].now)
    assert snap["faults.node1.crash"] == 1
    assert snap["recovery.node1.restart"] == 1
    assert snap["server.crashes"] == 1 and snap["server.restarts"] == 1
    names = {
        ev.get("name")
        for ev in run["obs"].trace.chrome_trace()["traceEvents"]
    }
    assert "crash" in names and "recover:restart" in names
    assert "wal_replay" in names


def test_chaos_smoke_same_seed_identical_final_state():
    a = run_chaos(seed=3, n_ops=60, client_requests=6)
    b = run_chaos(seed=3, n_ops=60, client_requests=6)
    assert a["digest"] == b["digest"]


@pytest.mark.chaos
def test_chaos_tier_seeded_run():
    run = run_chaos(seed=CHAOS_SEED, n_ops=400, client_requests=30)
    _assert_invariants(run)


@pytest.mark.chaos
def test_chaos_tier_determinism_under_seed():
    a = run_chaos(seed=CHAOS_SEED, n_ops=250, client_requests=20)
    b = run_chaos(seed=CHAOS_SEED, n_ops=250, client_requests=20)
    assert a["digest"] == b["digest"]


# -- the paper's reliability claim (EXPERIMENTS.md) -----------------------------------
def test_paper_fleet_uncorrectable_claim_is_reachable():
    """S2.2: one uncorrectable error in six months over 2000 SDFs.

    The analytic model must admit a wear level at which the fleet
    expectation is ~1 event -- and below that wear the expectation must
    fall, so a production fleet at or under rated endurance sees at
    most the paper's single event (the inverted wear lands just above
    rated endurance: ~1.2x, with <=0.4 expected events at endurance).
    """
    reads_per_day = 2.0e8  # ~2300 page reads/s/device, read-heavy fleet
    wear = wear_for_target_fleet_events(
        1.0, n_devices=2000, months=6.0,
        page_reads_per_device_per_day=reads_per_day,
    )
    events = expected_fleet_uncorrectable_events(
        2000, 6.0, reads_per_day, wear
    )
    assert 0.5 <= events <= 2.0
    # Half that wear must give a clearly safer fleet (monotonicity).
    assert (
        expected_fleet_uncorrectable_events(2000, 6.0, reads_per_day, wear // 2)
        < events
    )
