"""Property-based chaos: under any random fault schedule with at least
one surviving replica, every acknowledged write remains readable and no
read ever returns a stale value.

Style follows ``tests/kv/test_lsm_properties.py``: hypothesis drives the
schedule (crash time/duration/replica, uncorrectable-read rate, op mix),
a plain dict models the acknowledged state, and every read is checked
against the model the moment it completes.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.cluster import ReplicatedKV, build_sdf_server
from repro.faults import (
    CRASH,
    READ_UNCORRECTABLE,
    FaultPlan,
    RetryPolicy,
)
from repro.kv.lsm import LSMTree
from repro.kv.slice import KeyRange, Slice
from repro.sim import MS, Simulator

KEYS = [k * 97 for k in range(10)]


def make_replica(sim):
    lsm = LSMTree(memtable_bytes=64 * 1024, durable_wal=True)
    return build_sdf_server(
        sim,
        [Slice(0, KeyRange(0, 1_000_000), lsm=lsm)],
        capacity_scale=0.01,
        n_channels=4,
    )


@st.composite
def fault_schedules(draw):
    return {
        "seed": draw(st.integers(0, 10_000)),
        "crash_replica": draw(st.integers(0, 1)),
        "crash_at_ms": draw(st.integers(2, 30)),
        "crash_duration_ms": draw(st.integers(2, 20)),
        "unc_rate": draw(st.sampled_from([0.0, 0.05, 0.2])),
        "chip_unc": draw(st.booleans()),
        # (is_put, key index) -- reads of never-written keys check misses
        "ops": draw(
            st.lists(
                st.tuples(st.booleans(), st.integers(0, len(KEYS) - 1)),
                min_size=8,
                max_size=32,
            )
        ),
    }


@given(case=fault_schedules())
@settings(max_examples=15, deadline=None)
def test_acked_writes_survive_any_schedule_with_a_surviving_replica(case):
    sim = Simulator()
    servers = [make_replica(sim) for _ in range(2)]
    plan = FaultPlan(seed=case["seed"])
    # Capped rules can never exhaust a whole retry budget: at most one
    # replication-level and one chip-level uncorrectable fire per run.
    if case["unc_rate"] > 0.0:
        plan.add("replication", READ_UNCORRECTABLE, rate=case["unc_rate"], count=1)
    if case["chip_unc"]:
        plan.add("node0.nand", READ_UNCORRECTABLE, rate=0.02, count=1)
    plan.schedule(
        f"node{case['crash_replica']}",
        CRASH,
        at_ns=case["crash_at_ms"] * MS,
        duration_ns=case["crash_duration_ms"] * MS,
    )
    for index, server in enumerate(servers):
        plan.attach(server, f"node{index}")
    kv = ReplicatedKV(
        sim,
        servers,
        retry=RetryPolicy(timeout_ns=30 * MS, max_attempts=4),
        rng=np.random.default_rng(case["seed"]),
    )
    plan.attach(kv).start()

    model = {}

    def driver():
        seq = 0
        for is_put, key_index in case["ops"]:
            key = KEYS[key_index]
            if is_put:
                value = f"{key}:{seq}".encode().ljust(2048, b".")
                seq += 1
                yield from kv.put(key, value)
                model[key] = value  # acknowledged
            else:
                got = yield from kv.get(key)
                # never stale, never torn: exactly the last acked value
                assert got == model.get(key)

    sim.run(until=sim.process(driver()))
    # Let the crash window close and the heal finish, whatever the phase.
    grace = (case["crash_at_ms"] + case["crash_duration_ms"] + 150) * MS
    if sim.now < grace:
        sim.run(until=grace)

    def verify():
        for key, value in model.items():
            got = yield from kv.get(key)
            assert got == value

    sim.run(until=sim.process(verify()))
    assert kv.behind_count() == 0  # the healed replica owes nothing
    assert kv.data_loss_events.value == 0
