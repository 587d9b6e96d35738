"""Unit tests for the fault plane: rules, scheduling, determinism."""

import numpy as np
import pytest

from repro.cluster import Network, ReplicatedKV, build_sdf_server
from repro.faults import (
    BROWNOUT,
    CRASH,
    DELAY,
    NULL_INJECTOR,
    READ_UNCORRECTABLE,
    STALL,
    FaultInjectionError,
    FaultPlan,
    RetryPolicy,
)
from repro.kv.lsm import LSMTree
from repro.kv.slice import KeyRange, Slice
from repro.obs import Observability
from repro.sim import MS, Simulator


# -- rule validation -----------------------------------------------------------------
def test_rule_validation_rejects_bad_parameters():
    plan = FaultPlan()
    with pytest.raises(FaultInjectionError):
        plan.add("s", "k", rate=1.5)
    with pytest.raises(FaultInjectionError):
        plan.add("s", "k", rate=-0.1)
    with pytest.raises(FaultInjectionError):
        plan.add("s", "k", at_op=0)
    with pytest.raises(FaultInjectionError):
        plan.add("s", "k")  # no trigger at all
    with pytest.raises(FaultInjectionError):
        plan.add("s", "k", rate=0.5, count=0)
    with pytest.raises(FaultInjectionError):
        plan.schedule("s", CRASH, at_ns=-1)
    with pytest.raises(FaultInjectionError):
        plan.schedule("s", CRASH, at_ns=0, duration_ns=-5)


def test_add_and_schedule_chain_fluently():
    plan = (
        FaultPlan(seed=3)
        .add("a", "k", rate=0.5)
        .schedule("b", CRASH, at_ns=10)
    )
    assert plan.sites() == ["a", "b"]


# -- deterministic (at_op / count) rules -------------------------------------------
def test_at_op_fires_on_exact_opportunity_then_never_again():
    plan = FaultPlan()
    plan.add("s", "k", at_op=3)
    inj = plan.injector("s")
    hits = [inj.fires("k") is not None for _ in range(6)]
    assert hits == [False, False, True, False, False, False]
    assert plan.fault_count("s", "k") == 1


def test_count_caps_probabilistic_fires():
    plan = FaultPlan(seed=1)
    plan.add("s", "k", rate=1.0, count=2)
    inj = plan.injector("s")
    hits = sum(inj.fires("k") is not None for _ in range(10))
    assert hits == 2


def test_where_filter_matches_context():
    plan = FaultPlan()
    plan.add("s", "k", at_op=1, where={"plane": 1})
    inj = plan.injector("s")
    assert inj.fires("k", plane=0) is None
    assert inj.fires("k", plane=1) is not None
    # the miss on plane 0 did not consume the opportunity
    assert plan.fault_count("s", "k") == 1


def test_time_windows_take_effect_once_a_clock_is_bound():
    sim = Simulator()
    plan = FaultPlan()
    plan.add("s", "k", rate=1.0, after_ns=5 * MS, before_ns=10 * MS)
    plan.bind_clock(sim)
    inj = plan.injector("s")

    def scenario():
        assert inj.fires("k") is None  # before the window
        yield sim.timeout(6 * MS)
        assert inj.fires("k") is not None  # inside
        yield sim.timeout(10 * MS)
        assert inj.fires("k") is None  # past it

    sim.run(until=sim.process(scenario()))
    assert [e.at_ns for e in plan.log] == [6 * MS]


# -- determinism -----------------------------------------------------------------------
def _firing_pattern(seed, n=200, rate=0.3):
    plan = FaultPlan(seed=seed)
    plan.add("s", "k", rate=rate)
    inj = plan.injector("s")
    return [inj.fires("k") is not None for _ in range(n)]


def test_same_seed_same_fault_sequence():
    assert _firing_pattern(42) == _firing_pattern(42)


def test_different_seed_different_fault_sequence():
    assert _firing_pattern(1) != _firing_pattern(2)


def test_rule_streams_independent_across_sites():
    # Adding rules at *other* sites must not shift this site's draws.
    alone = FaultPlan(seed=7)
    alone.add("a", "k", rate=0.5)
    crowded = FaultPlan(seed=7)
    crowded.add("x", "k", rate=0.5)
    crowded.add("a", "k", rate=0.5)
    crowded.add("z", "k", rate=0.5)
    pattern = lambda plan: [
        plan.injector("a").fires("k") is not None for _ in range(100)
    ]
    assert pattern(alone) == pattern(crowded)


def test_same_seed_identical_sim_timeline():
    def run(seed):
        sim = Simulator()
        plan = FaultPlan(seed=seed)
        plan.add("s", STALL, rate=0.4, delay_ns=2 * MS)
        plan.bind_clock(sim)
        inj = plan.injector("s")

        def worker():
            for _ in range(50):
                yield sim.timeout(1 * MS + inj.delay_ns(STALL))

        sim.run(until=sim.process(worker()))
        return sim.now, plan.signatures()

    assert run(9) == run(9)


# -- delay rules -------------------------------------------------------------------------
def test_delay_rules_sum_and_log_one_event():
    plan = FaultPlan()
    plan.add("s", DELAY, at_op=1, delay_ns=3)
    plan.add("s", DELAY, at_op=1, delay_ns=4)
    inj = plan.injector("s")
    assert inj.delay_ns(DELAY) == 7
    assert inj.delay_ns(DELAY) == 0  # both rules spent
    assert plan.fault_count("s", DELAY) == 1
    assert plan.log[0].ctx["delay_ns"] == 7


# -- the no-op default ---------------------------------------------------------------------
def test_unconfigured_site_makes_no_draws_and_no_log():
    plan = FaultPlan(seed=0)
    plan.add("other", "k", rate=1.0)
    inj = plan.injector("quiet")
    assert inj.fires("k") is None
    assert inj.delay_ns("k") == 0
    assert plan.log == []


def test_null_injector_is_inert():
    assert NULL_INJECTOR.fires("k", x=1) is None
    assert NULL_INJECTOR.delay_ns("k") == 0
    assert NULL_INJECTOR.inject("k") is None
    assert NULL_INJECTOR.note("r") is None


# -- logging / obs -------------------------------------------------------------------------
def test_inject_and_note_count_separately():
    plan = FaultPlan()
    inj = plan.injector("s")
    inj.inject(CRASH, node=1)
    inj.note("restart", node=1)
    assert plan.fault_count("s", CRASH) == 1
    assert plan.recovery_count("s", "restart") == 1
    assert plan.fault_count() == 1 and plan.recovery_count() == 1
    sigs = plan.signatures()
    assert sigs[0] == ("s", CRASH, None, False, (("node", 1),))
    assert sigs[1] == ("s", "restart", None, True, (("node", 1),))


def test_fired_faults_emit_obs_counters_and_trace_instants():
    obs = Observability(trace=True)
    plan = FaultPlan()
    plan.add("s", READ_UNCORRECTABLE, at_op=1)
    obs.attach(plan)
    plan.injector("s").fires(READ_UNCORRECTABLE, page=9)
    plan.injector("s").note("remap", page=9)
    snap = obs.snapshot()
    assert snap["faults.s.read_uncorrectable"] == 1
    assert snap["recovery.s.remap"] == 1
    names = [ev.get("name") for ev in obs.trace.chrome_trace()["traceEvents"]]
    assert "read_uncorrectable" in names
    assert "recover:remap" in names


# -- scheduling and start ---------------------------------------------------------------
def test_scheduled_for_returns_time_order():
    plan = FaultPlan()
    plan.schedule("n", CRASH, at_ns=20)
    plan.schedule("n", CRASH, at_ns=5)
    assert [f.at_ns for f in plan.scheduled_for("n")] == [5, 20]
    assert plan.scheduled_for("unknown") == []


def replica(sim):
    """A one-slice server whose WAL replay costs 1 ms a record."""
    lsm = LSMTree(memtable_bytes=64 * 1024, durable_wal=True)
    server = build_sdf_server(
        sim,
        [Slice(0, KeyRange(0, 1_000), lsm=lsm)],
        capacity_scale=0.004,
        n_channels=4,
    )
    server.wal_replay_ns_per_record = 1 * MS
    return server


def times(plan, kind, recovery=False):
    return [e.at_ns for e in plan.log if e.kind == kind and e.recovery == recovery]


def test_runner_drives_crash_and_restart():
    sim = Simulator()
    plan = FaultPlan()
    plan.schedule("n", CRASH, at_ns=10 * MS, duration_ns=5 * MS, node=0)
    servers = [replica(sim), replica(sim)]
    plan.attach(servers[0], "n").attach(servers[1], "m")
    kv = ReplicatedKV(sim, servers)
    plan.attach(kv)
    plan.start()

    def writes():
        yield from kv.put(1, b"before")  # the one WAL record to replay
        yield sim.timeout(12 * MS - sim.now)
        yield from kv.put(2, b"while down")  # missed by n: resynced

    sim.process(writes())
    sim.run(until=30 * MS)
    assert times(plan, CRASH) == [10 * MS]
    assert times(plan, "restart", recovery=True) == [16 * MS]  # 10 + 5 + 1
    assert servers[0].up
    assert kv.resynced_keys.value == 1  # the restore step ran
    assert plan.recovery_count("replication", "replica_resync") == 1
    assert plan.fault_count("n", CRASH) == 1
    assert plan.recovery_count("n", "restart") == 1


def test_runner_never_recovers_when_duration_is_none():
    sim = Simulator()
    plan = FaultPlan()
    plan.schedule("n", CRASH, at_ns=1 * MS, duration_ns=None)
    server = replica(sim)
    plan.attach(server, "n").start()
    sim.run(until=50 * MS)
    assert not server.up
    assert times(plan, "restart", recovery=True) == []


def test_runner_rejects_unbound_scheduled_site_and_double_start():
    sim = Simulator()
    plan = FaultPlan()
    plan.schedule("typo", CRASH, at_ns=0)
    plan.attach(replica(sim), "n")
    with pytest.raises(FaultInjectionError, match="'typo' with no target"):
        plan.start()
    plan2 = FaultPlan()
    plan2.start()
    with pytest.raises(FaultInjectionError):
        plan2.start()


def test_an_unknown_kind_fails_at_start_before_any_event():
    sim = Simulator()
    network = Network(sim)
    plan = FaultPlan().schedule("net", "crsh", at_ns=3 * MS)
    plan.attach(network)
    with pytest.raises(FaultInjectionError, match="kind 'crsh'"):
        plan.start()
    assert sim._seq == 0


def test_a_target_without_the_kinds_methods_fails_at_start():
    sim = Simulator()
    network = Network(sim)
    plan = FaultPlan().schedule(
        "net", BROWNOUT, at_ns=5 * MS, duration_ns=MS, multiplier=4.0
    )
    plan.attach(network)
    with pytest.raises(
        FaultInjectionError, match="Network at site 'net' cannot take a "
        "scheduled brownout: it has no begin_brownout"
    ):
        plan.start()
    assert sim._seq == 0


def test_a_replicated_kv_needs_its_servers_attached_first():
    sim = Simulator()
    servers = [replica(sim), replica(sim)]
    plan = FaultPlan().attach(servers[0], "n")
    with pytest.raises(FaultInjectionError, match="replica 1"):
        plan.attach(ReplicatedKV(sim, servers))


# -- retry policy --------------------------------------------------------------------------
def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(
        backoff_base_ns=10, backoff_factor=2.0, backoff_max_ns=50, jitter=0.0
    )
    assert [policy.backoff_ns(k) for k in range(4)] == [10, 20, 40, 50]


def test_backoff_jitter_stays_within_bounds():
    policy = RetryPolicy(backoff_base_ns=1000, jitter=0.2)
    rng = np.random.default_rng(0)
    for attempt in range(5):
        base = policy.backoff_ns(attempt)
        jittered = policy.backoff_ns(attempt, rng)
        assert 0.8 * base - 1 <= jittered <= 1.2 * base + 1


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(timeout_ns=0)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
