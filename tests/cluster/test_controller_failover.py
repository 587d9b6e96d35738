"""The replicated control plane's acceptance matrix: the *leader*
fails -- crash or network partition -- at every phase boundary of an
online migration under live writes, and afterwards

* zero acknowledged writes are lost,
* routing converges at a single, quorum-agreed epoch,
* exactly one cutover happened (a deposed leader can never double-
  publish: its lease dies at the nodes, the followers, or the
  ``fence_publish`` guard inside the no-yield commit block), and
* the whole run -- SWIM probes, election, failover retry -- replays
  byte-identically from the same seeds.

Same two-pass technique as ``test_migration_faults.py``: a clean
group-enabled run records each boundary's simulated time, then each
case re-runs the identical scenario with the leader fault scheduled
just inside the phase under test.  The failover driver retries the
migration under the *new* leader once the original driver has been
fenced off, mirroring how a real control plane re-queues interrupted
work after an election.
"""

import hashlib
import json
import os

import pytest

from repro.cluster import (
    MIGRATION_PHASES,
    ClusterController,
    ControllerGroup,
    Network,
    SwimConfig,
    build_sdf_server,
)
from repro.cluster.membership import RECORD_COMMITTED
from repro.errors import TransientFault
from repro.faults import CRASH, PARTITION, FaultPlan
from repro.kv.slice import KeyRange
from repro.sim import MS, Simulator

VALUE = b"f" * 2048
PRELOAD = range(0, 80)  # acked before the migration starts
LIVE = range(80, 200)  # written concurrently with the migration
#: Leader outage: long enough for confirm + election to finish first.
CTL_DOWNTIME = 400 * MS
SEED = 13
FAST = SwimConfig(
    period_ns=10 * MS,
    ping_timeout_ns=2 * MS,
    ping_req_fanout=1,
    suspect_timeout_ns=40 * MS,
)
#: Hashes of ``Scenario.digest()``: the clean run and each
#: leader-failure case of the boundary matrix.  Re-recorded when the
#: preload began waiting for the source's flushes to land: it used to
#: wait a fixed 50 ms, and the migration started with no runs and two
#: pending patches on the source, so copy and catch-up shipped nothing
#: and prepare, copy, catchup and cutover began within 1.3 ms of each
#: other (66 ms).  They now begin at 416 ms, 417 ms, 1.57 s and 3.87 s.
GOLDEN = {
    "clean": "0f5f7edd6afd61db",
    "crash-prepare": "5a082aa2631b5502",
    "crash-copy": "2e7263e41eb49d12",
    "crash-catchup": "1ee7d726c588ab1d",
    "crash-cutover": "b8df1ef3570486d4",
    "crash-cleanup": "711ba7a1712c3eaf",
    "partition-prepare": "e607a7223b14a77f",
    "partition-copy": "51851e67e7f2c68b",
    "partition-catchup": "bb8d5b22ca2c9282",
    "partition-cutover": "392c4c5b8730e459",
    "partition-cleanup": "d958b4460f8b5e40",
}


class Scenario:
    """One deterministic migration-under-load run with a replicated
    (3-way) controller group driving the migration."""

    def __init__(self, plan=None, seed=SEED):
        self.sim = Simulator()
        self.network = Network(self.sim)
        self.ctrl = ClusterController(self.sim, self.network)
        for name in ("src", "dst"):
            self.ctrl.add_node(
                name,
                build_sdf_server(
                    self.sim, [], capacity_scale=0.01, n_channels=4
                ),
            )
        self.sid = self.ctrl.create_slice(
            KeyRange(0, 10_000),
            on=["src"],
            memtable_bytes=64 * 1024,
            durable_wal=True,
        )
        self.group = ControllerGroup(
            self.sim, self.network, self.ctrl,
            n_replicas=3, swim=FAST, seed=seed,
        )
        self.group.watch_nodes()
        self.acked = set()
        self.committed = None
        self.retried = False
        if plan is not None:
            plan.attach(self.network).attach(self.group).start()

    def preload(self):
        def _fill():
            for key in PRELOAD:
                yield from self.ctrl.node("src").handle_put(key, VALUE)
                self.acked.add(key)

        self.sim.run(until=self.sim.process(_fill()))
        # Flushes settle: the migration then has runs to copy.
        lsm = self.ctrl.replica(self.sid, "src").lsm
        while lsm.n_pending:
            self.sim.run(until=self.sim.now + 50 * MS)
        assert lsm.runs_snapshot()
        self.group.start(until_ns=10_000 * MS)

    def writer(self):
        """Routed writes racing the migration and the election."""
        view = self.ctrl.view()
        for key in LIVE:
            for _attempt in range(400):
                try:
                    server, entry = view.lookup(key)
                    yield from server.handle_put(
                        key, VALUE, epoch=entry.epoch
                    )
                except (TransientFault, KeyError):
                    yield self.sim.timeout(5 * MS)
                    view.refresh()
                    continue
                self.acked.add(key)
                break
            else:
                raise AssertionError(f"write of {key} never acked")

    def migration_driver(self):
        try:
            yield from self.ctrl.migrate_slice(self.sid, "src", "dst")
            self.committed = True
        except TransientFault:
            self.committed = False

    def failover_driver(self):
        """Re-drive the migration under the new leader after the old
        driver has been fenced off -- the control plane's re-queue of
        interrupted work."""
        while self.committed is None:
            yield self.sim.timeout(10 * MS)
        if self.committed:
            return
        for _attempt in range(400):
            if self.group.leader.up and self.group.term > 1:
                try:
                    yield from self.ctrl.migrate_slice(
                        self.sid, "src", "dst"
                    )
                    self.retried = True
                    return
                except TransientFault:
                    pass
            yield self.sim.timeout(10 * MS)
        raise AssertionError("failover retry never committed")

    def run(self):
        self.preload()
        mig = self.sim.process(self.migration_driver())
        fo = self.sim.process(self.failover_driver())
        wr = self.sim.process(self.writer())
        self.sim.run(until=wr)
        self.sim.run(until=mig)
        self.sim.run(until=fo)
        # Let recovery (leader downtime, partition heal) finish.
        self.sim.run(until=self.sim.now + CTL_DOWNTIME + 200 * MS)

    # -- post-run checks ---------------------------------------------------------------
    def verify_no_acked_loss(self):
        assert self.acked == set(PRELOAD) | set(LIVE)
        view = self.ctrl.view()

        def _read():
            lost = []
            for key in sorted(self.acked):
                server, entry = view.lookup(key)
                got = yield from server.handle_get(key, epoch=entry.epoch)
                if got != VALUE:
                    lost.append(key)
            return lost

        lost = self.sim.run(until=self.sim.process(_read()))
        assert lost == [], f"acked writes lost: {lost}"

    def verify_routing_converged(self):
        entry = self.ctrl.table.entry(self.sid)
        for name in entry.replicas:
            server = self.ctrl.node(name)
            assert server.up
            replica = self.ctrl.replica(self.sid, name)
            assert replica in server.slices
            assert not replica.importing
            assert not replica.write_blocked
            assert replica.epoch == entry.epoch
            assert server.route(0, epoch=entry.epoch) is replica

    def verify_single_cutover(self):
        """Exactly one routing flip: one completed migration, the
        committed record at the winning term, and the source holds no
        leftover twin."""
        assert self.ctrl.migrations_completed.value == 1
        entry = self.ctrl.table.entry(self.sid)
        assert entry.replicas == ("dst",)
        record = self.group.records[self.sid]
        assert record.phase == RECORD_COMMITTED
        src = self.ctrl.node("src")
        assert all(s.slice_id != self.sid for s in src.slices)

    def digest(self):
        entry = self.ctrl.table.entry(self.sid)
        return (
            self.sim.now,
            tuple(self.group.events),
            self.group.term,
            self.group.leader.name,
            self.committed,
            self.retried,
            sorted(self.acked),
            entry.epoch,
            entry.replicas,
            self.network.messages,
            self.network.bytes_moved,
            self.network.partition_drops,
            self.ctrl.migrations_started.value,
            self.ctrl.migrations_completed.value,
            self.ctrl.migrations_aborted.value,
        )

    def digest_hash(self) -> str:
        return hashlib.sha256(repr(self.digest()).encode()).hexdigest()[:16]


def leader_fault_plan(mode: str, at_ns: int) -> FaultPlan:
    plan = FaultPlan(seed=9)
    if mode == "crash":
        plan.schedule(
            "ctl0", CRASH, at_ns=at_ns, duration_ns=CTL_DOWNTIME
        )
    else:
        # Isolate the leader from its peers but *not* from the data
        # plane: the worst case, because the deposed leader keeps
        # driving the migration until fencing stops it.
        plan.schedule(
            "net", PARTITION, at_ns=at_ns, duration_ns=CTL_DOWNTIME,
            a="ctl0", b="ctl1,ctl2",
        )
    return plan


def record_boundaries(seed=SEED):
    """Clean group-enabled pass: when each migration phase begins.
    Seed-specific -- SWIM probe traffic shares node NICs with the
    migration, so each seed has its own boundary times."""
    scenario = Scenario(seed=seed)
    times = {}
    inner = scenario.ctrl._fault_point

    def probe(phase, slice_id):
        times[phase] = scenario.sim.now
        inner(phase, slice_id)

    scenario.ctrl._fault_point = probe
    scenario.run()
    assert scenario.committed
    assert set(times) == set(MIGRATION_PHASES)
    return times


_BOUNDARIES = {}


def boundary(phase: str, seed=SEED) -> int:
    if seed not in _BOUNDARIES:
        _BOUNDARIES[seed] = record_boundaries(seed)
    return _BOUNDARIES[seed][phase]


def test_clean_migration_under_replicated_controller():
    scenario = Scenario()
    scenario.run()
    assert scenario.digest_hash() == GOLDEN["clean"]
    assert scenario.committed
    assert not scenario.retried
    # Quiet leadership: no election ever ran.
    assert scenario.group.term == 1
    assert scenario.group.elections.value == 0
    scenario.verify_single_cutover()
    scenario.verify_no_acked_loss()
    scenario.verify_routing_converged()


@pytest.mark.parametrize("phase", MIGRATION_PHASES)
@pytest.mark.parametrize("mode", ["crash", "partition"])
def test_leader_failure_at_phase_boundary(phase, mode):
    at_ns = boundary(phase) + 1  # just inside the phase under test
    plan = leader_fault_plan(mode, at_ns)
    scenario = Scenario(plan)
    scenario.run()
    assert scenario.digest_hash() == GOLDEN[f"{mode}-{phase}"]
    assert scenario.committed is not None
    if not scenario.committed:
        # The original driver was fenced off pre-commit; the failover
        # driver re-ran the migration under the new leader.
        assert scenario.retried
        assert scenario.ctrl.migrations_aborted.value == 1
        assert scenario.group.term > 1
    # Either way: one cutover, nothing lost, routing converged.
    scenario.verify_single_cutover()
    scenario.verify_no_acked_loss()
    scenario.verify_routing_converged()
    kinds = [event.kind for event in plan.log]
    if mode == "crash":
        assert CRASH in kinds and "restart" in kinds
    else:
        assert PARTITION in kinds and "partition_heal" in kinds
        assert scenario.network.partition_drops > 0
        assert not scenario.network._cuts  # healed


@pytest.mark.parametrize("mode", ["crash", "partition"])
def test_leader_failure_replays_byte_identically(mode):
    at_ns = boundary("cutover") + 1

    def run():
        scenario = Scenario(leader_fault_plan(mode, at_ns))
        scenario.run()
        return scenario.digest()

    assert run() == run()


def test_deposed_leader_cannot_double_cutover():
    """The split-brain probe: the partitioned leader keeps full data-
    plane reach while the majority elects a successor, and both sides
    then race the same cutover -- the fencing stack must let exactly
    one through."""
    at_ns = boundary("catchup") + 1
    scenario = Scenario(leader_fault_plan("partition", at_ns))
    scenario.run()
    assert scenario.group.term == 2
    assert scenario.group.leader.name == "ctl1"
    scenario.verify_single_cutover()
    scenario.verify_no_acked_loss()
    scenario.verify_routing_converged()
    # The fencing left an audit trail: either the nodes rejected the
    # stale term or the publish guard fired -- never a second flip.
    assert scenario.ctrl.migrations_started.value >= 2 or (
        scenario.committed and not scenario.retried
    )


@pytest.mark.chaos
def test_chaos_leader_failure_matrix_convergence_report():
    """In the CI ``chaos`` job: the full leader-failure matrix
    (crash and partition at every phase boundary) at this run's
    ``CHAOS_SEED``, with a machine-readable convergence report written
    for the artifact upload when ``CONTROLLER_CHAOS_JSON`` names a
    path."""
    seed = int(os.environ.get("CHAOS_SEED", "0"))
    cases = []
    for mode in ("crash", "partition"):
        for phase in MIGRATION_PHASES:
            at_ns = boundary(phase, seed) + 1
            scenario = Scenario(leader_fault_plan(mode, at_ns), seed=seed)
            scenario.run()
            scenario.verify_single_cutover()
            scenario.verify_no_acked_loss()
            scenario.verify_routing_converged()
            entry = scenario.ctrl.table.entry(scenario.sid)
            cases.append(
                {
                    "mode": mode,
                    "phase": phase,
                    "fault_at_ns": at_ns,
                    "committed_by_original_leader": scenario.committed,
                    "failover_retry": scenario.retried,
                    "final_term": scenario.group.term,
                    "elections": scenario.group.elections.value,
                    "migrations_started":
                        scenario.ctrl.migrations_started.value,
                    "migrations_completed":
                        scenario.ctrl.migrations_completed.value,
                    "migrations_aborted":
                        scenario.ctrl.migrations_aborted.value,
                    "final_epoch": entry.epoch,
                    "final_replicas": list(entry.replicas),
                    "acked_writes": len(scenario.acked),
                    "acked_writes_lost": 0,  # verified above
                    "converged": True,  # verified above
                    "end_ns": scenario.sim.now,
                }
            )
    report = {
        "chaos_seed": seed,
        "swim": {
            "period_ns": FAST.period_ns,
            "ping_timeout_ns": FAST.ping_timeout_ns,
            "suspect_timeout_ns": FAST.suspect_timeout_ns,
        },
        "cases": cases,
    }
    out = os.environ.get("CONTROLLER_CHAOS_JSON")
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    assert len(cases) == 2 * len(MIGRATION_PHASES)
    assert all(case["converged"] for case in cases)
    assert all(case["migrations_completed"] == 1 for case in cases)
