"""Migration safety under crashes (the PR's acceptance criterion): a
node fail-stops at *every* phase boundary of an online slice migration
-- source and target, parameterised -- and after recovery

* zero acknowledged writes are lost (WAL replay + the copy protocol
  cover every phase), and
* routing converges: the table names live owners, every replica's
  epoch matches its entry, and an aborted migration can be retried to
  completion.

Two-pass technique: a clean run records the simulated time of each
phase boundary through a probe on the controller's fault hook, then
each parameterised case re-runs the identical deterministic scenario
with a :class:`~repro.faults.runner.FaultRunner` crash scheduled just
inside the phase under test.
"""

import hashlib

import pytest

from repro.cluster import (
    MIGRATION_PHASES,
    ClusterController,
    Network,
    build_sdf_server,
)
from repro.errors import TransientFault
from repro.faults import CRASH, FaultPlan, FaultRunner
from repro.kv.slice import KeyRange
from repro.sim import MS, Simulator

VALUE = b"m" * 2048
PRELOAD = range(0, 80)  # acked before the migration starts
LIVE = range(80, 200)  # written concurrently with the migration
CRASH_DOWNTIME = 80 * MS

#: The schedule each case runs (``schedule_digest``); a change to it
#: must be a deliberate one.  Re-recorded when the preload began waiting
#: for the source's flushes to land: it used to wait a fixed 50 ms, one
#: 8 MB patch flush takes about 310 ms, and the migration started with
#: no runs and two pending patches on the source.  Copy and catch-up
#: then shipped nothing, prepare, copy, catchup and cutover began at one
#: instant, and the four ``src`` cases crashing there shared one digest.
#: Prepare and copy still share an instant, so their cases still share a
#: digest.
GOLDEN = {
    "clean": "dd2661b61e1ded47",
    "src-prepare": "a1ba7ee1e612a204",
    "src-copy": "a1ba7ee1e612a204",
    "src-catchup": "3726b7c40a5b44f9",
    "src-cutover": "759ba9c56ceda1b8",
    "src-cleanup": "6078473e60df822a",
    "dst-prepare": "2bf39e0bf4589bdf",
    "dst-copy": "2bf39e0bf4589bdf",
    "dst-catchup": "2bf39e0bf4589bdf",
    "dst-cutover": "2bf39e0bf4589bdf",
    "dst-cleanup": "7de62a4c369ba90e",
}


def schedule_digest(sim, ctrl, slice_id) -> str:
    """Sim time, event sequence number, the slice's routing entry and
    the migration counters, hashed."""
    state = (
        sim.now,
        sim._seq,
        ctrl.table.entry(slice_id),
        ctrl.migrations_started.value,
        ctrl.migrations_completed.value,
        ctrl.migrations_aborted.value,
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


class Scenario:
    """One deterministic migration-under-load run."""

    def __init__(self, plan=None):
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
        self.acked = set()
        self.committed = None
        if plan is not None:
            runner = FaultRunner(self.sim, plan)
            runner.bind("node:src", self.ctrl.node("src"))
            runner.bind("node:dst", self.ctrl.node("dst"))
            runner.start()

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

    def writer(self):
        """Routed writes racing the migration.  Redirects on epoch
        errors and rides out node downtime with bounded retries, so
        every LIVE key is eventually acknowledged exactly like a real
        client behind the retry stack."""
        view = self.ctrl.view()
        for key in LIVE:
            for _attempt in range(200):
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

    def run(self):
        self.preload()
        mig = self.sim.process(self.migration_driver())
        wr = self.sim.process(self.writer())
        self.sim.run(until=wr)
        self.sim.run(until=mig)
        # Let crash recovery (downtime + WAL replay) finish.
        self.sim.run(until=self.sim.now + CRASH_DOWNTIME + 200 * MS)

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


def record_boundaries():
    """Clean pass: the simulated time at which each phase begins."""
    scenario = Scenario()
    times = {}
    inner = scenario.ctrl._fault_point

    def probe(phase, slice_id):
        times[phase] = scenario.sim.now
        inner(phase, slice_id)

    scenario.ctrl._fault_point = probe
    scenario.run()
    assert scenario.committed
    assert set(times) == set(MIGRATION_PHASES)
    # Each crash case must land inside a phase of its own.  Prepare does
    # no simulated work without a controller group, so it shares copy's
    # instant; every phase after it starts strictly later.
    starts = [times[phase] for phase in MIGRATION_PHASES]
    assert starts[0] == starts[1]
    assert all(a < b for a, b in zip(starts[1:], starts[2:]))
    return times


_BOUNDARIES = {}


def boundary(phase: str) -> int:
    if not _BOUNDARIES:
        _BOUNDARIES.update(record_boundaries())
    return _BOUNDARIES[phase]


def test_clean_migration_loses_nothing():
    scenario = Scenario()
    scenario.run()
    assert scenario.committed
    assert scenario.ctrl.table.entry(scenario.sid).replicas == ("dst",)
    scenario.verify_no_acked_loss()
    scenario.verify_routing_converged()
    digest = schedule_digest(scenario.sim, scenario.ctrl, scenario.sid)
    assert digest == GOLDEN["clean"]


@pytest.mark.parametrize("phase", MIGRATION_PHASES)
@pytest.mark.parametrize("who", ["src", "dst"])
def test_crash_at_phase_boundary_loses_no_acked_write(phase, who):
    at_ns = boundary(phase) + 1  # just inside the phase under test
    plan = FaultPlan(seed=9).schedule(
        f"node:{who}", CRASH, at_ns=at_ns, duration_ns=CRASH_DOWNTIME
    )
    scenario = Scenario(plan)
    scenario.run()
    assert scenario.committed is not None
    if not scenario.committed:
        # Aborted cleanly: the source is still the owner and a retry
        # completes the move.
        assert scenario.ctrl.table.entry(scenario.sid).replicas == ("src",)
        assert scenario.ctrl.migrations_aborted.value == 1
        scenario.sim.run(
            until=scenario.sim.process(
                scenario.ctrl.migrate_slice(scenario.sid, "src", "dst")
            )
        )
    assert scenario.ctrl.table.entry(scenario.sid).replicas == ("dst",)
    scenario.verify_no_acked_loss()
    scenario.verify_routing_converged()
    # The crash actually happened (the plan logged fault + recovery).
    kinds = [event.kind for event in plan.log]
    assert CRASH in kinds and "restart" in kinds
    digest = schedule_digest(scenario.sim, scenario.ctrl, scenario.sid)
    assert digest == GOLDEN[f"{who}-{phase}"]
