"""The cluster control plane: routing, elasticity and online slice
migration (paper S2.2, S5).

The paper's deployment story -- "web-scale internet storage systems"
spanning thousands of nodes -- implies a layer the paper itself treats
as given: something must decide which node owns which slice, move
slices when nodes join or leave, and keep clients pointed at the right
owner while data is in flight.  :class:`ClusterController` is that
layer, scaled to the simulator:

* **Versioned routing** -- a :class:`RoutingTable` maps each slice to
  its replica set and an *epoch* (bumped on every ownership change).
  Clients cache a :class:`RoutingView` snapshot and stamp requests with
  the epoch they routed by; a server that has moved on rejects the
  stale stamp with :class:`~repro.errors.WrongEpochError`, and the
  client refreshes and retries.
* **Online migration** -- :meth:`ClusterController.migrate_slice` moves
  one replica of a slice between nodes while it keeps serving:
  snapshot transfer of the registered runs, iterative catch-up of runs
  flushed during the copy, then a brief write-blocked cutover that
  ships the WAL-protected tail (pending patches + memtable) and
  commits atomically by bumping the epoch.  An acknowledged write is
  durable on the source until the commit point and durable on the
  target after it, so a crash at *any* phase boundary loses nothing
  (``tests/cluster/test_migration_faults.py``).
* **Elastic membership** -- :meth:`add_node` / :meth:`drain_node` /
  :meth:`remove_node`, plus a :meth:`rebalance` step driven by
  per-slice load (bytes served since the last look).
* **Split / merge** -- :meth:`split_slice` divides a hot slice's
  key range in two; :meth:`merge_slices` recombines adjacent cold ones.

Fault points: each migration phase consults the ``migration`` fault
site, so a :class:`~repro.faults.plan.FaultPlan` can abort a transfer
at any boundary (kind :data:`MIGRATION_ABORT`, ``where={"phase": ...}``).
Node crashes mid-migration surface as
:class:`~repro.cluster.node.NodeDownError` from the transfer itself.
Either way -- and on any other exception before the commit, such as a
target out of units -- the migration aborts cleanly: routing is
unchanged, the source keeps serving, the target gets back every unit
the migration claimed, and a later retry starts over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.membership import RECORD_ABORTED, RECORD_COMMITTED
from repro.cluster.network import Network
from repro.cluster.node import StorageServer
from repro.errors import ClusterError, TransientFault
from repro.faults.injector import NULL_INJECTOR
from repro.kv.lsm import LSMTree
from repro.kv.slice import KeyRange, Slice
from repro.sim import MS, Simulator
from repro.sim.stats import Counter

#: Fault site consulted at every migration phase boundary.
MIGRATION_SITE = "migration"
#: Fault kind that aborts a migration at a phase boundary.
MIGRATION_ABORT = "migration_abort"

#: Migration phases, in protocol order.  ``commit`` is the atomic
#: routing-table flip inside cutover; everything before it leaves the
#: source authoritative, everything after leaves the target.
MIGRATION_PHASES = ("prepare", "copy", "catchup", "cutover", "cleanup")


class MigrationError(ClusterError):
    """A migration could not run (bad arguments, not a mid-flight fault)."""


def _sources(lsm: LSMTree, runs: bool = True, pending: bool = True):
    """An LSM's data as ``(handle, level, token, patch)`` tuples: its
    registered runs oldest first (``patch`` None: read it through the
    handle), then its frozen-but-unstored patches (``handle`` None,
    level 0)."""
    walk = []
    if runs:
        walk += [
            (run.handle, run.level, run.freeze_token, None)
            for run in lsm.runs_snapshot()
        ]
    if pending:
        walk += [(None, 0, frozen.token, frozen.patch) for frozen in lsm._pending]
    return walk


class _NoGroup:
    """The lease calls of a controller with no
    :class:`~repro.cluster.membership.ControllerGroup`: a migration makes
    the same calls, and each does nothing (no events, no yields) -- the
    historical immortal-singleton behaviour."""

    def open_lease(self, slice_id: int) -> None:
        return None

    def _nothing(self, *args) -> None:
        """No lease to check, no publish to fence, no record to settle."""

    check_lease = fence_publish = _settle = _nothing

    def phase_barrier(self, phase, lease, src_name, dst_name):
        return ()

    def lease_current(self, lease) -> bool:
        return True


_NO_GROUP = _NoGroup()


@dataclass(frozen=True)
class SliceLocation:
    """One immutable routing-table entry."""

    slice_id: int
    key_range: KeyRange
    epoch: int
    replicas: Tuple[str, ...]  #: node names, primary first

    def __contains__(self, key) -> bool:
        return key in self.key_range


class RoutingTable:
    """The authoritative, versioned slice -> replica-set map.

    Only the :class:`ClusterController` writes it; everyone else reads
    through a :class:`RoutingView` snapshot.  ``version`` bumps on every
    publish/drop, so views can cheaply detect staleness.
    """

    def __init__(self):
        self.version = 0
        self._entries: Dict[int, SliceLocation] = {}

    def publish(self, entry: SliceLocation) -> None:
        self._entries[entry.slice_id] = entry
        self.version += 1

    def drop(self, slice_id: int) -> None:
        del self._entries[slice_id]
        self.version += 1

    def entry(self, slice_id: int) -> SliceLocation:
        return self._entries[slice_id]

    def entries(self) -> List[SliceLocation]:
        return sorted(self._entries.values(), key=lambda e: e.slice_id)

    def lookup(self, key) -> SliceLocation:
        """The entry owning ``key`` (KeyError when no slice does)."""
        for entry in self._entries.values():
            if key in entry:
                return entry
        raise KeyError(f"no slice owns key {key!r}")

    def __repr__(self):
        return (
            f"RoutingTable(v{self.version}, {len(self._entries)} slices)"
        )


class RoutingView:
    """A client's cached snapshot of the routing table.

    ``lookup`` resolves against the *cached* entries -- the client only
    learns of ownership changes when a server rejects its stale epoch
    stamp and it calls :meth:`refresh` (exactly the redirect-and-retry
    dance of real routed stores).
    """

    def __init__(self, controller: "ClusterController"):
        self._controller = controller
        self.version: int = -1
        self._entries: List[SliceLocation] = []
        self.refreshes = 0
        self.refresh()

    @property
    def stale(self) -> bool:
        """True when the authoritative table has moved past this view."""
        return self.version != self._controller.table.version

    def refresh(self) -> None:
        """Re-snapshot the authoritative table."""
        table = self._controller.table
        self._entries = table.entries()
        self.version = table.version
        self.refreshes += 1

    def lookup(self, key) -> Tuple[StorageServer, SliceLocation]:
        """The cached primary server + entry for ``key``."""
        for entry in self._entries:
            if key in entry:
                return self._controller.node(entry.replicas[0]), entry
        raise KeyError(f"no cached slice owns key {key!r}")

    def replicas(self, entry: SliceLocation) -> List[StorageServer]:
        """The cached replica servers for one entry, primary first."""
        return [self._controller.node(name) for name in entry.replicas]


class ClusterController:
    """The deterministic, simulator-driven cluster control plane."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        faults=None,
        qos=None,
    ):
        self.sim = sim
        self.network = network
        self.table = RoutingTable()
        self.nodes: Dict[str, StorageServer] = {}
        self.draining: set = set()
        #: slice_id -> {node name -> that replica's live Slice object}
        self._replicas: Dict[int, Dict[str, Slice]] = {}
        self._next_slice_id = 0
        # Epoch 0 is the birth epoch of every slice; ownership changes
        # draw from this cluster-wide counter so no two changes ever
        # reuse a stamp.
        self._next_epoch = 1
        self.faults = faults if faults is not None else NULL_INJECTOR
        self.migration_budget = (
            qos.migration if qos is not None else None
        )
        self._migrations_inflight = 0
        #: Pacing horizon for the migration copy budget: the simulated
        #: time at which the next paced byte may enter the network.
        self._budget_free_ns = 0
        #: Optional :class:`~repro.cluster.membership.ControllerGroup`
        #: (set by an *active* group's constructor).  ``None`` keeps the
        #: historical immortal-singleton behaviour: no leases, no phase
        #: barriers, no fencing -- byte-identical event sequences.
        self.group = None
        self.obs = None
        self.migrations_started = Counter("cluster.migrations_started")
        self.migrations_completed = Counter("cluster.migrations_completed")
        self.migrations_aborted = Counter("cluster.migrations_aborted")
        self.bytes_migrated = Counter("cluster.bytes_migrated")
        self.splits = Counter("cluster.splits")
        self.merges = Counter("cluster.merges")
        self.rebalance_moves = Counter("cluster.rebalance_moves")
        #: Per-slice bytes-served watermarks for :meth:`rebalance`.
        self._load_marks: Dict[int, int] = {}
        #: Passes to sit out after a move (cutover backlog drains as a
        #: burst that would otherwise read as fresh load skew).
        self._rebalance_cooldown = 0

    # -- membership --------------------------------------------------------------------
    def add_node(self, name: str, server: StorageServer) -> None:
        """Enroll a (possibly slice-less) server under ``name``.

        Any slices the server already hosts are published to the
        routing table, so an existing single-node deployment can be
        adopted wholesale before scaling out.
        """
        if name in self.nodes:
            raise ValueError(f"node {name!r} already enrolled")
        self.nodes[name] = server
        for slice_ in server.slices:
            sid = slice_.slice_id
            if sid in self._replicas:
                entry = self.table.entry(sid)
            else:
                self._replicas[sid] = {}
                entry = SliceLocation(sid, slice_.key_range, slice_.epoch, ())
                self._next_slice_id = max(self._next_slice_id, sid + 1)
            self._replicas[sid][name] = slice_
            self.table.publish(replace(entry, replicas=entry.replicas + (name,)))

    def node(self, name: str) -> StorageServer:
        return self.nodes[name]

    def drain_node(self, name: str):
        """Generator: migrate every replica off ``name``.

        The node is marked draining first so the rebalancer stops
        routing new slices to it; each hosted replica then migrates to
        the least-loaded other node not already holding one.  Returns
        the number of slices moved.
        """
        if name not in self.nodes:
            raise KeyError(f"unknown node {name!r}")
        self.draining.add(name)
        moved = 0
        for slice_id in sorted(
            sid for sid, hosts in self._replicas.items() if name in hosts
        ):
            target = self._placement_target(exclude_slice=slice_id)
            if target is None:
                raise MigrationError(
                    f"no node can absorb slice {slice_id} from {name!r}"
                )
            yield from self.migrate_slice(slice_id, name, target)
            moved += 1
        return moved

    def remove_node(self, name: str) -> StorageServer:
        """Retire a node that no longer hosts any replica."""
        hosted = [
            sid for sid, hosts in self._replicas.items() if name in hosts
        ]
        if hosted:
            raise MigrationError(
                f"node {name!r} still hosts slices {hosted}; drain it first"
            )
        self.draining.discard(name)
        return self.nodes.pop(name)

    def _placement_target(
        self, exclude_slice: Optional[int] = None
    ) -> Optional[str]:
        """The least-loaded live node eligible for a new replica."""
        best = None
        best_load = None
        for name in sorted(self.nodes):
            if name in self.draining:
                continue
            if not self.nodes[name].up:
                continue
            if (
                exclude_slice is not None
                and name in self._replicas.get(exclude_slice, ())
            ):
                continue
            load = sum(
                self._slice_bytes(s) for s in self.nodes[name].slices
            )
            if best_load is None or load < best_load:
                best, best_load = name, load
        return best

    # -- slice lifecycle -----------------------------------------------------------------
    def create_slice(
        self, key_range: KeyRange, on: List[str], **lsm_kwargs
    ) -> int:
        """Create a fresh slice replicated on the named nodes; returns
        its slice id.  The primary is ``on[0]``."""
        if not on:
            raise ValueError("need at least one hosting node")
        for entry in self.table.entries():
            if (
                entry.key_range.lo < key_range.hi
                and key_range.lo < entry.key_range.hi
            ):
                raise ValueError(
                    f"key range overlaps slice {entry.slice_id}"
                )
        slice_id = self._next_slice_id
        self._next_slice_id += 1
        hosts: Dict[str, Slice] = {}
        for name in on:
            slice_ = Slice(slice_id, key_range, lsm=LSMTree(**lsm_kwargs))
            self.nodes[name].add_slice(slice_)
            hosts[name] = slice_
        self._replicas[slice_id] = hosts
        self.table.publish(
            SliceLocation(
                slice_id=slice_id,
                key_range=key_range,
                epoch=0,
                replicas=tuple(on),
            )
        )
        return slice_id

    def replica(self, slice_id: int, name: str) -> Slice:
        """The live Slice object of one replica."""
        return self._replicas[slice_id][name]

    def replica_router(
        self, slice_id: int
    ) -> Callable[[], List[StorageServer]]:
        """A router for :class:`~repro.cluster.replication.ReplicatedKV`:
        resolves the slice's *current* replica servers on every call, so
        membership changes take effect without rebuilding the KV."""

        def _route() -> List[StorageServer]:
            entry = self.table.entry(slice_id)
            return [self.nodes[name] for name in entry.replicas]

        return _route

    def view(self) -> RoutingView:
        """A fresh client-side routing snapshot."""
        return RoutingView(self)

    # -- migration ---------------------------------------------------------------------
    def migrate_slice(self, slice_id: int, src_name: str, dst_name: str):
        """Generator: move one replica of a slice from ``src_name`` to
        ``dst_name`` while the slice keeps serving.

        Protocol (see the module docstring):

        1. **prepare** -- create an importing (non-routable) twin on the
           target; pause source compaction so the run inventory is
           stable.
        2. **copy** -- ship every registered run: read on the source
           (charged to the ``scan`` admission class), transfer, store on
           the target, adopt with the source freeze token.
        3. **catchup** -- repeat for runs flushed during the copy until
           a pass moves nothing.
        4. **cutover** -- block writes on the source, ship the
           WAL-protected tail (pending patches + frozen memtable), then
           *atomically* bump the epoch, flip the routing entry, make the
           target live and detach the source.  Blocked writers retry
           and are redirected by the new table.
        5. **cleanup** -- free the source's now-orphaned patches.

        Any exception before the commit aborts the migration: the
        importing twin is discarded, every unit its runs hold on the
        target comes back, the source unfreezes and routing is
        untouched.  A :class:`TransientFault` after the commit only
        delays cleanup (the target is already authoritative and
        durable).
        """
        if src_name not in self.nodes or dst_name not in self.nodes:
            raise KeyError(f"unknown node in {src_name!r} -> {dst_name!r}")
        if src_name == dst_name:
            raise MigrationError("source and target are the same node")
        hosts = self._replicas.get(slice_id)
        if hosts is None or src_name not in hosts:
            raise MigrationError(
                f"slice {slice_id} has no replica on {src_name!r}"
            )
        if dst_name in hosts:
            raise MigrationError(
                f"slice {slice_id} already has a replica on {dst_name!r}"
            )
        budget = self.migration_budget
        if (
            budget is not None
            and budget.max_concurrent is not None
            and self._migrations_inflight >= budget.max_concurrent
        ):
            raise MigrationError(
                f"migration budget allows {budget.max_concurrent} "
                "concurrent migrations"
            )
        src = self.nodes[src_name]
        dst = self.nodes[dst_name]
        source_slice = hosts[src_name]
        source_lsm = source_slice.lsm
        target_slice = Slice(
            slice_id, source_slice.key_range, lsm=source_lsm.empty_like()
        )
        target_slice.epoch = source_slice.epoch
        # Under a replicated control plane the migration runs under a
        # leadership lease, checked at every transfer and replicated at
        # every phase boundary; with no group every lease call is a no-op.
        group = self.group if self.group is not None else _NO_GROUP
        lease = group.open_lease(slice_id)
        copied: set = set()

        def check():
            src._check_up()
            dst._check_up()
            # Leadership fencing on the data path: the driving replica
            # must still be up and both nodes must accept its term.
            group.check_lease(lease, src, dst)

        def phase(name):
            self._fault_point(name, slice_id)
            yield from group.phase_barrier(name, lease, src_name, dst_name)

        def ship(sources):
            """Ship every not-yet-copied source; returns how many moved.

            Dedup is by freeze token, which survives the pending-patch
            -> registered-run transition: a patch pre-shipped from the
            WAL tail is not re-copied when the source's background flush
            later registers it as a run.  (Compaction, which would
            coalesce tokens, is paused for the whole migration.)
            """
            moved = 0
            for handle, level, token, patch in sources:
                if token in copied:
                    continue
                check()
                if patch is None:
                    patch = yield from src.handle_patch_read(
                        handle, slice_=source_slice
                    )
                yield from self._paced_send(src, dst, patch.nbytes)
                stored = yield from dst.storage.store_patch(patch)
                target_slice.lsm.adopt_run(patch, stored, level, token)
                copied.add(token)
                self.bytes_migrated.add(patch.nbytes)
                moved += 1
            return moved

        self.migrations_started.add()
        self._migrations_inflight += 1
        start_ns = self.sim.now
        committed = False
        try:
            yield from phase("prepare")
            check()
            yield from self._hold(source_slice)
            dst.add_slice(target_slice, importing=True)
            # -- copy: snapshot of the registered runs --
            yield from phase("copy")
            yield from ship(_sources(source_lsm, pending=False))
            # -- catch-up: runs flushed while we were copying.  Under a
            # steady write stream each pass finds the runs that landed
            # during the previous one, so chasing to zero may never
            # terminate; once a pass moves <= 1 run the delta is small
            # enough for the stop-and-copy cutover to absorb.
            yield from phase("catchup")
            while True:
                moved = yield from ship(_sources(source_lsm, pending=False))
                if moved <= 1:
                    break
            yield from phase("cutover")
            # Pre-ship the WAL tail (pending patches + force-frozen
            # memtable) while writes still flow, so the write-blocked
            # window below only has to move the last few milliseconds
            # of traffic -- short enough that blocked writers ride it
            # out inside their redirect-retry budget.
            source_lsm.flush()
            yield from ship(_sources(source_lsm, runs=False))
            yield from ship(_sources(source_lsm, pending=False))
            source_slice.write_blocked = True
            # Final delta: whatever landed between the pre-ship and the
            # write block.  These are the acked writes whose durability
            # still rests on the source WAL; adopting them as stored
            # runs on the target makes them durable there before the
            # commit.
            yield from ship(_sources(source_lsm, pending=False))
            source_lsm.flush()
            yield from ship(_sources(source_lsm, runs=False))
            # -- commit: atomic (no yields between here and publish) --
            check()
            # Exactly-one-cutover guard: only the current leader at the
            # quorum-agreed term may flip routing.
            group.fence_publish(lease)
            epoch = self._next_epoch
            self._next_epoch += 1
            source_slice.epoch = epoch  # stale stamps die on the source
            target_slice.epoch = epoch
            dst.finish_import(target_slice)
            src.remove_slice(source_slice)
            del hosts[src_name]
            hosts[dst_name] = target_slice
            old = self.table.entry(slice_id)
            self.table.publish(
                replace(
                    old,
                    epoch=epoch,
                    replicas=tuple(
                        dst_name if name == src_name else name
                        for name in old.replicas
                    ),
                )
            )
            committed = True
            group._settle(lease, RECORD_COMMITTED)
            self._load_marks.pop(slice_id, None)
            source_slice.write_blocked = False
            # -- cleanup: the source copy is garbage now --
            yield from phase("cleanup")
            for run in source_lsm.runs_snapshot():
                yield from src.storage.free_patch(run.handle)
            self.migrations_completed.add()
            if self.obs is not None and self.obs.trace.enabled:
                self.obs.trace.span(
                    "cluster/migration",
                    f"slice{slice_id}:{src_name}->{dst_name}",
                    start_ns,
                    self.sim.now,
                    epoch=epoch,
                )
        except Exception as exc:
            if committed:
                if not isinstance(exc, TransientFault):
                    raise
                # Only cleanup was interrupted: the target is already
                # authoritative; the source copy leaks until a retry of
                # cleanup (harmless -- space, not correctness).
                self.migrations_completed.add()
                return target_slice
            # Roll back everything done on the target: discard the
            # importing twin and give back every unit its adopted runs
            # hold -- also when a new leader's resolve_inflight has
            # already unhooked the twin, which leaves the units to this
            # driver.  Routing never changed, so clients were never
            # redirected; every acked write is still durable on the
            # source (its runs, WAL and ledgered state are untouched).
            if target_slice in dst.slices:
                dst.remove_slice(target_slice)
            group._settle(lease, RECORD_ABORTED)
            self.migrations_aborted.add()
            if self.obs is not None:
                self.obs.metrics.counter("cluster.migration_aborts").add(1)
            self._instant("cluster/migration", f"abort:slice{slice_id}")
            for run in target_slice.lsm.runs_snapshot():
                yield from dst.storage.free_patch(run.handle)
            raise
        finally:
            self._migrations_inflight -= 1
            # A fenced driver whose slice a *newer* leadership has
            # since taken over must leave the shared migration flags
            # alone -- the new migration owns them now.
            if group.lease_current(lease):
                self._release(source_slice)
            if not committed:
                # Wake the source compactor in case holds piled up.
                poke = src._compaction_pokes.get(source_slice.slice_id)
                if poke is not None:
                    poke.put(True)
        return target_slice

    def _hold(self, slice_: Slice):
        """Generator: stop new merges on ``slice_`` and wait out one
        already in flight -- it would otherwise free run handles under
        the copy.  The hold stops new merges from starting, so this
        terminates; :meth:`_release` lifts it."""
        slice_.migration_hold = True
        while slice_.compaction_active:
            yield self.sim.timeout(MS)

    @staticmethod
    def _release(slice_: Slice) -> None:
        slice_.migration_hold = False
        slice_.write_blocked = False

    def _paced_send(self, src, dst, nbytes: int):
        """Network transfer, throttled under the migration copy budget."""
        budget = self.migration_budget
        if budget is not None and budget.copy_mb_per_s is not None:
            from repro.sim.units import transfer_ns

            now = self.sim.now
            if self._budget_free_ns > now:
                yield self.sim.timeout(self._budget_free_ns - now)
            self._budget_free_ns = max(self._budget_free_ns, self.sim.now) + (
                transfer_ns(nbytes, budget.copy_mb_per_s)
            )
        yield from self.network.send(src.nic, dst.nic, nbytes)

    def _fault_point(self, phase: str, slice_id: int) -> None:
        """Abort-here hook consulted at each phase boundary."""
        event = self.faults.fires(
            MIGRATION_ABORT, phase=phase, slice_id=slice_id
        )
        if event is not None:
            raise TransientFault(
                f"injected migration abort at {phase} for slice {slice_id}"
            )

    def _instant(self, track: str, name: str) -> None:
        """A trace instant, when an attached trace is enabled."""
        if self.obs is not None and self.obs.trace.enabled:
            self.obs.trace.instant(track, name, self.sim.now)

    # -- split / merge -----------------------------------------------------------------
    def split_slice(self, slice_id: int, at):
        """Generator: split one slice into two at key ``at``.

        Every replica rewrites its runs: each patch is read, its items
        partitioned by the split point, and the halves stored and
        adopted into the two child slices (the one rewrite pays for
        permanently smaller compactions on both children).  The
        memtables split synchronously.  Children get fresh slice ids
        and a fresh epoch, so stale-routed requests are redirected.
        Returns ``(low_id, high_id)``.
        """
        entry = self.table.entry(slice_id)
        low_range, high_range = entry.key_range.split(at)
        low_id = self._next_slice_id
        high_id = self._next_slice_id + 1
        self._next_slice_id += 2
        epoch = self._next_epoch
        self._next_epoch += 1
        low_hosts: Dict[str, Slice] = {}
        high_hosts: Dict[str, Slice] = {}
        for name in entry.replicas:
            server = self.nodes[name]
            parent = self._replicas[slice_id][name]
            yield from self._hold(parent)
            try:
                low, high = children = [
                    Slice(child_id, child_range, lsm=parent.lsm.empty_like())
                    for child_id, child_range in (
                        (low_id, low_range),
                        (high_id, high_range),
                    )
                ]
                for child in children:
                    child.epoch = epoch
                # Rewrite runs: one read per parent patch, one store per
                # non-empty half.
                parent.write_blocked = True
                parent.lsm.flush()
                sources = _sources(parent.lsm)
                for handle, level, token, patch in sources:
                    if patch is None:
                        patch = yield from server.handle_patch_read(
                            handle, slice_=parent
                        )
                    for child in children:
                        part = patch.restricted_to(child.key_range)
                        if part is None:
                            continue
                        new_handle = yield from server.storage.store_patch(
                            part
                        )
                        child.lsm.adopt_run(part, new_handle, level, token)
                # Commit for this replica (synchronous).
                server.add_slice(low)
                server.add_slice(high)
                server.remove_slice(parent)
                low_hosts[name] = low
                high_hosts[name] = high
                for handle, _level, _token, patch in sources:
                    if patch is None:
                        yield from server.storage.free_patch(handle)
            finally:
                self._release(parent)
        self._replicas[low_id] = low_hosts
        self._replicas[high_id] = high_hosts
        del self._replicas[slice_id]
        self._load_marks.pop(slice_id, None)
        self.table.drop(slice_id)
        self.table.publish(
            SliceLocation(low_id, low_range, epoch, entry.replicas)
        )
        self.table.publish(
            SliceLocation(high_id, high_range, epoch, entry.replicas)
        )
        self.splits.add()
        self._instant(
            "cluster/topology", f"split:slice{slice_id}->({low_id},{high_id})"
        )
        return low_id, high_id

    def merge_slices(self, low_id: int, high_id: int):
        """Generator: merge two adjacent slices into one.

        Cheap compared to a split: every registered run of both parents
        is adopted as-is into the merged child (runs are range-disjoint,
        so no rewrite is needed); only the memtables are frozen and
        re-stored.  Both parents must live on the same replica set.
        Returns the merged slice id.
        """
        low_entry = self.table.entry(low_id)
        high_entry = self.table.entry(high_id)
        if low_entry.replicas != high_entry.replicas:
            raise MigrationError(
                "merge needs both slices on the same replica set; got "
                f"{low_entry.replicas} vs {high_entry.replicas}"
            )
        merged_range = low_entry.key_range.merged_with(high_entry.key_range)
        merged_id = self._next_slice_id
        self._next_slice_id += 1
        epoch = self._next_epoch
        self._next_epoch += 1
        merged_hosts: Dict[str, Slice] = {}
        for name in low_entry.replicas:
            server = self.nodes[name]
            parents = [
                self._replicas[low_id][name],
                self._replicas[high_id][name],
            ]
            merged = Slice(
                merged_id, merged_range, lsm=parents[0].lsm.empty_like()
            )
            merged.epoch = epoch
            try:
                # Both parents of a split share their ancestor's freeze
                # tokens, so the merged LSM must re-sequence: gather all
                # runs + pending patches, order them by original token
                # (ties broken by range -- disjoint, so shadowing is
                # unaffected) and adopt with fresh consecutive tokens.
                sources = []
                for parent in parents:
                    yield from self._hold(parent)
                    parent.write_blocked = True
                    parent.lsm.flush()
                    sources += [(s, parent) for s in _sources(parent.lsm)]
                sources.sort(key=lambda s: (s[0][2], s[1].key_range.lo))
                for token, (source, parent) in enumerate(sources):
                    handle, level, _, patch = source
                    if patch is None:
                        patch = yield from server.handle_patch_read(
                            handle, slice_=parent
                        )
                    else:
                        handle = yield from server.storage.store_patch(patch)
                    merged.lsm.adopt_run(patch, handle, level, token)
                server.add_slice(merged)
                for parent in parents:
                    server.remove_slice(parent)
                merged_hosts[name] = merged
            finally:
                for parent in parents:
                    self._release(parent)
        self._replicas[merged_id] = merged_hosts
        del self._replicas[low_id]
        del self._replicas[high_id]
        self._load_marks.pop(low_id, None)
        self._load_marks.pop(high_id, None)
        self.table.drop(low_id)
        self.table.drop(high_id)
        self.table.publish(
            SliceLocation(merged_id, merged_range, epoch, low_entry.replicas)
        )
        self.merges.add()
        self._instant(
            "cluster/topology", f"merge:({low_id},{high_id})->slice{merged_id}"
        )
        return merged_id

    # -- rebalancing -------------------------------------------------------------------
    @staticmethod
    def _slice_bytes(slice_: Slice) -> int:
        return slice_.bytes_read.value + slice_.bytes_written.value

    def slice_load(self, slice_id: int) -> int:
        """Bytes served by one slice since the last :meth:`rebalance`
        consumed its counters (summed across replicas)."""
        total = sum(
            self._slice_bytes(s) for s in self._replicas[slice_id].values()
        )
        return total - self._load_marks.get(slice_id, 0)

    def node_load(self, name: str) -> int:
        """Bytes served by one node since the last rebalance pass."""
        return sum(
            self.slice_load(sid)
            for sid, hosts in self._replicas.items()
            if name in hosts
        )

    def rebalance(self, imbalance: float = 2.0):
        """Generator: one load-driven move, if the cluster is skewed.

        Compares per-node bytes served since the previous pass.  When
        the hottest node carries more than ``imbalance`` times the
        coldest (and has more than one slice to give), its hottest
        slice migrates to the coldest node.  Returns a
        ``(slice_id, src, dst)`` tuple for the move made, or ``None``
        when the cluster is balanced.  Load watermarks reset either
        way, so each pass looks at fresh traffic.

        A pass that moves a slice puts the rebalancer on a one-pass
        cooldown: requests queued behind the cutover drain as a burst
        at the new replica, and acting on that burst would read it as
        load skew and thrash the slice straight back.
        """
        eligible = [
            name
            for name in sorted(self.nodes)
            if name not in self.draining and self.nodes[name].up
        ]
        move = None
        if self._rebalance_cooldown > 0:
            self._rebalance_cooldown -= 1
            eligible = []
        if len(eligible) >= 2:
            loads = {name: self.node_load(name) for name in eligible}
            hot = max(eligible, key=lambda n: (loads[n], n))
            cold = min(eligible, key=lambda n: (loads[n], n))
            hot_slices = [
                sid
                for sid, hosts in self._replicas.items()
                if hot in hosts and cold not in hosts
            ]
            if (
                hot != cold
                and hot_slices
                and len(self.nodes[hot].slices) > 1
                and loads[hot] > imbalance * max(loads[cold], 1)
            ):
                victim = max(
                    hot_slices, key=lambda sid: (self.slice_load(sid), sid)
                )
                yield from self.migrate_slice(victim, hot, cold)
                self.rebalance_moves.add()
                self._rebalance_cooldown = 1
                move = (victim, hot, cold)
        # Reset watermarks so the next pass sees fresh deltas.
        for sid, hosts in self._replicas.items():
            self._load_marks[sid] = sum(
                self._slice_bytes(s) for s in hosts.values()
            )
        return move

    def __repr__(self):
        return (
            f"ClusterController({len(self.nodes)} nodes, "
            f"{len(self._replicas)} slices, table v{self.table.version})"
        )
