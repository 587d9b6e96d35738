"""The storage server node (paper S3.1, Table 2).

A :class:`StorageServer` hosts one or more CCDB slices over one storage
adapter.  It:

* routes each request to the slice owning its key;
* serves gets with the one-device-read guarantee;
* serves puts into the slice's memtable, flushing full 8 MB patches to
  storage from background processes (with bounded pending patches, so
  sustained writers feel storage backpressure);
* runs per-slice background compaction -- the internal read/write
  traffic that Figure 14 measures.

A get, a put and a patch read are continuations (``handle_*_call``:
one object each, whose bound methods are the callbacks); ``handle_get``,
``handle_put`` and ``handle_patch_read`` are their generator form.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.network import Nic, TEN_GBE_MB_S
from repro.cluster.storage import (
    BlockLayerExtents,
    LpnExtents,
    PatchStore,
    ZoneExtents,
)
from repro.errors import ClusterError, TransientFault, WrongEpochError
from repro.kv.common import TOMBSTONE, PlaceholderValue, sizeof_value
from repro.kv.compaction import drain_compactions, split_patch
from repro.kv.slice import Slice
from repro.qos.admission import DeadlineExceededError
from repro.sim import Resource, Simulator, Store
from repro.sim.process import bridged
from repro.sim.stats import Counter, ThroughputMeter
from repro.sim.units import transfer_ns

#: Table 2: client and server node configuration.
SERVER_CONFIG = {
    "cpu": "2x Intel E5620, 2.4 GHz",
    "memory_gb": 32,
    "os": "Linux 2.6.32 kernel",
    "nic": "2x Intel 82599 10 GbE",
}


class NodeDownError(TransientFault, ClusterError):
    """Request sent to a crashed server; callers fail over or retry."""


class _ServerRequest:
    """What a get, a put and a patch read share: admission and routing
    at :meth:`begin`, a turn on the slice's handler thread, and settling
    exactly once.

    The request's steps are bound methods handed to whatever it waits
    on (a handler-thread grant, a timer, the storage read), so nothing
    holds it once it has settled; ``then``/``fail`` are dropped there,
    after the admission slot is returned and before the caller hears.
    """

    __slots__ = (
        "server", "qos", "key", "deadline_ns", "epoch", "tenant", "then",
        "fail", "slice_", "start", "wait_ns", "cpu",
    )

    #: Admission class, and the server's and the slice's counters.
    request_class = server_count = slice_count = ""

    def __init__(self, server, key, deadline_ns, epoch, tenant, then, fail):
        self.server = server
        self.key = key
        self.deadline_ns = deadline_ns
        self.epoch = epoch
        self.tenant = tenant
        self.then = then
        self.fail = fail
        self.slice_ = None

    def begin(self) -> None:
        """Submission: raises what the handler raised before its first
        wait, then queues for the slice's handler thread."""
        server = self.server
        server._check_up()
        qos = self.qos = server.qos
        if qos is not None:
            qos.try_admit(self.request_class, self.deadline_ns, tenant=self.tenant)
        try:
            slice_ = self.slice_
            if slice_ is None:  # a patch read names its slice
                getattr(server, self.server_count).add()
                slice_ = self.slice_ = server.route(self.key, self.epoch)
                getattr(slice_, self.slice_count).add()
            self.start = server.sim._now
            self.cpu = server._slice_cpu[slice_.slice_id].request_call(
                self.dispatched
            )
        except Exception:
            if qos is not None:
                qos.release(self.request_class)
            raise

    def dispatched(self) -> None:
        """The handler thread is ours: charge the dispatch."""
        server = self.server
        sim = server.sim
        self.wait_ns = sim._now - self.start
        sim._schedule_call(self.served, server._slow(self.cpu_ns()))

    def cpu_ns(self) -> int:
        """The dispatch's handler time (a put's copies its value)."""
        return self.server.per_request_cpu_ns

    def served(self) -> None:
        """The dispatch is charged: release the handler thread, go on."""
        raise NotImplementedError

    def release_cpu(self) -> None:
        cpu = self.cpu
        self.cpu = None
        cpu.resource.release(cpu)

    def check_epoch(self) -> None:
        slice_ = self.slice_
        if self.epoch is not None and slice_.epoch != self.epoch:
            # Ownership moved while this request queued; the new owner
            # has the authoritative state now.
            raise WrongEpochError(
                f"slice {slice_.slice_id} moved to epoch "
                f"{slice_.epoch} while request queued"
            )

    def finish(self, result) -> None:
        self.settle(self.then, result)

    def failed(self, exc: BaseException) -> None:
        if self.fail is None:
            raise exc  # settled already: the caller's own step raised
        self.settle(self.fail, exc)

    def settle(self, to, result) -> None:
        self.then = self.fail = None
        if self.qos is not None:
            self.qos.release(self.request_class)
        to(result)


class _Get(_ServerRequest):
    """:meth:`StorageServer.handle_get` as a continuation."""

    __slots__ = ("kind", "size", "value")
    request_class, server_count, slice_count = "read", "gets", "reads"

    def served(self) -> None:
        server = self.server
        slice_ = self.slice_
        self.release_cpu()
        try:
            # The node may have died while this request queued; answering
            # from post-crash DRAM state could serve a stale miss.
            server._check_up()
            self.check_epoch()
            qos = self.qos
            if qos is not None and qos.expired(self.deadline_ns, tenant=self.tenant):
                raise DeadlineExceededError(
                    f"get of {self.key!r} missed its deadline while queued"
                )
            kind, payload = slice_.lsm.get(self.key)
            self.kind = kind
            if kind not in ("value", "miss"):
                self.size = payload.size
                server.storage.read_value_call(
                    payload, self.key, self.read, self.failed
                )
                return
        except Exception as exc:
            self.failed(exc)
            return
        self.done(payload if kind == "value" else None)

    def read(self, value) -> None:
        """The value is off the device: copy it out on the handler."""
        self.value = value
        self.cpu = self.server._slice_cpu[self.slice_.slice_id].request_call(
            self.copying
        )

    def copying(self) -> None:
        server = self.server
        server.sim._schedule_call(
            self.copied,
            server._slow(
                server._cpu_cost_ns(self.size) - server.per_request_cpu_ns
            ),
        )

    def copied(self) -> None:
        self.release_cpu()
        self.done(self.value)

    def done(self, result) -> None:
        server = self.server
        slice_ = self.slice_
        if result is not None:
            slice_.bytes_read.add(sizeof_value(result))
        if server.obs is not None:
            server._note_request(
                "get", slice_, self.start, self.wait_ns,
                tenant=self.tenant, source=self.kind,
            )
        self.finish(result)


class _Put(_ServerRequest):
    """:meth:`StorageServer.handle_put` as a continuation."""

    __slots__ = ("value", "stalled", "frozen", "flush_epoch", "slot")
    request_class, server_count, slice_count = "write", "puts", "writes"

    def cpu_ns(self) -> int:
        return self.server._cpu_cost_ns(sizeof_value(self.value))

    def served(self) -> None:
        self.release_cpu()
        self.stalled = None
        self.looked()

    def looked(self) -> None:
        """At the write-stall gate (AdmissionController.write_stall): go
        on, or wait ``stall_delay_ns`` -- then go on after a stall, look
        again after a stop."""
        server = self.server
        qos = self.qos
        try:
            if self.stalled is None:
                # A put must never be acknowledged out of a dead epoch: the
                # memtable it would land in no longer backs any acked state.
                server._check_up()
            pressure = "ok"
            if qos is not None:
                pressure = qos.write_stall(self.slice_, self.deadline_ns)
        except Exception as exc:
            self.failed(exc)
            return
        if pressure != "ok":
            if self.stalled is None:
                self.stalled = server.sim._now
            server.sim._schedule_call(
                self.looked if pressure == "stop" else self.gated,
                qos.stall.stall_delay_ns,
            )
        elif self.stalled is None:
            self.insert()
        else:
            self.gated()

    def gated(self) -> None:
        self.qos.write_stalled(self.stalled)
        try:
            self.server._check_up()
        except Exception as exc:
            self.failed(exc)
            return
        self.insert()

    def insert(self) -> None:
        server = self.server
        slice_ = self.slice_
        try:
            # Cutover freeze: the migration's final tail transfer has
            # snapshotted (or is about to snapshot) this memtable, so no
            # new write may land in it.  The client retries; by then the
            # epoch bump has redirected it to the new owner.  This check
            # sits immediately before the (synchronous) memtable insert
            # so nothing can slip in between.
            if slice_.write_blocked:
                raise WrongEpochError(
                    f"slice {slice_.slice_id} is frozen for migration cutover"
                )
            self.check_epoch()
            frozen = slice_.lsm.put(self.key, self.value)
            slice_.bytes_written.add(sizeof_value(self.value))
        except Exception as exc:
            self.failed(exc)
            return
        if frozen is None:
            self.done(False)
            return
        # Capture the epoch before blocking on a flush slot: if the node
        # crashes while we wait, the frozen patch was wiped with the
        # rest of volatile state and must not be registered.
        self.frozen = frozen
        self.flush_epoch = server._epoch
        self.slot = server._flush_slots[slice_.slice_id].request_call(
            self.slotted
        )

    def slotted(self) -> None:
        server = self.server
        server.sim.process(
            server._flush(self.slice_, self.frozen, self.slot, self.flush_epoch)
        )
        self.done(True)

    def done(self, flushed: bool) -> None:
        if self.server.obs is not None:
            self.server._note_request(
                "put", self.slice_, self.start, self.wait_ns,
                tenant=self.tenant, flush=flushed,
            )
        self.finish(None)


class _PatchRead(_ServerRequest):
    """:meth:`StorageServer.handle_patch_read` as a continuation: the
    ``scan`` class, a turn on the named slice's handler thread and one
    dispatch, then the whole patch off the device."""

    __slots__ = ("handle",)
    request_class = "scan"

    def served(self) -> None:
        self.release_cpu()
        try:
            self.server.storage.read_patch_call(
                self.handle, self.finish, self.failed
            )
        except Exception as exc:
            self.failed(exc)


class StorageServer:
    """One storage node hosting CCDB slices."""

    def __init__(
        self,
        sim: Simulator,
        storage,
        slices: List[Slice],
        per_request_cpu_ns: int = 200_000,
        copy_mb_per_s: float = 1250.0,
        max_pending_patches: int = 2,
        enable_compaction: bool = True,
        nic: Optional[Nic] = None,
        wal_replay_ns_per_record: int = 2_000,
    ):
        self.sim = sim
        self.storage = storage
        #: The device under the storage, whatever its kind.
        self.device = storage.device
        self.slices = list(slices)
        self.per_request_cpu_ns = per_request_cpu_ns
        self.copy_mb_per_s = copy_mb_per_s
        self.max_pending_patches = max_pending_patches
        self.enable_compaction = enable_compaction
        self.nic = nic if nic is not None else Nic(
            sim, TEN_GBE_MB_S, lanes=2, name="server"
        )
        self._flush_slots = {
            s.slice_id: Resource(sim, capacity=max_pending_patches)
            for s in self.slices
        }
        # Each slice is served by a single handler thread (CCDB's model):
        # per-request KV processing is serialized per slice, costing a
        # fixed dispatch overhead plus a size-proportional copy/checksum
        # term.  (~0.6 ms for a 512 KB value reproduces the paper's
        # single-slice throughput envelope, Figure 10.)
        self._slice_cpu = {
            s.slice_id: Resource(sim, capacity=1) for s in self.slices
        }
        self._compaction_pokes = {s.slice_id: Store(sim) for s in self.slices}
        self.compaction_read_meter = ThroughputMeter("compaction.read")
        self.compaction_write_meter = ThroughputMeter("compaction.write")
        #: Merges abandoned on a transient storage fault (retried on the
        #: next flush poke; nothing is mutated before ``apply_compaction``).
        self.compaction_aborts = Counter("compaction.aborts")
        self.gets = Counter("server.gets")
        self.puts = Counter("server.puts")
        self.scans = Counter("server.scans")
        #: Optional :class:`repro.obs.Observability`; set by
        #: ``Observability.attach``.
        self.obs = None
        #: Optional :class:`repro.qos.admission.AdmissionController`; set
        #: by ``QosPlan.attach``.  None keeps every request
        #: admitted unconditionally.
        self.qos = None
        #: CPU latency multiplier (brownout fault); 1.0 = healthy.
        self.slowdown = 1.0
        #: Liveness: requests raise :class:`NodeDownError` while False.
        self.up = True
        #: Highest controller leadership term this node has accepted a
        #: command from.  A replicated controller group's new leader
        #: installs its term here on election; commands stamped with an
        #: older term (a deposed leader) are rejected.  0 = never fenced
        #: (the immortal single-controller world).
        self.controller_term = 0
        #: Bumped on every crash; in-flight background work from an
        #: earlier epoch discards its results instead of registering them.
        self._epoch = 0
        self.wal_replay_ns_per_record = wal_replay_ns_per_record
        self.crashes = 0
        self.restarts = 0
        if enable_compaction:
            for slice_ in self.slices:
                sim.process(self._compactor(slice_))

    # -- slice hosting -----------------------------------------------------------------
    def add_slice(self, slice_: Slice, importing: bool = False) -> None:
        """Start hosting a slice (the control plane's placement hook).

        ``importing`` marks a migration target still catching up: it is
        not routable and runs no compactor until
        :meth:`finish_import` flips it live.
        """
        if any(s.slice_id == slice_.slice_id for s in self.slices):
            raise ValueError(f"already hosting slice {slice_.slice_id}")
        slice_.importing = importing
        self.slices.append(slice_)
        self._flush_slots[slice_.slice_id] = Resource(
            self.sim, capacity=self.max_pending_patches
        )
        self._slice_cpu[slice_.slice_id] = Resource(self.sim, capacity=1)
        self._compaction_pokes[slice_.slice_id] = Store(self.sim)
        if self.obs is not None:
            slice_.bind_metrics(self.obs.metrics)
        if self.enable_compaction and not importing:
            self.sim.process(self._compactor(slice_))

    def finish_import(self, slice_: Slice) -> None:
        """Make an imported slice live (post-cutover): it becomes
        routable and its compactor starts."""
        if slice_ not in self.slices:
            raise ValueError(f"not hosting slice {slice_.slice_id}")
        if not slice_.importing:
            raise ValueError(f"slice {slice_.slice_id} is not importing")
        slice_.importing = False
        if self.enable_compaction:
            self.sim.process(self._compactor(slice_))

    def remove_slice(self, slice_: Slice) -> None:
        """Stop hosting a slice (post-migration or post-merge).

        The per-slice resources stay behind so in-flight background
        work (a flush holding a slot, the compactor mid-merge) can
        still release them; the compactor notices the removal at its
        next wake-up and exits.
        """
        if slice_ not in self.slices:
            raise ValueError(f"not hosting slice {slice_.slice_id}")
        self.slices.remove(slice_)
        poke = self._compaction_pokes.get(slice_.slice_id)
        if poke is not None:
            poke.put(True)  # wake the compactor so it can exit

    # -- observability -----------------------------------------------------------------
    def _note_request(
        self,
        kind: str,
        slice_,
        start_ns: int,
        wait_ns: int,
        tenant: Optional[str] = None,
        **args,
    ) -> None:
        obs = self.obs
        now = self.sim.now
        obs.metrics.histogram(f"server.{kind}_ns").record(now - start_ns)
        if tenant is not None:
            # Per-tenant labels: one histogram + counter per (tenant,
            # kind), so a multi-tenant scenario's report can split
            # service latency by tenant without touching the hot path
            # of untagged (tenant=None) requests.
            obs.metrics.histogram(f"tenant.{tenant}.{kind}_ns").record(
                now - start_ns
            )
            obs.metrics.counter(f"tenant.{tenant}.{kind}s").add(1)
        if obs.trace.enabled:
            obs.trace.span(
                f"server/slice{slice_.slice_id}",
                kind,
                start_ns,
                now,
                wait_ns=wait_ns,
                **args,
            )

    # -- crash / recovery --------------------------------------------------------------
    def _check_up(self) -> None:
        if not self.up:
            raise NodeDownError(f"server is down (epoch {self._epoch})")

    def crash(self) -> int:
        """Fail-stop the server *now* (synchronous, no simulated time).

        Volatile per-slice state (memtables, frozen-but-unstored patches)
        is lost; registered runs and the WAL survive.  New requests raise
        :class:`NodeDownError`; requests already past their liveness
        checks run to completion against the post-crash state, modelling
        responses that were in flight when the machine died -- the
        client-side timeout is what bounds those.  Returns the number of
        pending patches lost.
        """
        if not self.up:
            raise RuntimeError("crash() on a server that is already down")
        self.up = False
        self._epoch += 1
        self.crashes += 1
        lost = 0
        for slice_ in self.slices:
            lost += slice_.lsm.lose_volatile()
        if self.obs is not None:
            self.obs.metrics.counter("server.crashes").add(1)
            if self.obs.trace.enabled:
                self.obs.trace.instant(
                    "server/lifecycle",
                    "crash",
                    self.sim.now,
                    epoch=self._epoch,
                    lost_pending=lost,
                )
        return lost

    def restart(self):
        """Generator: bring the server back up, replaying each slice's
        WAL (charged at ``wal_replay_ns_per_record``).  Containers that
        re-freeze during replay are stored before the node goes live, so
        a recovered server serves exactly the acknowledged state.
        """
        if self.up:
            raise RuntimeError("restart() on a server that is up")
        start = self.sim.now
        replayed = 0
        for slice_ in self.slices:
            n_records, refrozen = slice_.lsm.recover()
            replayed += n_records
            for frozen in refrozen:
                handle = yield from self.storage.store_patch(frozen.patch)
                slice_.lsm.register_patch(frozen, handle)
        if replayed:
            yield self.sim.timeout(replayed * self.wal_replay_ns_per_record)
        self.up = True
        self.restarts += 1
        for slice_ in self.slices:
            yield self._compaction_pokes[slice_.slice_id].put(True)
        if self.obs is not None:
            self.obs.metrics.counter("server.restarts").add(1)
            if self.obs.trace.enabled:
                self.obs.trace.span(
                    "server/lifecycle",
                    "wal_replay",
                    start,
                    self.sim.now,
                    records=replayed,
                )
        return replayed

    # -- brownout (degraded-mode) ------------------------------------------------------
    def begin_brownout(self, multiplier: float = 10.0) -> None:
        """Degrade the node: every handler CPU charge is multiplied by
        ``multiplier`` until :meth:`end_brownout`.  The node stays up and
        keeps answering -- just slowly, which is exactly the failure mode
        crashes cannot exercise (clients must decide a live-but-slow
        node is not worth waiting for)."""
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1.0, got {multiplier}")
        self.slowdown = float(multiplier)
        if self.obs is not None:
            self.obs.metrics.counter("server.brownouts").add(1)
            if self.obs.trace.enabled:
                self.obs.trace.instant(
                    "server/lifecycle",
                    "brownout_begin",
                    self.sim.now,
                    multiplier=multiplier,
                )

    def end_brownout(self) -> None:
        """Restore healthy request latency."""
        self.slowdown = 1.0
        if self.obs is not None and self.obs.trace.enabled:
            self.obs.trace.instant(
                "server/lifecycle", "brownout_end", self.sim.now
            )

    def _slow(self, ns: int) -> int:
        """Apply the brownout multiplier to one CPU charge."""
        if self.slowdown == 1.0:
            return ns
        return int(ns * self.slowdown)

    # -- controller fencing ------------------------------------------------------------
    def fence_controller(self, term: int) -> None:
        """Accept a controller command stamped with leadership ``term``.

        The same epoch-fencing contract as :meth:`route`, applied to
        controller -> node traffic: a stamp older than the highest term
        this node has seen is a deposed leader still issuing commands,
        and is rejected with :class:`~repro.errors.WrongEpochError` (a
        :class:`~repro.errors.TransientFault`, so the deposed leader's
        migration aborts through the normal rollback path).  A newer
        stamp is adopted, fencing the previous leader from here on.
        """
        if term < self.controller_term:
            raise WrongEpochError(
                f"controller term {term} is stale; node has accepted "
                f"term {self.controller_term}"
            )
        self.controller_term = term

    # -- routing -------------------------------------------------------------------
    def route(self, key, epoch: Optional[int] = None) -> Slice:
        """The live slice owning this key.

        ``epoch`` is the routing epoch the client's cached table stamped
        on the request.  A stale stamp -- or a key this server no longer
        owns -- raises :class:`~repro.errors.WrongEpochError`, telling
        the client to refresh its routing table and retry.  Importing
        slices (migration targets still catching up) are never routable.
        Unstamped requests (``epoch=None``, the single-server fast path)
        keep the historical KeyError on a miss.
        """
        for slice_ in self.slices:
            if slice_.importing or not slice_.owns(key):
                continue
            if epoch is not None and epoch != slice_.epoch:
                raise WrongEpochError(
                    f"slice {slice_.slice_id} is at epoch {slice_.epoch}; "
                    f"request stamped epoch {epoch}"
                )
            return slice_
        if epoch is not None:
            raise WrongEpochError(
                f"no live slice on this server owns key {key!r}"
            )
        raise KeyError(f"no slice on this server owns key {key!r}")

    # -- request handlers ------------------------------------------------------------
    def _cpu_cost_ns(self, nbytes: int) -> int:
        """Slice-handler time: fixed dispatch + size-proportional copy."""
        return self.per_request_cpu_ns + transfer_ns(nbytes, self.copy_mb_per_s)

    def handle_get(
        self,
        key,
        deadline_ns: Optional[int] = None,
        epoch: Optional[int] = None,
        tenant: Optional[str] = None,
    ):
        """Generator -> the value (or None): at most one device read.

        ``deadline_ns`` is the client's propagated absolute deadline:
        with admission control attached, a get whose deadline already
        passed (or passes while queued on the slice CPU) is shed instead
        of served -- it cannot possibly answer in time, so serving it
        would only steal capacity from requests that still can.
        ``epoch`` is the client's routing-table stamp (see :meth:`route`).
        ``tenant`` labels the request for per-tenant metrics and
        admission accounting; ``None`` (the default) changes nothing.
        """
        return bridged(
            self.sim, self.handle_get_call, key, deadline_ns, epoch, tenant
        )

    def handle_get_call(self, key, deadline_ns, epoch, tenant, then, fail) -> None:
        """:meth:`handle_get` as a continuation: ``then(value)`` or
        ``fail(exc)``; raises what the generator raised before its first
        wait."""
        _Get(self, key, deadline_ns, epoch, tenant, then, fail).begin()

    def handle_put(
        self,
        key,
        value,
        deadline_ns: Optional[int] = None,
        epoch: Optional[int] = None,
        tenant: Optional[str] = None,
    ):
        """Generator: insert; blocks only when flushes are backed up.

        With admission control attached, a put is additionally gated on
        the slice's LSM write pressure (RocksDB-style stall/stop on
        flush backlog and level-0 runs), and one whose propagated
        ``deadline_ns`` passed is shed.  ``epoch`` is the client's
        routing-table stamp (see :meth:`route`); ``tenant`` labels the
        request for per-tenant metrics and admission accounting.
        """
        return bridged(
            self.sim, self.handle_put_call, key, value, deadline_ns, epoch,
            tenant,
        )

    def handle_put_call(
        self, key, value, deadline_ns, epoch, tenant, then, fail
    ) -> None:
        """:meth:`handle_put` as a continuation (``then(None)``)."""
        put = _Put(self, key, deadline_ns, epoch, tenant, then, fail)
        put.value = value
        put.begin()

    def handle_delete(
        self,
        key,
        deadline_ns: Optional[int] = None,
        epoch: Optional[int] = None,
        tenant: Optional[str] = None,
    ):
        """Generator: delete = put of a tombstone."""
        yield from self.handle_put(
            key,
            TOMBSTONE,
            deadline_ns=deadline_ns,
            epoch=epoch,
            tenant=tenant,
        )

    def scan_plan(self, lo, hi):
        """All (slice, run) pairs a range scan must read, synchronously
        computed from DRAM metadata."""
        self.scans.add()
        plan = []
        for slice_ in self.slices:
            if slice_.key_range.hi <= lo or slice_.key_range.lo >= hi:
                continue
            memory_items, runs = slice_.lsm.scan_plan(lo, hi)
            plan.append((slice_, memory_items, runs))
        return plan

    def handle_patch_read(
        self,
        handle,
        slice_: Slice,
        deadline_ns: Optional[int] = None,
        tenant: Optional[str] = None,
    ):
        """Generator -> a whole patch (one 8 MB sequential read), on
        ``slice_``'s handler thread like any other request and in the
        ``scan`` admission class (attributed to ``tenant``, if named)."""
        return bridged(
            self.sim, self.handle_patch_read_call, handle, slice_, deadline_ns,
            tenant,
        )

    def handle_patch_read_call(
        self, handle, slice_: Slice, deadline_ns, tenant, then, fail
    ) -> None:
        """:meth:`handle_patch_read` as a continuation (``then(patch)``)."""
        read = _PatchRead(self, None, deadline_ns, None, tenant, then, fail)
        read.handle = handle
        read.slice_ = slice_
        read.begin()

    # -- background work ---------------------------------------------------------------
    def _flush(self, slice_: Slice, frozen, slot, epoch: Optional[int] = None):
        # Capture the slot resource now: if the slice migrates away while
        # this flush is in flight, release must hit the same resource the
        # slot was requested from.
        slots = self._flush_slots[slice_.slice_id]
        if epoch is None:
            epoch = self._epoch
        try:
            handle = yield from self.storage.store_patch(frozen.patch)
            if epoch != self._epoch:
                # The server crashed while this patch was in flight; its
                # records are still (durably) in the WAL, so the stored
                # copy is an orphan -- free it instead of registering.
                yield from self.storage.free_patch(handle)
                return
            slice_.lsm.register_patch(frozen, handle)
            yield self._compaction_pokes[slice_.slice_id].put(True)
        finally:
            slots.release(slot)

    def _compactor(self, slice_: Slice):
        """Per-slice compaction loop: merge whenever the policy asks."""
        pokes = self._compaction_pokes[slice_.slice_id]
        while True:
            yield pokes.get()
            if slice_ not in self.slices:
                return  # slice migrated away or was merged; stand down
            while True:
                if not self.up or slice_.migration_hold:
                    # Stand down while crashed (restart() pokes us awake)
                    # or while the slice is a migration source (the
                    # transfer needs a stable run inventory; the
                    # controller pokes us on release).
                    break
                task = slice_.lsm.pick_compaction()
                if task is None:
                    break
                slice_.compaction_active = True
                try:
                    patches = []
                    for handle in slice_.lsm.run_handles(task):
                        patch = yield from self.storage.read_patch(handle)
                        self.compaction_read_meter.record(
                            self.sim.now, patch.nbytes
                        )
                        patches.append(patch)
                    merged = slice_.lsm.merge_for_task(task, patches)
                    parts = split_patch(
                        merged, self.storage.patch_capacity_bytes
                    )
                    # One batched store: the output parts land on
                    # distinct channels concurrently instead of
                    # serializing the merge tail.
                    new_handles = yield from self.storage.store_patches(parts)
                    for part in parts:
                        self.compaction_write_meter.record(
                            self.sim.now, part.nbytes
                        )
                    freed = slice_.lsm.apply_compaction(
                        task, parts, new_handles
                    )
                    for handle in freed:
                        yield from self.storage.free_patch(handle)
                except TransientFault:
                    # e.g. an uncorrectable page read under the merge.
                    # The LSM has not been touched (apply_compaction is
                    # the only mutation), so abandon this attempt and
                    # stand down until the next flush pokes us.
                    self.compaction_aborts.add()
                    break
                finally:
                    slice_.compaction_active = False

    # -- preloading -------------------------------------------------------------------
    def preload(self, slice_: Slice, keys, value_bytes: int, compact: bool = True):
        """Functionally populate a slice (no simulated time) so read
        experiments start from a realistic on-device state."""
        lsm = slice_.lsm
        storage = self.storage
        for key in keys:
            slice_.require_owns(key)
            frozen = lsm.put(key, PlaceholderValue(value_bytes))
            if frozen is not None:
                handle = storage.functional_store(frozen.patch)
                lsm.register_patch(frozen, handle)
        frozen = lsm.flush()
        if frozen is not None:
            handle = storage.functional_store(frozen.patch)
            lsm.register_patch(frozen, handle)
        if compact:
            drain_compactions(
                lsm,
                storage.functional_load,
                storage.functional_store,
                storage.functional_free,
                storage.patch_capacity_bytes,
            )


def build_storage_server(
    sim: Simulator,
    slices: List[Slice],
    device_kind: str = "sdf",
    capacity_scale: float = 0.05,
    n_channels: Optional[int] = 44,
    spec=None,
    **server_kwargs,
):
    """A storage server over any device kind.

    ``device_kind`` selects the device (see
    ``repro.devices.device_kinds()``) and the extent backend its
    :class:`~repro.cluster.storage.PatchStore` runs on; ``spec`` (the
    conventional family's) goes with ``capacity_scale`` and
    ``n_channels`` straight to ``build_device``, whose builder knows the
    kind's defaults.  ``n_channels=None`` keeps a conventional spec's own.

    Every server exposes its device as ``server.device``; an SDF-backed
    one also the built system as ``server.system``.
    """
    from repro.devices.catalog import build_device

    params = dict(capacity_scale=capacity_scale, n_channels=n_channels)
    system = None
    if device_kind == "sdf":
        from repro.core.api import build_sdf_system

        system = build_sdf_system(sim=sim, **params)
        backend = BlockLayerExtents(system.block_layer)
    elif device_kind == "zoned":
        backend = ZoneExtents(build_device("zoned", sim, **params))
    else:
        # The conventional family (page-mapped, DFTL, hybrid, MQ) all
        # speak the LPN extent interface; store_data: pages hold patch
        # references for value reads.
        backend = LpnExtents(
            build_device(device_kind, sim, spec=spec, store_data=True, **params)
        )
    server = StorageServer(sim, PatchStore(backend), slices, **server_kwargs)
    if system is not None:
        server.system = system
    return server


def build_sdf_server(
    sim: Simulator,
    slices: List[Slice],
    capacity_scale: float = 0.05,
    n_channels: int = 44,
    **server_kwargs,
):
    """A storage server over a freshly built SDF system."""
    return build_storage_server(
        sim,
        slices,
        device_kind="sdf",
        capacity_scale=capacity_scale,
        n_channels=n_channels,
        **server_kwargs,
    )


def build_conventional_server(
    sim: Simulator,
    slices: List[Slice],
    spec=None,
    capacity_scale: float = 0.05,
    **server_kwargs,
):
    """A storage server over a commodity SSD baseline (default: the
    Huawei Gen3), at its spec's own channel count."""
    return build_storage_server(
        sim,
        slices,
        device_kind="conventional",
        capacity_scale=capacity_scale,
        n_channels=None,
        spec=spec,
        **server_kwargs,
    )
