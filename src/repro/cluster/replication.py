"""System-level replication (paper S2.2).

SDF drops on-device parity because "data reliability is provided by
data replication across multiple racks": CCDB replicates each slice
over several server nodes.  :class:`ReplicatedKV` writes every value to
all live replicas and reads with replica failover; the robustness
behaviours the paper assumes host software provides live here:

* **failover ordering** -- reads try healthy, in-sync replicas first
  and never touch a replica known to be missing the key (no stale
  reads);
* **degraded mode** -- with a replica down, writes are acknowledged
  once every *live* replica has them, and the missed keys are kept in a
  per-replica ledger;
* **timeouts + backoff** -- with a :class:`~repro.faults.retry.RetryPolicy`,
  each replica attempt is bounded in time and exhausted rounds back off
  exponentially with jitter before retrying;
* **resync** -- :meth:`heal` replays a restarted replica's missed keys
  from its peers.

Fault injection goes through :mod:`repro.faults`: attaching a
``ReplicatedKV`` to a fault plan wires the ``replication`` site (the
read-path BCH-failure stand-in) and has every replica's site resync it
after a recovery.

With a ``router`` -- a callable returning the slice's *current* replica
servers, typically
:meth:`repro.cluster.control.ClusterController.replica_router` -- the
replica set is resolved from the routing table on every operation, so
membership changes made by the control plane take effect without
rebuilding the ``ReplicatedKV``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.node import StorageServer
from repro.errors import ClusterError, PermanentFault, TransientFault
from repro.faults.injector import NULL_INJECTOR, READ_UNCORRECTABLE
from repro.faults.retry import RetryPolicy, defuse_on_failure, race_with_timeout
from repro.sim import Simulator
from repro.sim.stats import Counter


class ReplicaReadError(PermanentFault, ClusterError):
    """Every replica failed a read: real data loss (or total outage)."""


class ReplicaWriteError(PermanentFault, ClusterError):
    """No live replica could accept a write; nothing was acknowledged."""


class ReplicatedKV:
    """A key's value stored on every replica of its slice.

    The replica set is either the fixed ``servers`` list (the original
    behaviour) or resolved per operation through ``router`` (a callable
    returning the current list of :class:`StorageServer`\\ s).

    ``faults`` is the ``replication`` site's injector once a fault plan
    is attached; its ``read_uncorrectable`` rules stand in for the
    wear-driven BCH failures of :class:`repro.ecc.model.EccModel`.
    ``retry`` enables per-attempt timeouts with exponential backoff;
    without it reads make a single failover pass (the original
    behaviour).
    """

    def __init__(
        self,
        sim: Simulator,
        servers: Optional[List[StorageServer]] = None,
        rng: Optional[np.random.Generator] = None,
        retry: Optional[RetryPolicy] = None,
        breakers: Optional[List] = None,
        router: Optional[Callable[[], List[StorageServer]]] = None,
    ):
        if router is None:
            if not servers:
                raise ValueError("need at least one replica server")
        else:
            if servers is not None:
                raise ValueError("pass a fixed server list or a router, not both")
            if breakers is not None:
                raise ValueError(
                    "per-replica breakers need a fixed replica set; "
                    "they cannot follow a dynamic router"
                )
        if breakers is not None and len(breakers) != len(servers):
            raise ValueError(
                f"need one breaker per replica: got {len(breakers)} "
                f"breakers for {len(servers)} servers"
            )
        self.sim = sim
        self._servers = list(servers) if servers is not None else None
        self.router = router
        self.rng = rng
        self.faults = NULL_INJECTOR
        self.retry = retry
        #: Optional per-replica :class:`~repro.qos.breaker.CircuitBreaker`
        #: list (index-aligned with ``servers``).  Opting in also bounds
        #: each *write* attempt by ``retry.timeout_ns``, so a replica in
        #: brownout trips its breaker instead of stalling every put --
        #: timed-out replicas go to the missed ledger and are healed
        #: later, exactly like replicas that were down.
        self.breakers = breakers
        #: keys each replica missed while down, in arrival order.  Keyed
        #: by the server object so the ledger follows a replica through
        #: routing-table membership changes.
        self._behind: Dict[object, Dict[object, bool]] = {}
        for server in self._servers or ():
            self._behind[server] = {}
        #: per-key write sequence, bumped synchronously when a put is
        #: issued; :meth:`heal` uses it to detect writes racing with a
        #: resync copy (which could otherwise resurrect a stale value).
        self._write_seq: Dict[object, int] = {}
        self.recoveries = Counter("replication.recoveries")
        self.data_loss_events = Counter("replication.data_loss")
        self.degraded_writes = Counter("replication.degraded_writes")
        self.degraded_reads = Counter("replication.degraded_reads")
        self.timeouts = Counter("replication.timeouts")
        self.resynced_keys = Counter("replication.resynced_keys")

    @property
    def servers(self) -> List[StorageServer]:
        """The current replica set (fixed list, or resolved per call)."""
        if self.router is not None:
            return list(self.router())
        return self._servers

    @property
    def replication_factor(self) -> int:
        """Number of replicas."""
        return len(self.servers)

    def _ledger(self, server) -> Dict[object, bool]:
        """The missed-key ledger for one replica (created on first use)."""
        ledger = self._behind.get(server)
        if ledger is None:
            ledger = self._behind[server] = {}
        return ledger

    def behind_count(self, index: Optional[int] = None) -> int:
        """Keys a replica (or all replicas) still owes."""
        if index is not None:
            return len(self._ledger(self.servers[index]))
        return sum(len(b) for b in self._behind.values())

    # -- writes ---------------------------------------------------------------------
    def put(self, key, value):
        """Generator: write to every live replica in parallel.

        Acknowledged once every replica that was up at issue time has
        the value; down replicas get the key recorded in their missed
        ledger for :meth:`heal`.  Raises :class:`ReplicaWriteError` when
        no replica accepts the write (nothing acknowledged).
        """
        self._write_seq[key] = self._write_seq.get(key, 0) + 1
        servers = self.servers  # one consistent membership snapshot
        writers = []
        for index, server in enumerate(servers):
            if not server.up:
                self._ledger(server)[key] = True
                continue
            if self.breakers is not None and not self.breakers[index].allow():
                # Fast local failure: the replica is presumed unhealthy,
                # so record the debt for heal() instead of feeding load
                # to a node already in trouble.
                self._ledger(server)[key] = True
                continue
            # Defused up front: a replica crashing under writer N+1 while
            # we still await writer N must reach us at our yield, not
            # crash the kernel's unobserved-failure check.
            writers.append(
                (
                    index,
                    server,
                    defuse_on_failure(
                        self.sim.process(server.handle_put(key, value))
                    ),
                )
            )
        acked = 0
        last_error: Optional[BaseException] = None
        for index, server, proc in writers:
            try:
                if self.breakers is not None and self.retry is not None:
                    # With breakers opted in, a write attempt is bounded
                    # in time too: a replica in brownout times out, goes
                    # to the missed ledger, and trips its breaker.  (Its
                    # abandoned write may still land; heal() re-copies
                    # the current value, so that is harmless.)
                    done, _ = yield from race_with_timeout(
                        self.sim, proc, self.retry.timeout_ns
                    )
                    if not done:
                        self.timeouts.add()
                        self.breakers[index].record_failure()
                        self._ledger(server)[key] = True
                        last_error = TimeoutError(
                            f"replica {index} write of {key!r} exceeded "
                            f"{self.retry.timeout_ns} ns"
                        )
                        continue
                else:
                    yield proc
            except TransientFault as exc:  # crashed while the put ran
                if self.breakers is not None:
                    self.breakers[index].record_failure()
                self._ledger(server)[key] = True
                last_error = exc
                continue
            if self.breakers is not None:
                self.breakers[index].record_success()
            acked += 1
            # The replica now holds the newest value, even if it was
            # behind on this key before (e.g. written mid-resync).
            self._ledger(server).pop(key, None)
        if acked == 0:
            raise ReplicaWriteError(
                f"no live replica accepted the write of {key!r}"
            ) from last_error
        if acked < len(servers):
            self.degraded_writes.add()

    # -- reads ----------------------------------------------------------------------
    def _failover_order(self, servers, key) -> List[int]:
        """Replica indexes to try, best candidates first.

        Down replicas are excluded (their requests would only burn a
        timeout) and so are replicas known to be missing this key --
        reading one could return a stale miss.  With every replica
        healthy this is simply ``0..n-1``, preserving the historical
        read order.
        """
        return [
            index
            for index, server in enumerate(servers)
            if server.up and key not in self._ledger(server)
        ]

    def get(self, key):
        """Generator -> value; fails over across replicas on errors.

        With a :class:`~repro.faults.retry.RetryPolicy` each attempt is
        bounded by ``timeout_ns`` and exhausted passes back off before
        retrying (replicas may come back); without one a single failover
        pass is made.  Raises :class:`ReplicaReadError` when every
        attempt fails.
        """
        policy = self.retry
        max_rounds = policy.max_attempts if policy is not None else 1
        last_error: Optional[BaseException] = None
        for round_no in range(max_rounds):
            if round_no > 0:
                yield self.sim.timeout(
                    policy.backoff_ns(round_no - 1, self.rng)
                )
            servers = self.servers  # re-resolved: replicas may have moved
            candidates = self._failover_order(servers, key)
            if candidates and len(candidates) < len(servers):
                self.degraded_reads.add()
            for order, index in enumerate(candidates):
                server = servers[index]
                breaker = (
                    self.breakers[index] if self.breakers is not None else None
                )
                if breaker is not None and not breaker.allow():
                    last_error = ReplicaReadError(
                        f"breaker open for replica {index}"
                    )
                    continue
                try:
                    if policy is None:
                        value = yield from server.handle_get(key)
                    else:
                        proc = self.sim.process(server.handle_get(key))
                        done, value = yield from race_with_timeout(
                            self.sim, proc, policy.timeout_ns
                        )
                        if not done:
                            self.timeouts.add()
                            if breaker is not None:
                                breaker.record_failure()
                            last_error = TimeoutError(
                                f"replica {index} exceeded "
                                f"{policy.timeout_ns} ns for {key!r}"
                            )
                            continue
                except KeyError as exc:  # replica lost the key somehow
                    last_error = exc
                    continue
                except TransientFault as exc:  # died mid-request
                    if breaker is not None:
                        breaker.record_failure()
                    last_error = exc
                    continue
                if breaker is not None:
                    breaker.record_success()
                if (
                    self.faults.fires(
                        READ_UNCORRECTABLE, replica=index, key=key
                    )
                    is not None
                ):
                    last_error = ReplicaReadError(
                        f"uncorrectable read of {key!r} on replica {index}"
                    )
                    self.recoveries.add()
                    continue
                if order > 0 or round_no > 0:
                    self.faults.note(
                        "replica_failover", key=key, served_by=index
                    )
                return value
        self.data_loss_events.add()
        raise ReplicaReadError(
            f"all {self.replication_factor} replicas failed for {key!r}"
        ) from last_error

    # -- recovery --------------------------------------------------------------------
    def heal(self, index: int):
        """Generator: resync a restarted replica from its peers.

        Replays every key the replica missed while down by reading the
        current value from the healthy replicas and writing it back.  A
        key that reads as a miss is replayed as a delete.  A fault plan
        the ``ReplicatedKV`` is attached to runs it after every recovery
        at replica ``index``'s site.

        Resync copies race with live writes: a put issued between our
        read and our write-back would be overwritten with the older
        value.  Each read therefore snapshots ``_write_seq[key]`` and is
        retried if the sequence moved before the write-back is issued;
        once issued, the per-slice FIFO guarantees any later put lands
        after it.  Puts that reach the replica directly clear the ledger
        entry themselves, so such keys are simply skipped here.
        """
        server = self.servers[index]
        if not server.up:
            raise RuntimeError(f"replica {index} is still down; restart first")
        ledger = self._ledger(server)
        resynced = 0
        for key in list(ledger):
            if key not in ledger:
                continue  # a live put already brought this key in sync
            while True:
                seq = self._write_seq.get(key, 0)
                value = yield from self.get(key)
                if self._write_seq.get(key, 0) != seq:
                    continue  # raced with a writer; re-read
                if value is None:
                    yield from server.handle_delete(key)
                else:
                    yield from server.handle_put(key, value)
                break
            ledger.pop(key, None)
            self.resynced_keys.add()
            resynced += 1
        if resynced:
            self.faults.note("replica_resync", replica=index, keys=resynced)