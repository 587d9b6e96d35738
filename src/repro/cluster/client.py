"""Closed-loop KV clients (paper S3.3).

"Each slice is always loaded with requests from a single client; each
client continuously sends synchronous read/write KV requests to one
slice ... one request may contain multiple read/write sub-requests; the
number of sub-requests contained in a request is called the request's
batch size."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cluster.network import Network, Nic, TEN_GBE_MB_S
from repro.cluster.node import StorageServer
from repro.errors import ClusterError, TransientFault, WrongEpochError
from repro.faults.retry import (
    RetryPolicy,
    defuse_on_failure,
    race_with_timeout,
)
from repro.kv.common import PlaceholderValue
from repro.kv.slice import Slice
from repro.qos.breaker import CircuitBreaker, CircuitOpenError
from repro.sim import AllOf, Simulator
from repro.sim.stats import LatencyRecorder, ThroughputMeter


class RequestAbandonedError(ClusterError):
    """A client request exhausted its retry budget."""

#: Size of one KV request/response envelope (headers, key, status).
ENVELOPE_BYTES = 256


@dataclass(frozen=True)
class BatchSpec:
    """Shape of one client's requests."""

    batch_size: int = 1
    value_bytes: int = 512 * 1024
    mode: str = "read"  # "read" or "write"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.value_bytes < 1:
            raise ValueError("value_bytes must be >= 1")
        if self.mode not in ("read", "write"):
            raise ValueError(f"mode must be read/write, got {self.mode!r}")


#: Epoch-redirect retry bounds for routed clients: a stale routing view
#: (or a cutover-frozen slice) is retried after an exponentially growing
#: backoff, refreshing the view each time.
ROUTE_RETRIES = 8
ROUTE_BACKOFF_NS = 100_000  # 100 us, doubling per retry
ROUTE_BACKOFF_CAP_NS = 5_000_000  # 5 ms


class KVClient:
    """One client node driving one slice with synchronous batches.

    With a ``router`` (a :class:`repro.cluster.control.RoutingView`),
    the client resolves the owning server per request from its cached
    routing snapshot and stamps each sub-request with the entry's
    epoch; a :class:`~repro.errors.WrongEpochError` rejection triggers
    a view refresh and a bounded backoff-retry, so requests follow a
    slice through migrations.  Without one, the fixed ``server`` is
    used unconditionally (the original single-owner behaviour, event
    sequence untouched).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        server: StorageServer,
        slice_: Slice,
        spec: BatchSpec,
        keys: Optional[List] = None,
        rng: Optional[np.random.Generator] = None,
        name: str = "client",
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        router=None,
        tenant: Optional[str] = None,
    ):
        self.sim = sim
        self.network = network
        self.server = server
        self.slice = slice_
        self.spec = spec
        self.router = router
        #: Optional tenant label stamped on every request this client
        #: issues, splitting server metrics and admission accounting.
        self.tenant = tenant
        self.keys = keys if keys is not None else []
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.nic = Nic(sim, TEN_GBE_MB_S, lanes=1, name=name)
        self.meter = ThroughputMeter(f"{name}.data")
        self.latency = LatencyRecorder(f"{name}.latency")
        self.requests_completed = 0
        self.requests_retried = 0
        #: Optional per-request timeout/backoff policy.  ``None`` (the
        #: default) keeps the historical fail-fast single attempt.
        self.retry = retry
        #: Optional :class:`~repro.qos.breaker.CircuitBreaker` guarding
        #: this client's server: while open, requests fail locally with
        #: :class:`~repro.qos.breaker.CircuitOpenError` instead of
        #: adding load to a node already in trouble.
        self.breaker = breaker
        self.requests_shed = 0
        self.requests_redirected = 0
        self._write_seq = 0

    # -- key selection ---------------------------------------------------------------
    def _sample_read_keys(self, count: int) -> List:
        if not self.keys:
            raise RuntimeError("read client has no preloaded keys to sample")
        picks = self.rng.integers(0, len(self.keys), size=count)
        return [self.keys[int(i)] for i in picks]

    def _next_write_keys(self, count: int) -> List:
        lo = self.slice.key_range.lo
        hi = self.slice.key_range.hi
        span = hi - lo
        keys = []
        for _ in range(count):
            keys.append(lo + (self._write_seq % span))
            self._write_seq += 1
        return keys

    # -- request loops (generators) ------------------------------------------------------
    def run(self, until_ns: int):
        """Closed loop: issue batches back-to-back until the deadline."""
        while self.sim.now < until_ns:
            yield from self.request_once()

    def request_once(self):
        """One synchronous batched request (the unit the paper measures).

        Without a retry policy or breaker the request runs inline
        (identical event sequence to the original client).  With a retry
        policy, each attempt is raced against ``timeout_ns``; a
        timed-out or transiently failed attempt is abandoned and
        reissued after exponential backoff with jitter, until the
        attempt budget is spent.  A ``budget_ns`` on the policy is a
        total deadline across all attempts, propagated to the server so
        admission control can shed the request once it is doomed.  A
        breaker turns a run of failures into fast local rejections.
        """
        if self.router is not None:
            yield from self._request_once_routed()
            return
        if self.retry is None and self.breaker is None:
            yield from self._attempt_once()
            return
        policy = self.retry
        breaker = self.breaker
        deadline: Optional[int] = None
        if policy is not None and policy.budget_ns is not None:
            deadline = self.sim.now + policy.budget_ns
        max_attempts = policy.max_attempts if policy is not None else 1
        last_error: Optional[BaseException] = None
        for attempt in range(max_attempts):
            if attempt > 0:
                self.requests_retried += 1
                yield self.sim.timeout(
                    policy.backoff_ns(attempt - 1, self.rng)
                )
            if deadline is not None and self.sim.now >= deadline:
                last_error = TimeoutError(
                    f"deadline budget of {policy.budget_ns} ns spent"
                )
                break
            if breaker is not None and not breaker.allow():
                self.requests_shed += 1
                last_error = CircuitOpenError(
                    f"breaker {breaker.name!r} is open"
                )
                continue
            timeout_ns = policy.timeout_ns if policy is not None else None
            if deadline is not None:
                timeout_ns = min(timeout_ns, deadline - self.sim.now)
            proc = self.sim.process(self._attempt_once(deadline_ns=deadline))
            try:
                if timeout_ns is None:
                    # Breaker without a retry policy: single unbounded
                    # attempt, the breaker learning from its outcome.
                    yield proc
                    done = True
                else:
                    done, _ = yield from race_with_timeout(
                        self.sim, proc, timeout_ns
                    )
            except TransientFault as exc:  # dropped message, node down, shed
                if breaker is not None:
                    breaker.record_failure()
                last_error = exc
                continue
            if done:
                if breaker is not None:
                    breaker.record_success()
                return
            if breaker is not None:
                breaker.record_failure()
            last_error = TimeoutError(
                f"request exceeded {timeout_ns} ns"
            )
        raise RequestAbandonedError(
            f"request failed after {max_attempts} attempts"
        ) from last_error

    # -- routed mode -------------------------------------------------------------------
    def _request_once_routed(self):
        """One request against the routing table, following redirects.

        A stale-epoch rejection (the slice moved, or is mid-cutover)
        refreshes the cached view and retries after an exponential
        backoff -- bounded, so a persistently wrong table surfaces as
        :class:`RequestAbandonedError` rather than a livelock.

        A :class:`~repro.faults.retry.RetryPolicy` with a ``budget_ns``
        additionally caps the *total* time spent chasing redirects: no
        refresh-retry starts after the budget is spent (backoffs are
        clipped to the remaining budget so a sleep cannot overshoot it),
        and the deadline propagates to the server.  Without a budget the
        historical attempt-count bound alone applies, event sequence
        untouched.
        """
        policy = self.retry
        deadline: Optional[int] = None
        if policy is not None and policy.budget_ns is not None:
            deadline = self.sim.now + policy.budget_ns
        last_error: Optional[BaseException] = None
        for attempt in range(ROUTE_RETRIES + 1):
            if attempt > 0:
                self.requests_retried += 1
                backoff = min(
                    ROUTE_BACKOFF_NS << (attempt - 1), ROUTE_BACKOFF_CAP_NS
                )
                if deadline is not None:
                    backoff = min(backoff, max(deadline - self.sim.now, 0))
                yield self.sim.timeout(backoff)
                self.router.refresh()
            if deadline is not None and self.sim.now >= deadline:
                raise RequestAbandonedError(
                    f"routed request spent its {policy.budget_ns} ns "
                    f"budget after {attempt} refreshes"
                ) from last_error
            try:
                yield from self._attempt_once(deadline_ns=deadline)
                return
            except (WrongEpochError, KeyError) as exc:
                # WrongEpochError: the slice moved (or is mid-cutover).
                # KeyError: the cached view names a retired node or a
                # since-split slice.  Both mean "refresh and retry".
                self.requests_redirected += 1
                last_error = exc
                continue
        raise RequestAbandonedError(
            f"request still misrouted after {ROUTE_RETRIES} refreshes"
        ) from last_error

    def _route(self, key):
        """The server owning ``key`` and the routing epoch to stamp on
        its sub-request: ``(self.server, None)`` without a router."""
        if self.router is None:
            return self.server, None
        server, entry = self.router.lookup(key)
        return server, entry.epoch

    def _attempt_once(self, deadline_ns: Optional[int] = None):
        """Generator: one request attempt.  The batch enters at the
        first key's server; every sub-request resolves its own owner
        and epoch stamp through :meth:`_route`."""
        spec = self.spec
        start = self.sim.now
        if spec.mode == "read":
            keys = self._sample_read_keys(spec.batch_size)
        else:
            keys = self._next_write_keys(spec.batch_size)
        front, _ = self._route(keys[0])
        envelope = ENVELOPE_BYTES * spec.batch_size
        payload = spec.batch_size * spec.value_bytes
        if spec.mode == "read":
            yield from self.network.send(self.nic, front.nic, envelope)
            # Each sub-response streams back as soon as its sub-request
            # completes (S3.3.1: the server "can send the data back to
            # the client at the same time that it is serving the next
            # sub-request").
            per_sub = spec.value_bytes + ENVELOPE_BYTES

            def sub_read(key):
                server, epoch = self._route(key)
                value = yield from server.handle_get(
                    key,
                    deadline_ns=deadline_ns,
                    epoch=epoch,
                    tenant=self.tenant,
                )
                yield from self.network.send(server.nic, self.nic, per_sub)
                return value

            # Defused at spawn: if several subs fail (drops, a crash),
            # only the first reaches us through the AllOf; the rest must
            # not crash the kernel's unobserved-failure check.
            subs = [
                defuse_on_failure(self.sim.process(sub_read(key)))
                for key in keys
            ]
            yield AllOf(self.sim, subs)
        else:
            yield from self.network.send(
                self.nic, front.nic, payload + envelope
            )

            def sub_write(key):
                server, epoch = self._route(key)
                yield from server.handle_put(
                    key,
                    PlaceholderValue(spec.value_bytes),
                    deadline_ns=deadline_ns,
                    epoch=epoch,
                    tenant=self.tenant,
                )

            subs = [
                defuse_on_failure(self.sim.process(sub_write(key)))
                for key in keys
            ]
            yield AllOf(self.sim, subs)
            yield from self.network.send(front.nic, self.nic, envelope)
        self.meter.record(self.sim.now, payload)
        self.latency.record(self.sim.now - start)
        self.requests_completed += 1


def run_clients(
    sim: Simulator,
    clients: List[KVClient],
    duration_ns: int,
    warmup_ns: int = 0,
):
    """Run every client for ``duration_ns``; returns aggregate MB/s
    measured over the post-warmup window."""
    deadline = sim.now + duration_ns
    measure_from = sim.now + warmup_ns
    procs = [sim.process(client.run(deadline)) for client in clients]
    sim.run(until=AllOf(sim, procs))
    total = sum(
        client.meter.bytes_in(measure_from, sim.now) for client in clients
    )
    elapsed = sim.now - measure_from
    if elapsed <= 0:
        return 0.0
    return total / 1e6 / (elapsed / 1e9)
