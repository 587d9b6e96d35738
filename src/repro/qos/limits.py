"""Bounded-queue limiters for the device layers.

:class:`ChannelQosState` caps the flash ops admitted to one
:class:`~repro.channel.engine.ChannelEngine`; ops beyond the bound wait
*before* contending for the channel's planes and bus, so the queue the
hardware sees stays shallow and the wait surfaces as backpressure to
whoever issued the op (the block layer, and transitively the LSM flush
path).  :class:`BlockWriteLimiter` does the same one level up for whole
8 MB block writes.

Both are deterministic and FIFO; the block-write limiter is invisible
(no extra events) until a write actually has to wait, and a channel
admission costs exactly one grant hop.
"""

from __future__ import annotations

from collections import deque

from repro.sim import Resource
from repro.sim.stats import Counter


class ChannelQosState:
    """Admission slots for one channel engine."""

    def __init__(self, sim, channel: int, max_inflight: int, name: str = ""):
        prefix = f"qos.{name}ch{channel}"
        self.sim = sim
        self.channel = channel
        self.max_inflight = max_inflight
        self.throttled = Counter(f"{prefix}.throttled")
        self.throttle_wait_ns = Counter(f"{prefix}.throttle_wait_ns")
        self._prefix = prefix
        self._depth = 0
        self.obs = None
        self._depth_metric = None
        #: The slots: an available count plus a FIFO of deferred grant
        #: callbacks.
        self._fast_avail = max_inflight
        self._fast_waiting: deque = deque()

    def bind_obs(self, obs) -> None:
        """Register throttle counters and the admission-depth timeline."""
        self.obs = obs
        registry = obs.metrics
        registry.register_counter(self.throttled.name, self.throttled)
        registry.register_counter(
            self.throttle_wait_ns.name, self.throttle_wait_ns
        )
        # Cached handle: this updates twice per admitted op, so the
        # registry lookup must not sit on the hot path.
        self._depth_metric = registry.time_weighted(
            f"{self._prefix}.admission_depth"
        )

    def _note_depth(self) -> None:
        metric = self._depth_metric
        if metric is not None:
            metric.update(self.sim._now, self._depth)

    def admit_fast(self, fn) -> None:
        """Take one admission slot, waiting FIFO for one when the
        channel is at its bound: ``fn()`` runs at the grant instant and
        the caller must call :meth:`release_fast` at the op's end.

        The grant always costs exactly one scheduled hop, even when a
        slot is free; the throttle counters update at the grant
        instant, inside that hop.
        """
        sim = self.sim
        queued = sim._now
        self._depth += 1
        self._note_depth()

        def hop():
            waited = sim._now - queued
            if waited > 0:
                self.throttled.add()
                self.throttle_wait_ns.add(waited)
            fn()

        if self._fast_avail > 0:
            self._fast_avail -= 1
            sim._schedule_call(hop, 0)
        else:
            self._fast_waiting.append(hop)

    def admit_request(self, ops, fn, then) -> None:
        """Admit one request's ops, FIFO, as ``admit_fast(lambda:
        fn((op,), then))`` for each in turn would -- except that the
        prefix that finds slots free now shares ONE grant hop,
        ``fn(prefix, then)``.
        The hops it stands for would have carried consecutive sequence
        numbers, so nothing could have run between them; none of them
        waited, so none counts as throttled.  The rest queue one by
        one, each granted by a release (one hop each).
        """
        taken = min(len(ops), self._fast_avail)
        if taken:
            self._fast_avail -= taken
            self._depth += taken
            self._note_depth()
            prefix = ops[:taken]
            self.sim._schedule_call(lambda: fn(prefix, then), 0)
        for op in ops[taken:]:
            self.admit_fast(lambda op=op: fn((op,), then))

    def releasing(self, then):
        """``then`` behind this state's release: what an admitted op
        runs at its end instant, after its engine's counters."""
        if then is None:
            return self.release_fast

        def released():
            self.release_fast()
            then()

        return released

    def release_fast(self) -> None:
        """Return an admission slot at the op's end instant.

        Grants the next waiter (one scheduled hop) *before* the depth
        decrement.
        """
        waiting = self._fast_waiting
        if waiting:
            self.sim._schedule_call(waiting.popleft(), 0)
        else:
            self._fast_avail += 1
        self._depth -= 1
        self._note_depth()

    def __repr__(self):
        return (
            f"ChannelQosState(ch{self.channel}, "
            f"max_inflight={self.max_inflight}, depth={self._depth})"
        )


class BlockWriteLimiter:
    """Per-channel bound on concurrent block-layer writes."""

    def __init__(self, sim, n_channels: int, max_inflight: int, name: str = ""):
        prefix = f"qos.{name}blk"
        self.sim = sim
        self.max_inflight = max_inflight
        self.slots = [
            Resource(sim, capacity=max_inflight) for _ in range(n_channels)
        ]
        self.write_throttled = Counter(f"{prefix}.write_throttled")
        self.write_throttle_wait_ns = Counter(f"{prefix}.write_throttle_wait_ns")
        self.obs = None

    def bind_obs(self, obs) -> None:
        """Register the write-throttle counters."""
        self.obs = obs
        registry = obs.metrics
        registry.register_counter(self.write_throttled.name, self.write_throttled)
        registry.register_counter(
            self.write_throttle_wait_ns.name, self.write_throttle_wait_ns
        )

    def acquire(self, channel_index: int):
        """Generator -> the held request (pass to :meth:`release`)."""
        queued = self.sim.now
        request = self.slots[channel_index].request()
        yield request
        waited = self.sim.now - queued
        if waited > 0:
            self.write_throttled.add()
            self.write_throttle_wait_ns.add(waited)
        return request

    def release(self, channel_index: int, request) -> None:
        """Return a write slot on the channel."""
        self.slots[channel_index].release(request)

    def __repr__(self):
        return (
            f"BlockWriteLimiter(channels={len(self.slots)}, "
            f"max_inflight={self.max_inflight})"
        )
