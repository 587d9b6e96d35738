"""The :class:`QosPlan`: one declarative description of every overload
protection a run opts into.

Follows the same attachment discipline as :class:`repro.faults.plan.FaultPlan`:
a plan is built up front, wired into an already-constructed system with
:meth:`QosPlan.attach`, and consulted by the layers behind
no-op-default hooks.  The contract the test tier leans on:

* **No drift** -- an *empty* plan (every sub-config ``None``) wires
  nothing: no layer attribute changes, no metrics registered, no extra
  events, so a run with an empty plan attached is byte-identical to a
  run with no plan at all (``tests/qos/test_no_drift.py``).
* **Opt-in per protection** -- each sub-config enables exactly one
  mechanism, so a run can bound channels without admission control, or
  stall writers without a circuit breaker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.units import MS


@dataclass(frozen=True)
class ChannelQosConfig:
    """Bounds on per-channel work in flight.

    ``max_inflight_ops`` caps the flash ops admitted to one channel
    engine (queued on a plane/bus plus in service); excess ops wait
    *outside* the channel, exerting backpressure on the block layer.
    ``max_inflight_writes`` caps concurrent 8 MB block writes the block
    layer itself issues per channel, so a write burst queues at the
    block layer (where placement can still steer around it) instead of
    deep inside a channel.  ``None`` disables that bound.
    """

    max_inflight_ops: Optional[int] = None
    max_inflight_writes: Optional[int] = None

    def __post_init__(self):
        for field in ("max_inflight_ops", "max_inflight_writes"):
            value = getattr(self, field)
            if value is not None and value < 1:
                raise ValueError(f"{field} must be >= 1 or None, got {value}")

    @property
    def empty(self) -> bool:
        return self.max_inflight_ops is None and self.max_inflight_writes is None


@dataclass(frozen=True)
class WriteStallConfig:
    """RocksDB-style write stalls keyed on LSM flush backlog and the
    level-0 run count.

    ``stall_*`` thresholds slow each put down by ``stall_delay_ns``
    (soft throttling); ``stop_*`` thresholds block puts entirely until
    the pressure drops below the stop line (polled every
    ``stall_delay_ns``).  A threshold of ``None`` never triggers.  The
    pressure signals are :attr:`repro.kv.lsm.LSMTree.n_pending` (frozen
    patches awaiting storage -- the flush backlog) and the number of
    level-0 runs (patches not yet merged down).
    """

    stall_pending_patches: Optional[int] = None
    stop_pending_patches: Optional[int] = None
    stall_l0_runs: Optional[int] = None
    stop_l0_runs: Optional[int] = None
    stall_delay_ns: int = 2 * MS

    def __post_init__(self):
        if self.stall_delay_ns < 1:
            raise ValueError("stall_delay_ns must be >= 1")
        for field in (
            "stall_pending_patches",
            "stop_pending_patches",
            "stall_l0_runs",
            "stop_l0_runs",
        ):
            value = getattr(self, field)
            if value is not None and value < 1:
                raise ValueError(f"{field} must be >= 1 or None, got {value}")

    @property
    def empty(self) -> bool:
        return (
            self.stall_pending_patches is None
            and self.stop_pending_patches is None
            and self.stall_l0_runs is None
            and self.stop_l0_runs is None
        )


@dataclass(frozen=True)
class AdmissionConfig:
    """Per-class admission limits for a storage server.

    A request class (``read``/``write``/``scan``) with more than its
    limit of requests already inside the server is *shed* -- rejected
    immediately with :class:`~repro.qos.admission.RequestSheddedError`
    instead of joining an ever-growing queue.  ``None`` means unlimited.
    ``shed_expired`` additionally rejects any request whose propagated
    deadline has already passed (it cannot possibly be served in time,
    so serving it only steals capacity from requests that still can).
    """

    max_reads: Optional[int] = None
    max_writes: Optional[int] = None
    max_scans: Optional[int] = None
    shed_expired: bool = True

    def __post_init__(self):
        for field in ("max_reads", "max_writes", "max_scans"):
            value = getattr(self, field)
            if value is not None and value < 1:
                raise ValueError(f"{field} must be >= 1 or None, got {value}")

    def limit(self, request_class: str) -> Optional[int]:
        """The inflight limit for one request class."""
        return {
            "read": self.max_reads,
            "write": self.max_writes,
            "scan": self.max_scans,
        }[request_class]


@dataclass(frozen=True)
class MigrationConfig:
    """Budget for the control plane's online slice migrations.

    ``copy_mb_per_s`` caps the aggregate network rate of snapshot /
    catch-up transfers (the controller paces itself below it), keeping
    rebalancing from starving foreground traffic.  Migration's source
    reads additionally ride the ``scan`` admission class of
    :class:`AdmissionConfig`, so a loaded server sheds migration reads
    before client reads.  ``max_concurrent`` bounds simultaneous slice
    migrations.  ``None`` disables a bound.
    """

    copy_mb_per_s: Optional[float] = None
    max_concurrent: Optional[int] = None

    def __post_init__(self):
        if self.copy_mb_per_s is not None and self.copy_mb_per_s <= 0:
            raise ValueError(
                f"copy_mb_per_s must be > 0 or None, got {self.copy_mb_per_s}"
            )
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1 or None, got {self.max_concurrent}"
            )

    @property
    def empty(self) -> bool:
        return self.copy_mb_per_s is None and self.max_concurrent is None


@dataclass(frozen=True)
class BreakerConfig:
    """Client-side circuit-breaker tuning (see
    :class:`repro.qos.breaker.CircuitBreaker`)."""

    failure_threshold: int = 5
    reset_ns: int = 100 * MS
    half_open_successes: int = 1

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_ns < 1:
            raise ValueError("reset_ns must be >= 1")
        if self.half_open_successes < 1:
            raise ValueError("half_open_successes must be >= 1")


class QosPlan:
    """A bundle of overload protections to wire into one run."""

    def __init__(
        self,
        channel: Optional[ChannelQosConfig] = None,
        write_stall: Optional[WriteStallConfig] = None,
        admission: Optional[AdmissionConfig] = None,
        breaker: Optional[BreakerConfig] = None,
        migration: Optional[MigrationConfig] = None,
    ):
        self.channel = channel
        self.write_stall = write_stall
        self.admission = admission
        self.breaker = breaker
        #: Consumed by :class:`repro.cluster.control.ClusterController`
        #: (it budgets the controller's own transfers rather than
        #: instrumenting a layer).
        self.migration = migration
        self.obs = None
        #: Every live QoS state object the plan created (channel
        #: limiters, admission controllers, breakers), so an
        #: ``Observability`` attached late still reaches all of them.
        self._states: List = []

    @property
    def empty(self) -> bool:
        """True when attaching this plan wires nothing anywhere."""
        return (
            (self.channel is None or self.channel.empty)
            and (self.write_stall is None or self.write_stall.empty)
            and self.admission is None
            and self.breaker is None
            and (self.migration is None or self.migration.empty)
        )

    def register(self, state) -> None:
        """Adopt a live QoS state object (binds obs when attached)."""
        self._states.append(state)
        if self.obs is not None:
            state.bind_obs(self.obs)

    def attach(self, target, name: str = "") -> "QosPlan":
        """Wire this plan's bounds into a built device, block layer, SDF
        system, storage server or cluster controller (naming in
        :mod:`repro.qos.wire`); returns ``self`` so calls chain."""
        from repro.qos.wire import wire

        wire(self, target, name)
        return self

    def make_breaker(self, sim, name: str = "breaker"):
        """A :class:`~repro.qos.breaker.CircuitBreaker` from this plan's
        breaker config (``None`` when the plan configures none)."""
        if self.breaker is None:
            return None
        from repro.qos.breaker import CircuitBreaker

        breaker = CircuitBreaker(
            sim,
            failure_threshold=self.breaker.failure_threshold,
            reset_ns=self.breaker.reset_ns,
            half_open_successes=self.breaker.half_open_successes,
            name=name,
        )
        self.register(breaker)
        return breaker

    def __repr__(self):
        parts = []
        for field in (
            "channel", "write_stall", "admission", "breaker", "migration"
        ):
            if getattr(self, field) is not None:
                parts.append(field)
        return f"QosPlan({', '.join(parts) if parts else 'empty'})"
