"""Per-class admission control and write-stall gating for storage nodes.

One :class:`AdmissionController` guards one :class:`~repro.cluster.node.
StorageServer`.  Requests are classed ``read``/``write``/``scan``; a
class over its inflight limit sheds new arrivals instead of queueing
them, and a request whose propagated deadline already passed is rejected
rather than served.  Shedding raises a
:class:`~repro.faults.errors.TransientFault` subclass, so the existing
retry/failover machinery treats a shed exactly like a dropped message:
back off and try again (or elsewhere) -- which is the point of admission
control: convert unbounded queueing into fast, retriable rejection.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.faults.errors import TransientFault
from repro.qos.config import AdmissionConfig, WriteStallConfig
from repro.sim.stats import Counter

#: The request classes an :class:`AdmissionController` tracks.
REQUEST_CLASSES = ("read", "write", "scan")


class RequestSheddedError(TransientFault):
    """Admission control rejected a request (class queue at its limit)."""


class DeadlineExceededError(TransientFault):
    """A request's deadline passed before it could be served."""


class AdmissionController:
    """Admission, deadline shedding and write-stall gating for one node."""

    def __init__(
        self,
        sim,
        config: Optional[AdmissionConfig] = None,
        stall: Optional[WriteStallConfig] = None,
        name: str = "server",
    ):
        self.sim = sim
        self.config = config if config is not None else AdmissionConfig()
        self.stall = stall
        self.name = name
        self.inflight = {cls: 0 for cls in REQUEST_CLASSES}
        self.shed = {
            cls: Counter(f"qos.{name}.shed_{cls}s") for cls in REQUEST_CLASSES
        }
        self.deadline_sheds = Counter(f"qos.{name}.shed_deadline")
        self.write_stalls = Counter(f"qos.{name}.write_stalls")
        self.write_stops = Counter(f"qos.{name}.write_stops")
        #: Per-tenant shed counters, created on first use for requests
        #: that carry a tenant label (``qos.{name}.tenant.{t}.{what}``).
        self._tenant_sheds: Dict[Tuple[str, str], Counter] = {}
        self.obs = None

    # -- observability ---------------------------------------------------------------
    def bind_obs(self, obs) -> None:
        """Register this controller's counters and inflight gauges."""
        self.obs = obs
        registry = obs.metrics
        for counter in (*self.shed.values(), self.deadline_sheds,
                        self.write_stalls, self.write_stops,
                        *self._tenant_sheds.values()):
            registry.register_counter(counter.name, counter)
        for cls in REQUEST_CLASSES:
            registry.register_callback(
                f"qos.{self.name}.inflight_{cls}s",
                lambda _now, c=cls: self.inflight[c],
            )

    def _note_depth(self, request_class: str) -> None:
        if self.obs is not None:
            self.obs.metrics.time_weighted(
                f"qos.{self.name}.depth_{request_class}s"
            ).update(self.sim.now, self.inflight[request_class])

    def _tenant_shed(self, tenant: str, what: str) -> Counter:
        """The lazily created per-tenant shed counter."""
        key = (tenant, what)
        counter = self._tenant_sheds.get(key)
        if counter is None:
            counter = Counter(f"qos.{self.name}.tenant.{tenant}.{what}")
            self._tenant_sheds[key] = counter
            if self.obs is not None:
                self.obs.metrics.register_counter(counter.name, counter)
        return counter

    def _record_miss(
        self, lateness_ns: int, tenant: Optional[str] = None
    ) -> None:
        self.deadline_sheds.add()
        if tenant is not None:
            self._tenant_shed(tenant, "shed_deadline").add()
        if self.obs is not None:
            self.obs.metrics.histogram(
                f"qos.{self.name}.deadline_miss_ns"
            ).record(lateness_ns)

    # -- admission -------------------------------------------------------------------
    def try_admit(
        self,
        request_class: str,
        deadline_ns: Optional[int],
        tenant: Optional[str] = None,
    ) -> None:
        """Admit one request or raise (shed).  Synchronous: no sim time.

        The caller must pair every successful admit with a
        :meth:`release` (``try``/``finally``).  A ``tenant`` label
        splits shed accounting by tenant (metrics only: limits stay
        per-class, so one tenant's burst sheds whoever arrives next --
        the fairness question the per-tenant counters make visible).
        """
        now = self.sim.now
        if (
            self.config.shed_expired
            and deadline_ns is not None
            and now > deadline_ns
        ):
            self._record_miss(now - deadline_ns, tenant)
            raise DeadlineExceededError(
                f"{request_class} deadline passed {now - deadline_ns} ns ago"
            )
        limit = self.config.limit(request_class)
        if limit is not None and self.inflight[request_class] >= limit:
            self.shed[request_class].add()
            if tenant is not None:
                self._tenant_shed(tenant, f"shed_{request_class}s").add()
            raise RequestSheddedError(
                f"{request_class} queue at its limit ({limit})"
            )
        self.inflight[request_class] += 1
        self._note_depth(request_class)

    def release(self, request_class: str) -> None:
        """The paired exit of :meth:`try_admit`."""
        self.inflight[request_class] -= 1
        self._note_depth(request_class)

    def expired(
        self, deadline_ns: Optional[int], tenant: Optional[str] = None
    ) -> bool:
        """Did this deadline pass while the request queued?  (Counts the
        miss when it did; the caller sheds.)"""
        if (
            not self.config.shed_expired
            or deadline_ns is None
            or self.sim.now <= deadline_ns
        ):
            return False
        self._record_miss(self.sim.now - deadline_ns, tenant)
        return True

    # -- write stalls -----------------------------------------------------------------
    def write_stall(self, slice_, deadline_ns: Optional[int] = None) -> str:
        """One look of the write-stall gate at a put, counted: the
        slice's LSM pressure (``"ok"`` with no stall config).  On a
        ``"stall"`` the put waits ``stall_delay_ns`` and goes on (then
        :meth:`write_stalled`), on a ``"stop"`` it waits and looks
        again -- unless its deadline has passed: then it is shed."""
        cfg = self.stall
        if cfg is None:
            return "ok"
        pressure = slice_.write_pressure(cfg)
        if pressure == "stop":
            if self.expired(deadline_ns):
                raise DeadlineExceededError(
                    "write deadline passed while stopped on flush backlog"
                )
            self.write_stops.add()
        elif pressure == "stall":
            self.write_stalls.add()
        return pressure

    def write_stalled(self, since_ns: int) -> None:
        """A put that waited at the gate since ``since_ns`` goes on."""
        if self.obs is not None:
            self.obs.metrics.histogram(
                f"qos.{self.name}.write_stall_ns"
            ).record(self.sim.now - since_ns)

    def __repr__(self):
        return (
            f"AdmissionController({self.name!r}, "
            f"inflight={dict(self.inflight)})"
        )
