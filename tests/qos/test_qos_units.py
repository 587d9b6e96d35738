"""Unit tests for the QoS primitives: admission control, write-stall
gating, the circuit breaker automaton, and the device-layer limiters.
Everything here is deterministic -- no RNG, no real system build.
"""

import pytest

from repro.faults.errors import TransientFault
from repro.qos import (
    AdmissionConfig,
    AdmissionController,
    BlockWriteLimiter,
    BreakerState,
    ChannelQosState,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    RequestSheddedError,
    WriteStallConfig,
)
from repro.sim import MS, Simulator


# -- admission ------------------------------------------------------------------------


def test_admission_sheds_class_over_its_limit():
    sim = Simulator()
    ctl = AdmissionController(sim, AdmissionConfig(max_reads=2))
    ctl.try_admit("read", None)
    ctl.try_admit("read", None)
    with pytest.raises(RequestSheddedError):
        ctl.try_admit("read", None)
    assert ctl.shed["read"].value == 1
    # Classes are independent: writes are unlimited here.
    for _ in range(10):
        ctl.try_admit("write", None)
    # A release frees a read slot again.
    ctl.release("read")
    ctl.try_admit("read", None)
    assert ctl.inflight == {"read": 2, "write": 10, "scan": 0}


def test_admission_sheds_expired_deadline_on_arrival():
    sim = Simulator()
    ctl = AdmissionController(sim, AdmissionConfig())
    sim.run(until=sim.now + 5 * MS)
    with pytest.raises(DeadlineExceededError):
        ctl.try_admit("read", 2 * MS)  # passed 3 ms ago
    assert ctl.deadline_sheds.value == 1
    assert ctl.inflight["read"] == 0  # never admitted
    # A live deadline admits normally.
    ctl.try_admit("read", sim.now + 1)


def test_admission_expired_respects_shed_expired_flag():
    sim = Simulator()
    lax = AdmissionController(sim, AdmissionConfig(shed_expired=False))
    sim.run(until=sim.now + 5 * MS)
    lax.try_admit("read", 1 * MS)  # expired but not shed
    assert lax.expired(1 * MS) is False
    strict = AdmissionController(sim, AdmissionConfig())
    assert strict.expired(1 * MS) is True
    assert strict.expired(None) is False
    assert strict.expired(sim.now) is False  # exactly on time is on time


def test_shed_errors_are_transient_faults():
    # The retry/failover machinery catches TransientFault; sheds must
    # flow through it like dropped messages.
    for exc in (RequestSheddedError, DeadlineExceededError, CircuitOpenError):
        assert issubclass(exc, TransientFault)


# -- write stalls ---------------------------------------------------------------------


class FakeSlice:
    """A slice whose LSM pressure is set directly by the test."""

    def __init__(self, sim, pressure="ok"):
        self.sim = sim
        self.pressure = pressure

    def write_pressure(self, config):
        return self.pressure


def run_gate(sim, ctl, slice_, deadline_ns=None):
    """One put at the gate, as ``cluster.node._Put`` asks it: after a
    stall it waits ``stall_delay_ns`` and goes on, after a stop it
    waits and looks again."""
    outcome = {}
    delay = ctl.stall.stall_delay_ns

    def proc():
        try:
            pressure = ctl.write_stall(slice_, deadline_ns)
            while pressure == "stop":
                yield sim.timeout(delay)
                pressure = ctl.write_stall(slice_, deadline_ns)
        except DeadlineExceededError:
            outcome["shed"] = True
            return
        if pressure == "stall":
            yield sim.timeout(delay)
        outcome["done_at"] = sim.now

    sim.run(until=sim.process(proc()))
    return outcome


def test_write_stall_gate_is_noop_when_ok():
    sim = Simulator()
    ctl = AdmissionController(sim, stall=WriteStallConfig(stall_pending_patches=4))
    outcome = run_gate(sim, ctl, FakeSlice(sim, "ok"))
    assert outcome["done_at"] == 0  # no simulated time consumed
    assert ctl.write_stalls.value == 0


def test_write_stall_delays_one_interval():
    sim = Simulator()
    cfg = WriteStallConfig(stall_pending_patches=4, stall_delay_ns=3 * MS)
    ctl = AdmissionController(sim, stall=cfg)
    outcome = run_gate(sim, ctl, FakeSlice(sim, "stall"))
    assert outcome["done_at"] == 3 * MS
    assert ctl.write_stalls.value == 1
    assert ctl.write_stops.value == 0


def test_write_stop_blocks_until_pressure_drops():
    sim = Simulator()
    cfg = WriteStallConfig(stop_pending_patches=8, stall_delay_ns=1 * MS)
    ctl = AdmissionController(sim, stall=cfg)
    slice_ = FakeSlice(sim, "stop")

    def relieve():
        yield sim.timeout(int(2.5 * MS))
        slice_.pressure = "ok"

    sim.process(relieve())
    outcome = run_gate(sim, ctl, slice_)
    # Polled at 1, 2, 3 ms; pressure dropped at 2.5 ms -> released at 3.
    assert outcome["done_at"] == 3 * MS
    assert ctl.write_stops.value == 3


def test_write_stop_sheds_when_deadline_passes_while_blocked():
    sim = Simulator()
    cfg = WriteStallConfig(stop_pending_patches=8, stall_delay_ns=1 * MS)
    ctl = AdmissionController(sim, stall=cfg)
    outcome = run_gate(sim, ctl, FakeSlice(sim, "stop"), deadline_ns=4 * MS)
    assert outcome.get("shed") is True
    assert ctl.deadline_sheds.value == 1
    assert sim.now == 5 * MS  # shed on the first poll past the deadline


# -- circuit breaker ------------------------------------------------------------------


def test_breaker_trips_after_consecutive_failures_only():
    sim = Simulator()
    breaker = CircuitBreaker(sim, failure_threshold=3, reset_ns=10 * MS)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()  # resets the streak
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.opens.value == 1


def test_breaker_open_rejects_then_probes_then_recloses():
    sim = Simulator()
    breaker = CircuitBreaker(
        sim, failure_threshold=1, reset_ns=10 * MS, half_open_successes=2
    )
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.allow() is False
    assert breaker.rejections.value == 1
    sim.run(until=sim.now + 10 * MS)
    assert breaker.allow() is True  # cooldown elapsed -> half-open probe
    assert breaker.state is BreakerState.HALF_OPEN
    breaker.record_success()
    assert breaker.state is BreakerState.HALF_OPEN  # needs 2 successes
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.closes.value == 1
    states = [(frm.value, to.value) for _, frm, to in breaker.transitions]
    assert states == [
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "closed"),
    ]


def test_breaker_half_open_failure_retrips_for_full_cooldown():
    sim = Simulator()
    breaker = CircuitBreaker(sim, failure_threshold=1, reset_ns=10 * MS)
    breaker.record_failure()
    sim.run(until=sim.now + 10 * MS)
    assert breaker.allow() is True  # probe
    breaker.record_failure()  # probe failed
    assert breaker.state is BreakerState.OPEN
    assert breaker.opens.value == 2
    sim.run(until=sim.now + 9 * MS)
    assert breaker.allow() is False  # new cooldown started at the re-trip


# -- device-layer limiters ------------------------------------------------------------


def test_channel_qos_bounds_concurrent_inner_execution():
    sim = Simulator()
    state = ChannelQosState(sim, channel=0, max_inflight=2)
    live = {"now": 0, "max": 0, "done": 0}

    def leave(_event):
        live["now"] -= 1
        live["done"] += 1
        state.release_fast()

    def enter():
        live["now"] += 1
        live["max"] = max(live["max"], live["now"])
        sim.timeout(1 * MS).add_callback(leave)

    for _ in range(6):
        state.admit_fast(enter)
    sim.run()
    assert live["done"] == 6
    assert live["max"] == 2  # never more than the bound inside
    assert live["now"] == 0
    # 6 ops over 2 slots of 1 ms each -> 3 serial waves.
    assert sim.now == 3 * MS
    assert state.throttled.value == 4  # all but the first wave waited
    assert state.throttle_wait_ns.value == 2 * (1 * MS) + 2 * (2 * MS)


def test_block_write_limiter_is_per_channel():
    sim = Simulator()
    limiter = BlockWriteLimiter(sim, n_channels=2, max_inflight=1)
    order = []

    def writer(tag, channel, hold_ns):
        slot = yield from limiter.acquire(channel)
        order.append((tag, sim.now))
        yield sim.timeout(hold_ns)
        limiter.release(channel, slot)

    sim.process(writer("a0", 0, 2 * MS))
    sim.process(writer("b0", 0, 1 * MS))  # same channel: waits for a0
    sim.process(writer("c1", 1, 1 * MS))  # other channel: immediate
    sim.run()
    assert order == [("a0", 0), ("c1", 0), ("b0", 2 * MS)]
    assert limiter.write_throttled.value == 1
    assert limiter.write_throttle_wait_ns.value == 2 * MS
