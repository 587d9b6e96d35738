"""Unit tests for the discrete-event engine and event primitives."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    MS,
    Simulator,
    Timeout,
    US,
)
from repro.sim.engine import EmptySchedule


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5 * US)
    sim.run()
    assert sim.now == 5 * US


def test_run_until_time_stops_exactly():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10)
        fired.append(sim.now)
        yield sim.timeout(10)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=15)
    assert fired == [10]
    assert sim.now == 15
    sim.run(until=25)
    assert fired == [10, 20]


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=100)
    with pytest.raises(ValueError):
        sim.run(until=50)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_step_on_empty_schedule_raises():
    sim = Simulator()
    with pytest.raises(EmptySchedule):
        sim.step()


def test_events_at_same_time_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def make(name):
        def proc():
            yield sim.timeout(10)
            order.append(name)

        return proc

    for name in "abc":
        sim.process(make(name)())
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = Event(sim)
    got = []

    def proc():
        got.append((yield ev))

    sim.process(proc())
    ev.succeed("payload", delay=3)
    sim.run()
    assert got == ["payload"]
    assert sim.now == 3


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError("nope"))


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_value_before_trigger_raises():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_failed_event_raises_in_waiting_process():
    sim = Simulator()
    ev = Event(sim)
    caught = []

    def proc():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(proc())
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_event_failure_stops_simulation():
    sim = Simulator()
    ev = Event(sim)
    ev.fail(ValueError("nobody is listening"))
    with pytest.raises(ValueError, match="nobody is listening"):
        sim.run()


def test_yield_on_already_processed_event_resumes_immediately():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed(42)
    sim.run()
    got = []

    def proc():
        got.append((yield ev))

    sim.process(proc())
    sim.run()
    assert got == [42]


def test_process_return_value_propagates():
    sim = Simulator()

    def inner():
        yield sim.timeout(7)
        return "inner-result"

    def outer(results):
        value = yield sim.process(inner())
        results.append(value)

    results = []
    sim.process(outer(results))
    sim.run()
    assert results == ["inner-result"]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def inner():
        yield sim.timeout(1)
        raise KeyError("inner-bug")

    def outer(caught):
        try:
            yield sim.process(inner())
        except KeyError as exc:
            caught.append(exc.args[0])

    caught = []
    sim.process(outer(caught))
    sim.run()
    assert caught == ["inner-bug"]


def test_process_yielding_non_event_fails():
    sim = Simulator()

    def bad():
        yield 42

    proc = sim.process(bad())
    with pytest.raises(RuntimeError, match="may only yield Events"):
        sim.run(until=proc)


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(4)
        return "done"

    assert sim.run(until=sim.process(proc())) == "done"
    assert sim.now == 4


def test_run_until_never_triggered_event_detects_deadlock():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run(until=ev)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_all_of_collects_values_in_order():
    sim = Simulator()
    timeouts = [sim.timeout(30, "c"), sim.timeout(10, "a"), sim.timeout(20, "b")]
    result = sim.run(until=AllOf(sim, timeouts))
    assert result == ["c", "a", "b"]
    assert sim.now == 30


def test_any_of_returns_first_value():
    sim = Simulator()
    events = [sim.timeout(30, "slow"), sim.timeout(10, "fast")]
    result = sim.run(until=AnyOf(sim, events))
    assert result == "fast"
    assert sim.now == 10


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()
    result = sim.run(until=AllOf(sim, []))
    assert result == []


def test_all_of_fails_if_any_event_fails():
    sim = Simulator()
    good = sim.timeout(5)
    bad = Event(sim)
    bad.fail(RuntimeError("broken"), delay=1)
    cond = AllOf(sim, [good, bad])
    with pytest.raises(RuntimeError, match="broken"):
        sim.run(until=cond)


def test_condition_rejects_foreign_events():
    sim_a, sim_b = Simulator(), Simulator()
    with pytest.raises(ValueError):
        AllOf(sim_a, [Timeout(sim_b, 1)])


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.timeout(25)
    sim.timeout(10)
    assert sim.peek() == 10


def test_many_interleaved_processes_deterministic():
    def run_once():
        sim = Simulator()
        trace = []

        def worker(wid, period):
            for _ in range(5):
                yield sim.timeout(period)
                trace.append((sim.now, wid))

        for wid, period in enumerate([7, 11, 13]):
            sim.process(worker(wid, period))
        sim.run()
        return trace

    assert run_once() == run_once()
