"""Unit tests for Resource / Store."""

import pytest

from repro.sim import Resource, Simulator, Store


def test_resource_serializes_holders():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def worker(wid):
        with res.request() as req:
            yield req
            start = sim.now
            yield sim.timeout(10)
            spans.append((wid, start, sim.now))

    for wid in range(3):
        sim.process(worker(wid))
    sim.run()
    assert spans == [(0, 0, 10), (1, 10, 20), (2, 20, 30)]


def test_resource_capacity_allows_parallelism():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def worker(wid):
        with res.request() as req:
            yield req
            yield sim.timeout(10)
            done.append((wid, sim.now))

    for wid in range(4):
        sim.process(worker(wid))
    sim.run()
    assert [t for _, t in done] == [10, 10, 20, 20]


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_release_of_waiting_request_cancels_it():
    sim = Simulator()
    res = Resource(sim, 1)
    holder = res.request()
    waiter = res.request()
    sim.run()
    assert holder.processed and not waiter.triggered
    res.release(waiter)  # cancel while queued
    res.release(holder)
    sim.run()
    assert res.count == 0


def test_resource_counters():
    sim = Simulator()
    res = Resource(sim, 1)
    first = res.request()
    res.request()
    res.request()
    sim.run()
    assert res.count == 1
    assert res.queue_length == 2
    res.release(first)
    sim.run()
    assert res.count == 1
    assert res.queue_length == 1


@pytest.mark.parametrize("form", ["request", "request_call"])
def test_request_call_runs_fn_where_a_request_waiter_resumes(form):
    """Granted at the holder's release, ``fn`` runs in the event the
    grant schedules -- where a ``request()`` waiter resumes: not inside
    the release, and ahead of anything scheduled after it."""
    sim = Simulator()
    res = Resource(sim, 1)
    holder = res.request()
    log = []

    def waiter():
        yield res.request()
        log.append(("granted", sim.now))

    if form == "request":
        sim.process(waiter())
    else:
        res.request_call(lambda: log.append(("granted", sim.now)))

    def releaser():
        yield sim.timeout(7)
        res.release(holder)
        assert log == []
        sim.timeout(0).add_callback(lambda _: log.append(("after", sim.now)))

    sim.process(releaser())
    sim.run()
    assert log == [("granted", 7), ("after", 7)]


def test_request_and_request_call_tickets_interleave_fifo():
    sim = Simulator()
    res = Resource(sim, 1)
    order = []
    tickets = {}

    def granted(name):
        order.append((name, sim.now))
        sim.timeout(10).add_callback(lambda _: res.release(tickets[name]))

    def call(name):
        tickets[name] = res.request_call(lambda: granted(name))

    def plain(name):
        tickets[name] = res.request()
        tickets[name].add_callback(lambda _: granted(name))

    for name in "abcde":
        (call if name in "ace" else plain)(name)
    sim.run()
    assert order == [("a", 0), ("b", 10), ("c", 20), ("d", 30), ("e", 40)]


def test_releasing_a_queued_call_ticket_cancels_it():
    sim = Simulator()
    res = Resource(sim, 1)
    holder = res.request()
    calls = []
    cancelled = res.request_call(lambda: calls.append("cancelled"))
    res.request_call(lambda: calls.append("next"))
    res.release(cancelled)
    assert res.queue_length == 1
    res.release(holder)
    sim.run()
    assert calls == ["next"]
    assert res.count == 1 and res.queue_length == 0


def test_call_ticket_drops_fn_once_granted():
    sim = Simulator()
    res = Resource(sim, 1)
    calls = []
    ticket = res.request_call(lambda: calls.append(sim.now))
    assert ticket.fn is not None
    sim.run()
    assert calls == [0]
    assert ticket.fn is None and ticket.processed
    res.release(ticket)
    assert res.count == 0


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for item in "xyz":
            yield store.put(item)
            yield sim.timeout(1)

    def consumer():
        for _ in range(3):
            got.append((yield store.get()))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == ["x", "y", "z"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    times = []

    def consumer():
        item = yield store.get()
        times.append((item, sim.now))

    def producer():
        yield sim.timeout(50)
        yield store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert times == [("late", 50)]


def test_store_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("put-a", sim.now))
        yield store.put("b")
        log.append(("put-b", sim.now))

    def consumer():
        yield sim.timeout(30)
        item = yield store.get()
        log.append((f"got-{item}", sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert ("put-a", 0) in log
    assert ("put-b", 30) in log


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)
