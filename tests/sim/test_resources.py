"""Unit tests for Resource / PriorityResource / Store."""

import pytest

from repro.sim import PriorityResource, Resource, Simulator, Store


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


def test_acquire_helper_holds_for_duration():
    sim = Simulator()
    res = Resource(sim, 1)
    trace = []

    def worker(wid):
        yield from res.acquire(5)
        trace.append((wid, sim.now))

    sim.process(worker("a"))
    sim.process(worker("b"))
    sim.run()
    assert trace == [("a", 5), ("b", 10)]


def test_priority_resource_orders_by_priority():
    sim = Simulator()
    res = PriorityResource(sim, 1)
    order = []

    def worker(name, priority, arrive):
        yield sim.timeout(arrive)
        with res.request(priority=priority) as req:
            yield req
            order.append(name)
            yield sim.timeout(100)

    # "hold" grabs the resource first; others queue and are served by priority.
    sim.process(worker("hold", 0, 0))
    sim.process(worker("low", 5, 1))
    sim.process(worker("high", 1, 2))
    sim.process(worker("mid", 3, 3))
    sim.run()
    assert order == ["hold", "high", "mid", "low"]


def test_priority_resource_fifo_within_same_priority():
    sim = Simulator()
    res = PriorityResource(sim, 1)
    order = []

    def worker(name, arrive):
        yield sim.timeout(arrive)
        with res.request(priority=2) as req:
            yield req
            order.append(name)
            yield sim.timeout(10)

    for idx, name in enumerate(["first", "second", "third"]):
        sim.process(worker(name, idx))
    sim.run()
    assert order == ["first", "second", "third"]


def test_priority_resource_cancel_queued_request():
    sim = Simulator()
    res = PriorityResource(sim, 1)
    hold = res.request(priority=0)
    queued = res.request(priority=1)
    sim.run()
    res.release(queued)
    res.release(hold)
    sim.run()
    assert res.count == 0 and res.queue_length == 0


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
