"""Unit tests for the fast-path scheduling primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.timeline import (
    ARRIVING,
    CONTINUING,
    ENDING,
    BusyUnion,
    ResourceTimeline,
    same_instant_key,
)


def test_the_same_instant_key_is_one_total_order():
    """Distinct ``(class, channel, submission)`` triples get distinct
    keys that sort as the triples do: a continuing op before any new
    arrival, arrivals before ends, and on one class channel before
    submission -- ends on one nanosecond, and so the link transfers
    they start, go in channel order.  The key is linear in the
    submission id (the engine steps it by adding), and it stays below
    every ordinary heap tie however many events have been scheduled."""
    triples = [
        (phase_class, channel, sub)
        for phase_class in (CONTINUING, ARRIVING, ENDING)
        for channel in (0, 1, 43)
        for sub in (0, 1, 7, 2**40)
    ]
    keys = [same_instant_key(*triple) for triple in triples]
    assert len(set(keys)) == len(keys)
    assert sorted(triples, key=lambda t: same_instant_key(*t)) == sorted(triples)
    assert same_instant_key(CONTINUING, 43, 2**40) < same_instant_key(ARRIVING, 0, 0)
    assert same_instant_key(ENDING, 0, 2**40) < same_instant_key(ENDING, 1, 0)
    step = same_instant_key(ARRIVING, 5, 1) - same_instant_key(ARRIVING, 5, 0)
    assert same_instant_key(ARRIVING, 5, 9) == same_instant_key(ARRIVING, 5, 0) + 9 * step
    # Plus a sequence number it stays below an ordinary tie and apart
    # from the next submission's key.
    assert same_instant_key(ENDING, 2**16 - 1, 2**44 - 1) + 2**40 - 1 < 1
    assert same_instant_key(ENDING, 3, 4) + 2**40 - 1 < same_instant_key(ENDING, 3, 5)


class TestResourceTimeline:
    def test_immediate_grant(self):
        tl = ResourceTimeline()
        grant, end = tl.reserve(100, 50)
        assert (grant, end) == (100, 150)
        assert tl.free_at == 150

    def test_queued_grant_starts_at_free(self):
        tl = ResourceTimeline()
        tl.reserve(100, 50)
        grant, end = tl.reserve(120, 30)
        assert (grant, end) == (150, 180)

    def test_idle_gap_grants_at_request(self):
        tl = ResourceTimeline()
        tl.reserve(0, 10)
        grant, end = tl.reserve(500, 10)
        assert (grant, end) == (500, 510)

    def test_reserve_and_call_fires_at_end(self):
        sim = Simulator()
        tl = ResourceTimeline()
        fired = []
        tl.reserve_and_call(sim, 50, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [50]

    def test_chained_reservations_fire_in_order(self):
        sim = Simulator()
        tl = ResourceTimeline()
        fired = []
        # Three same-instant requests on one capacity-1 resource: FIFO
        # service, back to back, each end callback at its own instant.
        for index in range(3):
            tl.reserve_and_call(sim, 10, lambda i=index: fired.append((i, sim.now)))
        sim.run()
        assert fired == [(0, 10), (1, 20), (2, 30)]

    def test_callback_may_reserve_further(self):
        sim = Simulator()
        tl = ResourceTimeline()
        fired = []

        def second():
            fired.append(("second", sim.now))

        def first():
            fired.append(("first", sim.now))
            tl.reserve_and_call(sim, 5, second)

        tl.reserve_and_call(sim, 10, first)
        sim.run()
        assert fired == [("first", 10), ("second", 15)]

    def test_queued_after_plain_reserve_uses_relay(self):
        sim = Simulator()
        tl = ResourceTimeline()
        fired = []
        tl.reserve(0, 100)  # no end event to chain from
        grant, end = tl.reserve_and_call(sim, 10, lambda: fired.append(sim.now))
        assert (grant, end) == (100, 110)
        sim.run()
        assert fired == [110]


class TestBusyUnion:
    def test_disjoint_intervals_sum(self):
        union = BusyUnion()
        union.add(0, 10)
        union.add(20, 30)
        assert union.closed_through(50) == 20

    def test_touching_intervals_stay_separate_but_sum(self):
        union = BusyUnion()
        union.add(0, 10)
        union.add(10, 20)
        # Touching (not overlapping) intervals close independently.
        assert union.closed_through(10) == 10
        assert union.closed_through(20) == 20

    def test_overlap_merges(self):
        union = BusyUnion()
        union.add(0, 10)
        union.add(5, 15)
        # Merged interval [0, 15) is still open at t=10.
        assert union.closed_through(10) == 0
        assert union.closed_through(15) == 15

    def test_out_of_order_adds_fold_correctly(self):
        union = BusyUnion()
        union.add(100, 200)
        union.add(0, 50)
        union.add(150, 250)  # overlaps the first
        assert union.closed_through(99) == 50
        assert union.closed_through(250) == 200

    def test_busy_through_counts_open_interval(self):
        union = BusyUnion()
        union.add(0, 100)
        assert union.busy_through(40) == 40
        assert union.busy_through(100) == 100

    def test_contained_interval_absorbed(self):
        union = BusyUnion()
        union.add(0, 100)
        union.add(20, 30)
        assert union.closed_through(100) == 100

    def test_zero_length_interval_ignored(self):
        union = BusyUnion()
        union.add(5, 5)
        assert union.closed_through(10) == 0


class _ListUnion:
    """The reference: one ``[begin, end]`` list per interval, sorted and
    merged by a loop with the strict-overlap rule -- the storage and
    fold :class:`BusyUnion` had before it went flat."""

    def __init__(self):
        self.closed = 0
        self.pending = []

    def add(self, begin, end):
        if end > begin:
            self.pending.append([begin, end])

    def closed_through(self, now):
        merged = []
        for interval in sorted(self.pending):
            if merged and interval[0] < merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], interval[1])
            else:
                merged.append(list(interval))
        self.closed += sum(end - begin for begin, end in merged if end <= now)
        self.pending = [item for item in merged if item[1] > now]
        return self.closed

    def busy_through(self, now):
        total = self.closed_through(now)
        if self.pending and self.pending[0][0] < now:
            total += now - self.pending[0][0]
        return total


#: A batch of intervals added out of order -- with touching, nested,
#: duplicate and empty ones made likely by the small coordinate range --
#: then how far the clock moves before both kinds of read.
_batches = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.integers(0, 60), st.integers(0, 12)), max_size=12
        ),
        st.integers(0, 25),
    ),
    max_size=12,
)


class TestBusyUnionAgainstReference:
    @given(_batches, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_reads_equal_the_list_reference(self, batches, through_first):
        union, reference = BusyUnion(), _ListUnion()
        now = 0
        for intervals, advance in batches:
            for offset, length in intervals:
                # The owner's contract: nothing begins before the last read.
                union.add(now + offset, now + offset + length)
                reference.add(now + offset, now + offset + length)
            now += advance
            reads = ["busy_through", "closed_through"]
            for read in reads if through_first else reversed(reads):
                got = getattr(union, read)(now)
                assert type(got) is int
                assert got == getattr(reference, read)(now)
        assert union.closed_through(10**6) == reference.closed_through(10**6)

    def test_closed_intervals_leave_the_union(self):
        union = BusyUnion()
        for index in range(10_000):
            union.add(3 * index, 3 * index + 2)
            if index % 1000 == 999:
                union.closed_through(3 * index)
                # What is left: the interval still open at the read.
                assert len(union.raw) == 0 and len(union._open) == 1
        assert union.closed_through(10**9) == 20_000


class TestPooledEvents:
    def test_hold_recycles_timeouts(self):
        sim = Simulator()
        log = []

        def proc():
            for _ in range(5):
                yield sim.hold(10)
            log.append(sim.now)

        sim.run(until=sim.process(proc()))
        assert log == [50]
        assert len(sim._timeout_pool) >= 1

    def test_schedule_call_order_is_fifo_within_instant(self):
        sim = Simulator()
        fired = []
        for index in range(4):
            sim._schedule_call(lambda i=index: fired.append(i), 10)
        sim.run()
        assert fired == [0, 1, 2, 3]

    def test_phase_pool_recycles(self):
        sim = Simulator()
        tl = ResourceTimeline()
        for _ in range(50):
            tl.reserve_and_call(sim, 7, lambda: None)
        sim.run()
        assert sim._phase_pool
        assert len(sim._phase_pool) <= 1024
