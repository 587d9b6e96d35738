"""Unit tests for measurement helpers."""

import math
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram
from repro.sim import (
    Counter,
    LatencyRecorder,
    MS,
    S,
    ThroughputMeter,
    TimeWeighted,
    US,
)
from repro.sim.stats import percentile
from repro.sim.units import MB_DEC, mb_per_s, transfer_ns


def test_counter_basic():
    counter = Counter("ops")
    counter.add()
    counter.add(4)
    assert counter.value == 5
    counter.reset()
    assert counter.value == 0
    with pytest.raises(ValueError):
        counter.add(-1)


def test_throughput_meter_simple_rate():
    meter = ThroughputMeter()
    # 100 MB moved over exactly one second.
    for i in range(1, 11):
        meter.record(i * S // 10, 10_000_000)
    assert meter.mb_per_s(0, S) == pytest.approx(100.0)
    assert meter.total_bytes == 100_000_000
    assert meter.n_samples == 10


def test_throughput_meter_window_excludes_warmup():
    meter = ThroughputMeter()
    meter.record(10 * MS, 1_000_000)  # warmup burst
    meter.record(1 * S + 500 * MS, 50_000_000)
    # Window covering only the second sample.
    assert meter.mb_per_s(1 * S, 2 * S) == pytest.approx(50.0)


def test_throughput_meter_empty_and_degenerate():
    meter = ThroughputMeter()
    assert meter.mb_per_s() == 0.0
    meter.record(5, 100)
    assert meter.mb_per_s() == 0.0  # single instant, zero-width window
    with pytest.raises(ValueError):
        meter.record(6, -1)


def test_latency_recorder_statistics():
    rec = LatencyRecorder()
    for value in [10, 20, 30, 40]:
        rec.record(value)
    assert rec.mean == pytest.approx(25.0)
    assert rec.minimum == 10
    assert rec.maximum == 40
    assert rec.quantile(0.5) == pytest.approx(25.0)
    assert len(rec) == 4
    assert rec.stdev == pytest.approx(12.909944, rel=1e-6)
    assert rec.coefficient_of_variation == pytest.approx(0.51639, rel=1e-4)


def test_latency_recorder_empty_and_validation():
    rec = LatencyRecorder()
    assert rec.mean == 0.0 and rec.stdev == 0.0
    assert rec.coefficient_of_variation == 0.0
    with pytest.raises(ValueError):
        rec.record(-5)


def test_percentile_interpolation():
    values = [1, 2, 3, 4]
    assert percentile(values, 0.0) == 1
    assert percentile(values, 1.0) == 4
    assert percentile(values, 0.5) == pytest.approx(2.5)
    assert percentile([7], 0.9) == 7
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile(values, 1.5)


def test_time_weighted_average():
    queue_depth = TimeWeighted(initial=0, start_ns=0)
    queue_depth.update(10, 4)  # depth 0 for 10ns
    queue_depth.update(30, 2)  # depth 4 for 20ns
    # depth 2 for 10ns -> (0*10 + 4*20 + 2*10) / 40 = 2.5
    assert queue_depth.average(40) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        queue_depth.update(5, 1)


def test_time_weighted_deferred_shifts_match_event_order():
    """shift_at integrates the same area as eager event-time updates --
    the engine's event-free queue-depth accounting."""
    eager = TimeWeighted()
    lazy = TimeWeighted()
    # Two queued ops: requests at 10 and 20, grants at 30 and 50.
    for t, v in ((10, 1), (20, 2), (30, 1), (50, 0)):
        eager.update(t, v)
    lazy.shift_at(10, 1)
    lazy.shift_at(30, -1)
    lazy.shift_at(20, 1)  # before the pending grant
    lazy.shift_at(50, -1)
    assert lazy.horizon == 50 and eager.horizon == 50
    assert lazy.average(60) == eager.average(60)
    assert lazy.value == eager.value == 0


def test_time_weighted_deferred_settle_is_timestamp_ordered():
    lazy = TimeWeighted()
    lazy.shift_at(0, 3)
    lazy.shift_at(40, -1)
    lazy.shift_at(20, -1)  # queued out of order; settles by timestamp
    # Reads fold only changes at/before the read instant.
    assert lazy.average(30) == pytest.approx((3 * 20 + 2 * 10) / 30)
    # A later absolute update folds the remaining change first.
    lazy.update(50, 7)
    assert lazy.value == 7
    assert lazy.average(50) == pytest.approx(
        (3 * 20 + 2 * 20 + 1 * 10) / 50
    )


def test_transfer_ns_and_mb_per_s_roundtrip():
    nbytes = 8 * 1024 * 1024
    elapsed = transfer_ns(nbytes, 100.0)  # 8 MiB at 100 MB/s
    assert mb_per_s(nbytes, elapsed) == pytest.approx(100.0, rel=1e-6)
    assert transfer_ns(0, 100.0) == 0
    assert transfer_ns(1, 1e9) >= 1  # never rounds to zero


def test_time_units_are_consistent():
    assert US == 1_000 and MS == 1_000_000 and S == 1_000_000_000


def test_throughput_meter_default_window_includes_earliest_sample():
    """Regression: mb_per_s() used the half-open (t0, t1] window even
    when t0 defaulted to the earliest sample, silently dropping it."""
    meter = ThroughputMeter()
    meter.record(1 * S, 10_000_000)
    meter.record(2 * S, 10_000_000)
    # 20 MB over the 1 s between first and last sample: both count.
    assert meter.mb_per_s() == pytest.approx(20.0)


def test_throughput_meter_explicit_window_stays_half_open():
    """Explicit windows keep the (t0, t1] convention so adjacent
    windows never double-count a sample on the boundary."""
    meter = ThroughputMeter()
    meter.record(1 * S, 10_000_000)
    meter.record(2 * S, 30_000_000)
    assert meter.bytes_in(1 * S, 2 * S) == 30_000_000
    assert meter.bytes_in(0, 1 * S) == 10_000_000
    assert meter.bytes_in(1 * S, 2 * S, include_start=True) == 40_000_000
    assert meter.mb_per_s(1 * S, 2 * S) == pytest.approx(30.0)


def test_throughput_meter_accepts_a_sample_ahead_of_its_instant():
    """A recorder that knows a reserved transfer's end (an event-free
    link reservation) records it early; another records at the instant.
    ``samples`` is in timestamp order either way, equal timestamps in
    recording order, and windows are exact."""
    at_instant = ThroughputMeter()
    ahead = ThroughputMeter()
    transfers = [(1 * S, 100), (2 * S, 200), (2 * S, 250), (3 * S, 300)]
    for when, nbytes in transfers:
        at_instant.record(when, nbytes)
    # "Now" is 1 s: the 3 s and the first 2 s transfers are already
    # reserved, then the rest arrive at their instants.
    for when, nbytes in (transfers[3], transfers[1], transfers[0], transfers[2]):
        ahead.record(when, nbytes)
    assert ahead.samples == at_instant.samples == transfers
    assert ahead.n_samples == 4 and ahead.total_bytes == 850
    for t0, t1 in ((0, 1 * S), (1 * S, 2 * S), (0, 3 * S), (2 * S, 3 * S)):
        assert ahead.bytes_in(t0, t1) == at_instant.bytes_in(t0, t1)
        assert ahead.mb_per_s(t0, t1) == at_instant.mb_per_s(t0, t1)
    assert ahead.mb_per_s() == at_instant.mb_per_s()


# -- the recorders against a plain list of samples --------------------------------


class ListMeter:
    """``ThroughputMeter`` as a list of ``(time_ns, nbytes)`` pairs."""

    def __init__(self):
        self.pairs = []

    def bytes_in(self, t0, t1, include_start=False):
        if include_start:
            return sum(n for t, n in self.pairs if t0 <= t <= t1)
        return sum(n for t, n in self.pairs if t0 < t <= t1)

    def mb_per_s(self, t0=None, t1=None):
        if not self.pairs:
            return 0.0
        times = [t for t, _ in self.pairs]
        lo = min(times) if t0 is None else t0
        hi = max(times) if t1 is None else t1
        if hi <= lo:
            return 0.0
        return self.bytes_in(lo, hi, t0 is None) / MB_DEC / ((hi - lo) / S)


def list_stats(values):
    """What ``LatencyRecorder`` answers, computed on a list of ints."""
    n = len(values)
    mean = sum(values) / n if n else 0.0
    stdev = (
        math.sqrt(sum((x - mean) ** 2 for x in values) / (n - 1))
        if n >= 2 else 0.0
    )
    return mean, stdev


instants = st.integers(-5, 40)
streams = st.lists(
    st.tuples(instants, st.integers(0, 1 << 40)), max_size=60
)
windows = st.lists(
    st.tuples(st.integers(-10, 50), st.integers(-10, 50)), max_size=6
)


def assert_meter_is_the_list(meter, reference, spans):
    assert meter.samples == sorted(reference.pairs, key=itemgetter(0))
    assert all(type(t) is int and type(n) is int for t, n in meter.samples)
    assert meter.n_samples == len(reference.pairs)
    assert meter.total_bytes == sum(n for _, n in reference.pairs)
    assert meter.mb_per_s() == reference.mb_per_s()
    for t0, t1 in spans:
        for include_start in (False, True):
            got = meter.bytes_in(t0, t1, include_start)
            assert got == reference.bytes_in(t0, t1, include_start)
            assert type(got) is int
        assert meter.mb_per_s(t0, t1) == reference.mb_per_s(t0, t1)
        assert meter.mb_per_s(t0) == reference.mb_per_s(t0)
        assert meter.mb_per_s(t1=t1) == reference.mb_per_s(t1=t1)


@settings(max_examples=150, deadline=None)
@given(first=streams, then=streams, spans=windows)
def test_throughput_meter_is_a_list_of_pairs(first, then, spans):
    """Samples recorded in any order -- ahead of their instant, equal
    timestamps -- answer exactly what the list of pairs answers, through
    a reset and after it."""
    meter, reference = ThroughputMeter(), ListMeter()
    for when, nbytes in first:
        meter.record(when, nbytes)
        reference.pairs.append((when, nbytes))
    assert_meter_is_the_list(meter, reference, spans)
    meter.reset()
    reference.pairs.clear()
    assert_meter_is_the_list(meter, reference, spans)
    for when, nbytes in then:
        meter.record(when, nbytes)
        reference.pairs.append((when, nbytes))
    assert_meter_is_the_list(meter, reference, spans)


latencies = st.lists(st.integers(0, 10**12), max_size=80)


@settings(max_examples=150, deadline=None)
@given(recorded=latencies, extended=latencies,
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_latency_recorder_and_histogram_are_a_list(recorded, extended, fractions):
    """``record`` then ``extend``: every statistic is the one the list
    of the same ints gives, bit for bit, as Python numbers."""
    values = recorded + extended
    for recorder in (LatencyRecorder(), Histogram()):
        for value in recorded:
            recorder.record(value)
        recorder.extend(extended)
        assert recorder.samples == values and len(recorder) == len(values)
        assert all(type(value) is int for value in recorder.samples)
        mean, stdev = list_stats(values)
        assert type(recorder.mean) is float and recorder.mean == mean
        assert recorder.stdev == stdev
        assert recorder.minimum == min(values, default=0)
        assert recorder.maximum == max(values, default=0)
        for fraction in fractions:
            if values:
                assert recorder.quantile(fraction) == percentile(
                    sorted(values), fraction
                )
        recorder.reset()
        assert recorder.samples == [] and recorder.mean == 0.0
    histogram = Histogram()
    histogram.extend(values)
    summary = histogram.summary()
    if not values:
        assert summary == {"count": 0}
    else:
        ordered = sorted(values)
        assert summary == {
            "count": len(values),
            "mean": list_stats(values)[0],
            "min": ordered[0],
            "max": ordered[-1],
            "p50": percentile(ordered, 0.50),
            "p95": percentile(ordered, 0.95),
            "p99": percentile(ordered, 0.99),
        }


def list_percentile(ordered, fraction):
    """The list-sorted formula, written out: linear interpolation
    between the two ranks around ``fraction`` of the way."""
    pos = fraction * (len(ordered) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if lo == hi:
        return float(ordered[lo])
    weight = pos - lo
    return float(ordered[lo] * (1 - weight) + ordered[hi] * weight)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=120))
def test_histogram_summary_is_the_list_sorted_formula(values):
    """A peek's summary sorts the int64 buffer, never a Python copy of
    it, and gives what sorting the list gives, bit for bit and type for
    type -- for samples far past 2**53, where int-to-float rounding
    shows, up to the largest int64, whose sums overflow int64 (``mean``
    is exact regardless)."""
    histogram = Histogram()
    histogram.extend(values)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Histogram, "samples", property(lambda _: 1 / 0))
        summary = histogram.summary()
    ordered = sorted(values)
    expected = {
        "count": len(values),
        "mean": sum(values) / len(values),
        "min": ordered[0],
        "max": ordered[-1],
    }
    for name, fraction in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        expected[name] = list_percentile(ordered, fraction)
    assert summary == expected
    assert [type(value) for value in summary.values()] == [
        type(value) for value in expected.values()
    ]


def test_recorders_refuse_a_negative_or_non_integer_sample():
    meter = ThroughputMeter()
    meter.record(1, 10)
    for when, nbytes, error in (
        (2, -1, ValueError), (2, 1.5, TypeError), (2.5, 10, TypeError),
        (1 << 70, 10, OverflowError),
    ):
        with pytest.raises(error):
            meter.record(when, nbytes)
    # A refused sample leaves nothing behind in either column.
    assert meter.samples == [(1, 10)] and meter.total_bytes == 10
    recorder = LatencyRecorder()
    recorder.record(3)
    for value, error in ((-1, ValueError), (2.5, TypeError)):
        with pytest.raises(error):
            recorder.record(value)
    for batch, error in (([4, -2], ValueError), ([4, 2.5], TypeError)):
        with pytest.raises(error):
            recorder.extend(batch)
    assert recorder.samples == [3]
