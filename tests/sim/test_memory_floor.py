"""What a page leaves behind: the page path's resident memory per
written page, and a recorder's per sample (DESIGN.md section 7, "Memory
and the collector", rule 2).

The link meters record every page for the whole run, so whatever a
sample costs is paid once per simulated page and never returned: 96
bytes when a sample was a ``(time_ns, nbytes)`` tuple in a list, 16 on
two ``array('q')`` columns.  ``tracemalloc`` counts the bytes Python
allocated and still holds, so the floors below are exact to the
allocator's over-allocation, not to the resident set.
"""

import gc
import tracemalloc

from repro.devices import build_device
from repro.sim import Simulator
from repro.sim.stats import ThroughputMeter

#: Bytes a written page may leave allocated for the rest of the run:
#: its link-meter sample (16 bytes, plus the array's over-allocation).
PAGE_FLOOR = 24

#: Bytes one ``ThroughputMeter`` sample may hold.
SAMPLE_FLOOR = 20


def traced(run) -> int:
    """Bytes ``run()`` leaves allocated once the collector has run."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    run()
    gc.collect()
    return tracemalloc.get_traced_memory()[0] - before


def test_a_written_page_leaves_at_most_its_meter_sample():
    """An SDF write drive with placeholder pages (``pages=None``: the
    chips store no payload), measured over one length and over twice
    that: neither the pages written nor the pages added keep more than
    :data:`PAGE_FLOOR` bytes each."""
    sim = Simulator()
    sdf = build_device("sdf", sim, capacity_scale=0.004, n_channels=2)
    channels = sdf.channels
    pages = channels[0].pages_per_logical_block * len(channels)

    def drive(block: int) -> None:
        def writer(channel):
            yield from channel.write_fresh(block)

        sim.run(until=sim.all_of([sim.process(writer(c)) for c in channels]))
        # The busy union is bounded, not per page: fold it, as a reader
        # of utilisation would.
        for engine in sdf.engines:
            engine.busy_value()

    # One block a channel first, so that caches and lazily built state
    # are not counted as the pages' -- traced too, or a buffer it grew
    # would count whole when it next moves.
    tracemalloc.start()
    try:
        drive(0)
        once = traced(lambda: drive(1))
        twice = once + traced(lambda: drive(2))
    finally:
        tracemalloc.stop()
    assert sdf.link.write_meter.n_samples == 3 * pages
    assert once <= PAGE_FLOOR * pages, once / pages
    assert twice - once <= PAGE_FLOOR * pages, (twice - once) / pages


def test_a_meter_sample_is_two_integers():
    meter = ThroughputMeter()
    samples = 100_000
    tracemalloc.start()
    try:
        grew = traced(
            lambda: [meter.record(1_000_000_000 + i, 8192) for i in range(samples)]
        )
    finally:
        tracemalloc.stop()
    assert meter.n_samples == samples
    assert grew <= SAMPLE_FLOOR * samples, grew / samples
