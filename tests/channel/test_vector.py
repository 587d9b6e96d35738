"""Vectorized channel math must be bit-identical to the scalar paths."""

import numpy as np
import pytest

from repro.channel import vector
from repro.channel.engine import build_engines
from repro.ftl.ops import FlashOp, OpKind
from repro.nand.array import PhysicalAddress
from repro.nand.catalog import MICRON_25NM_MLC, SDF_CHIP_GEOMETRY
from repro.nand.timing import NandTiming
from repro.sim import Event, Simulator
from repro.sim.timeline import ResourceTimeline
from repro.sim.units import transfer_ns
from tests.channel.golden import check_golden


@pytest.mark.parametrize("mb_per_s", [40.0, 270.0, 1610.0, 33.3])
def test_transfer_costs_match_scalar(mb_per_s):
    rng = np.random.default_rng(17)
    sizes = [0, 1, 2, 511, 512, 4096, 8192, 128 * 1024] + [
        int(n) for n in rng.integers(1, 4 << 20, size=500)
    ]
    expected = {n: transfer_ns(n, mb_per_s) for n in sizes}
    got = dict(vector.transfer_costs(sizes, mb_per_s))
    assert got == expected


def test_prefill_bus_costs_matches_lazy_fill():
    timing = NandTiming()
    sizes = [0, 4096, 8192, 16384, 123_457]

    class _Op:
        def __init__(self, nbytes):
            self.nbytes = nbytes

    cache = {}
    vector.prefill_bus_costs(timing, cache, [_Op(n) for n in sizes])
    assert cache == {n: timing.bus_transfer_ns(n) for n in sizes}


def test_reserve_bulk_matches_sequential_reserves():
    a, b = ResourceTimeline(free_at=500), ResourceTimeline(free_at=500)
    grants, ends = a.reserve_bulk(200, 70, 5)
    expected = [b.reserve(200, 70) for _ in range(5)]
    assert list(zip(grants.tolist(), ends.tolist())) == expected
    assert a.free_at == b.free_at


def _erase_ops(geometry, n):
    planes = geometry.planes_per_chip
    return [
        FlashOp(
            OpKind.ERASE,
            PhysicalAddress(0, index % 2, index % planes, index % 8, 0),
            0,
        )
        for index in range(n)
    ]


@pytest.mark.parametrize("n_ops", [4, 9, 24])
def test_erase_batch_matches_generator_and_per_op(n_ops):
    """The closed-form all-ERASE scheduler must finish at the same
    instant with the same counters as a per-op ``execute_fast``
    submission -- and both at the schedule the generator path recorded."""
    geometry = SDF_CHIP_GEOMETRY.scaled(0.01)

    def run(batched, stagger):
        sim = Simulator()
        engine = build_engines(sim, 1, geometry, MICRON_25NM_MLC, 2)[0]
        done = {}

        def submit(ops):
            if batched:
                yield from engine.execute_batch(ops)
                return
            finished = Event(sim)
            remaining = [len(ops)]

            def one_done():
                remaining[0] -= 1
                if not remaining[0]:
                    finished.succeed()

            for op in ops:
                engine.execute_fast(op, one_done)
            yield finished

        def scenario():
            yield from submit(_erase_ops(geometry, n_ops))
            if stagger:
                yield sim.timeout(1_000)
                yield from submit(_erase_ops(geometry, 5))
            done["at"] = sim.now

        sim.run(until=sim.process(scenario()))
        return (
            done["at"],
            engine.ops_executed.value,
            engine.wait_ns.value,
            engine.busy_value(sim.now),
        )

    for stagger in (False, True):
        batched = run(True, stagger)
        assert batched == run(False, stagger)
        check_golden(f"erase_batch[{n_ops}-{stagger}]", batched)
