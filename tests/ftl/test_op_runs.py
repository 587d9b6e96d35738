"""The block FTL's ops as plane runs (``repro.ftl.ops.OpRuns``).

A batch must be, to anyone who asks, the list of ``FlashOp`` the FTL
used to build: the reference here is that list, made with the same
constructors, page by page.
"""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftl import ChannelBlockFTL, OpKind
from repro.ftl.ops import (
    FlashOp,
    OpRuns,
    StripePage,
    planes_of,
    program_op,
    read_op,
)
from repro.nand import FlashArray, FlashGeometry, NandTiming, WearOutError
from repro.nand.array import PhysicalAddress


def make_channel(pages_per_block=4, planes_per_chip=2, chips=2):
    geometry = FlashGeometry(
        page_size=512,
        pages_per_block=pages_per_block,
        blocks_per_plane=6,
        planes_per_chip=planes_per_chip,
    )
    array = FlashArray(
        channels=2, chips_per_channel=chips, geometry=geometry,
        timing=NandTiming(),
    )
    return ChannelBlockFTL(array, channel=1, reserve_fraction=0.0)


def reference_write_ops(ftl, logical_block):
    """What ``write`` built one op at a time: page 0 of every plane,
    then page 1, ..."""
    geo = ftl.array.geometry
    physical = ftl.mapping.lookup(logical_block)
    return [
        program_op(ftl._address(plane, physical[plane], page), geo.page_size)
        for page in range(geo.pages_per_block)
        for plane in range(ftl.n_planes)
    ]


def reference_read_ops(ftl, logical_block, page_offset, n_pages):
    """What ``read`` built one op at a time: the range in stripe order."""
    geo = ftl.array.geometry
    physical = ftl.mapping.lookup(logical_block)
    per_block = geo.pages_per_block
    return [
        read_op(
            ftl._address(
                index // per_block, physical[index // per_block], index % per_block
            ),
            geo.page_size,
        )
        for index in range(page_offset, page_offset + n_pages)
    ]


def assert_is_the_list(batch, expected, data):
    """``len``, iteration, ``==``, every index and drawn slices."""
    assert isinstance(batch, OpRuns)
    assert len(batch) == len(expected)
    assert list(batch) == expected
    assert batch == expected and expected == batch
    assert not batch != expected
    assert batch != expected[:-1] and batch != expected + expected[:1]
    size = len(expected)
    for index in range(-size, size):
        assert batch[index] == expected[index]
        assert isinstance(batch[index], FlashOp)
    for index in (size, -size - 1):
        with pytest.raises(IndexError):
            batch[index]
    assert list(planes_of(batch)) == list(planes_of(expected))
    bound = st.one_of(st.none(), st.integers(-size - 2, size + 2))
    for _ in range(6):
        low, high = data.draw(bound), data.draw(bound)
        part = batch[low:high]
        assert isinstance(part, OpRuns)
        assert part == expected[low:high]
        assert list(part) == expected[low:high]
        assert len(part) == len(expected[low:high])
        assert list(planes_of(part)) == list(planes_of(expected[low:high]))
        # A slice of a slice, and an index into one.
        inner_low, inner_high = data.draw(bound), data.draw(bound)
        assert part[inner_low:inner_high] == expected[low:high][inner_low:inner_high]
        if len(part):
            assert part[-1] == expected[low:high][-1]
        step = data.draw(st.sampled_from([2, 3, -1]))
        assert batch[low:high:step] == expected[low:high:step]


@given(
    pages_per_block=st.integers(1, 7),
    planes_per_chip=st.integers(1, 3),
    chips=st.integers(1, 2),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_batches_are_the_lists_write_and_read_used_to_build(
    pages_per_block, planes_per_chip, chips, data
):
    ftl = make_channel(pages_per_block, planes_per_chip, chips)
    total = ftl.pages_per_logical_block
    # Block 1 first, so that block 2's stripe is not block 0 everywhere.
    ftl.write(1, [None] * total)
    written = ftl.write(2, [("w", index) for index in range(total)])
    assert written.kind is OpKind.PROGRAM and written.interleaved
    assert len(written.runs) == ftl.n_planes
    assert_is_the_list(written, reference_write_ops(ftl, 2), data)
    # Interleaved, every op is a stretch of one on its plane.
    assert list(written[3:].plane_runs()) == [
        (key, 1) for key in planes_of(reference_write_ops(ftl, 2)[3:])
    ]
    # A page handed on with the plane its window drew builds the op.
    page = data.draw(st.integers(0, total - 1))
    plane = next(islice(planes_of(written), page, None))
    op = reference_write_ops(ftl, 2)[page]
    stripe_page = StripePage(written, page, plane)
    assert stripe_page.plane == (op.address.chip, op.address.plane)
    assert (stripe_page.kind, stripe_page.nbytes) == (op.kind, op.nbytes)
    assert stripe_page.runs[stripe_page.index] == op

    offset = data.draw(st.integers(0, total - 1))
    n_pages = data.draw(st.integers(1, total - offset))
    payloads, ops = ftl.read(2, offset, n_pages)
    assert payloads == [("w", index) for index in range(offset, offset + n_pages)]
    assert ops.kind is OpKind.READ and not ops.interleaved
    first_plane = offset // pages_per_block
    last_plane = (offset + n_pages - 1) // pages_per_block
    assert len(ops.runs) == last_plane - first_plane + 1
    assert_is_the_list(ops, reference_read_ops(ftl, 2, offset, n_pages), data)
    # Plane runs of a window: consecutive ops on one plane, regrouped.
    low = data.draw(st.integers(0, n_pages))
    high = data.draw(st.integers(low, n_pages))
    regrouped = []
    for op in reference_read_ops(ftl, 2, offset, n_pages)[low:high]:
        key = (op.address.chip, op.address.plane)
        if regrouped and regrouped[-1][0] == key:
            regrouped[-1][1] += 1
        else:
            regrouped.append([key, 1])
    assert [list(run) for run in ops[low:high].plane_runs()] == regrouped
    if low < n_pages:
        assert next(ops[low:low + 1].planes()) == next(
            planes_of(reference_read_ops(ftl, 2, offset, n_pages)[low:])
        )


def test_an_8mb_write_is_four_runs_and_a_2mb_read_one():
    ftl = make_channel(pages_per_block=256)
    assert ftl.logical_block_bytes == 1024 * 512
    ops = ftl.write(0, [None] * 1024)
    physical = ftl.mapping.lookup(0)
    assert ops.runs == tuple(
        (plane // 2, plane % 2, physical[plane], 0, 256) for plane in range(4)
    )
    assert len(ops) == 1024 and ftl.host_programs == 1024
    _payloads, ops = ftl.read(0, 512, 256)
    assert ops.runs == ((1, 0, physical[2], 0, 256),)
    assert list(ops.plane_runs()) == [((1, 0), 256)]
    assert ops[0] == read_op(PhysicalAddress(1, 1, 0, physical[2], 0), 512)


def test_interleaved_runs_must_be_equally_long():
    with pytest.raises(ValueError, match="equally long"):
        OpRuns(OpKind.PROGRAM, 0, 512, [(0, 0, 1, 0, 4), (0, 1, 1, 0, 3)], True)
    ragged = OpRuns(OpKind.READ, 0, 512, [(0, 0, 1, 2, 2), (0, 1, 1, 0, 3)], False)
    assert [op.address.page for op in ragged] == [2, 3, 0, 1, 2]
    assert OpRuns(OpKind.READ, 0, 512, [], True) == []


def test_host_programs_stay_exact_when_a_later_planes_run_raises():
    """Each plane's run is checked, programmed and counted as a whole:
    a bad block under plane 2 leaves planes 0 and 1 programmed and
    counted -- chip and FTL counters agree -- and nothing of plane 2."""
    ftl = make_channel()
    payload = [("p", index) for index in range(ftl.pages_per_logical_block)]
    # The blocks the wear-leveling pools will hand out next.
    physical = [pool.allocate() for pool in ftl._pools]
    for pool, block in zip(ftl._pools, physical):
        pool.release(block, erased=False)
    ftl.array.chips[1][1].block(0, physical[2]).mark_bad()
    with pytest.raises(WearOutError):
        ftl.write(0, payload)
    assert ftl.mapping.lookup(0) == tuple(physical)
    assert ftl.host_programs == ftl.array.total_programs == 8
    pointers = [
        ftl.array.chips[1][plane // 2].block(plane % 2, physical[plane])
        for plane in range(4)
    ]
    assert [block.write_pointer for block in pointers] == [4, 4, 0, 0]
