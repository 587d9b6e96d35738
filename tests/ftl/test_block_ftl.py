"""Unit tests for the SDF per-channel block FTL."""

import numpy as np
import pytest

from repro.ftl import ChannelBlockFTL, EraseBeforeWriteError, OpKind
from repro.ftl.ops import program_op, read_op
from repro.ftl.page_ftl import OutOfSpaceError
from repro.nand import FlashArray, FlashGeometry, NandTiming

TINY = FlashGeometry(
    page_size=512, pages_per_block=4, blocks_per_plane=8, planes_per_chip=2
)


def make_channel(blocks_per_plane=8, reserve=0.0, **array_kwargs):
    geometry = FlashGeometry(
        page_size=512,
        pages_per_block=4,
        blocks_per_plane=blocks_per_plane,
        planes_per_chip=2,
    )
    array = FlashArray(
        channels=1,
        chips_per_channel=2,
        geometry=geometry,
        timing=NandTiming(),
        **array_kwargs,
    )
    return ChannelBlockFTL(array, channel=0, reserve_fraction=reserve)


def full_block_payload(ftl, tag):
    return [(tag, index) for index in range(ftl.pages_per_logical_block)]


def test_geometry_of_logical_block():
    ftl = make_channel()
    # 2 chips x 2 planes = 4 planes; 4 pages per block -> 16 pages, 8 KiB.
    assert ftl.n_planes == 4
    assert ftl.pages_per_logical_block == 16
    assert ftl.logical_block_bytes == 16 * 512
    assert ftl.capacity_bytes == ftl.n_logical_blocks * 16 * 512


def test_write_read_roundtrip_full_block():
    ftl = make_channel()
    payload = full_block_payload(ftl, "A")
    ftl.write(0, payload)
    data, ops = ftl.read(0, 0, ftl.pages_per_logical_block)
    assert data == payload
    assert all(op.kind is OpKind.READ for op in ops)


def test_striping_is_two_mb_per_plane():
    """Logical page i lands on plane i // pages_per_block (2 MB stripes),
    and the payload read back at each offset matches."""
    ftl = make_channel()
    payload = full_block_payload(ftl, "S")
    ops = ftl.write(0, payload)
    pages_per_block = 4
    placed = {}
    for op in ops:
        plane_index = op.address.chip * 2 + op.address.plane  # planes_per_chip=2
        logical_index = plane_index * pages_per_block + op.address.page
        placed[logical_index] = op
    assert sorted(placed) == list(range(ftl.pages_per_logical_block))
    # Execution order is plane-interleaved so the shared bus keeps all
    # planes busy: the first n_planes ops hit page 0 of each plane.
    first_wave = ops[: ftl.n_planes]
    assert {op.address.page for op in first_wave} == {0}
    assert len({(op.address.chip, op.address.plane) for op in first_wave}) == 4
    data, _ = ftl.read(0, 0, ftl.pages_per_logical_block)
    assert data == payload


def test_ops_name_the_addresses_the_stripe_layout_gives():
    """``write`` and ``read`` work plane by plane with the chip and
    address parts looked up once; the ops must still be, one for one,
    what ``_address`` says for each page."""
    ftl = make_channel()
    payload = full_block_payload(ftl, "O")
    ops = ftl.write(0, payload)
    physical = ftl.mapping.lookup(0)
    assert ops == [
        program_op(ftl._address(plane, physical[plane], page), 512)
        for page in range(4)
        for plane in range(4)
    ]
    assert ftl.host_programs == 16
    # Pages 3..9: the tail of plane 0, all of plane 1, the head of 2.
    data, ops = ftl.read(0, 3, 7)
    assert data == payload[3:10]
    assert ops == [
        read_op(ftl._address(index // 4, physical[index // 4], index % 4), 512)
        for index in range(3, 10)
    ]
    assert ftl.host_reads == 7


def test_partial_write_rejected():
    ftl = make_channel()
    with pytest.raises(ValueError, match="full logical block"):
        ftl.write(0, [None] * 3)


def test_rewrite_without_erase_rejected():
    ftl = make_channel()
    ftl.write(0, full_block_payload(ftl, "A"))
    with pytest.raises(EraseBeforeWriteError):
        ftl.write(0, full_block_payload(ftl, "B"))


def test_erase_then_rewrite():
    ftl = make_channel()
    ftl.write(0, full_block_payload(ftl, "A"))
    ops = ftl.erase(0)
    assert len(ops) == ftl.n_planes
    assert all(op.kind is OpKind.ERASE for op in ops)
    assert not ftl.is_mapped(0)
    ftl.write(0, full_block_payload(ftl, "B"))
    assert ftl.read(0, 0, 1)[0] == [("B", 0)]


def test_erase_of_unmapped_block_rejected():
    ftl = make_channel()
    with pytest.raises(KeyError):
        ftl.erase(0)


def test_read_of_unmapped_block_returns_nones():
    ftl = make_channel()
    data, ops = ftl.read(3, 0, 4)
    assert data == [None] * 4 and ops == []


def test_read_bounds():
    ftl = make_channel()
    with pytest.raises(IndexError):
        ftl.read(0, 16, 1)
    with pytest.raises(IndexError):
        ftl.read(0, 15, 2)
    with pytest.raises(ValueError):
        ftl.read(0, 0, 0)


def test_small_read_unit():
    """8 KB (one page) reads work against an 8 MB write unit -- the
    asymmetric interface of S2."""
    ftl = make_channel()
    payload = full_block_payload(ftl, "R")
    ftl.write(1, payload)
    for offset in range(ftl.pages_per_logical_block):
        data, ops = ftl.read(1, offset, 1)
        assert data == [payload[offset]]
        assert len(ops) == 1


def test_write_amplification_is_exactly_one():
    ftl = make_channel()
    for cycle in range(30):
        block = cycle % ftl.n_logical_blocks
        if ftl.is_mapped(block):
            ftl.erase(block)
        ftl.write(block, full_block_payload(ftl, cycle))
    assert ftl.write_amplification == 1.0
    # Host programs == physical programs: no hidden writes anywhere.
    assert ftl.host_programs == ftl.array.total_programs


def test_out_of_space_when_all_blocks_mapped_without_erase():
    ftl = make_channel(blocks_per_plane=4, reserve=0.0)
    for block in range(ftl.n_logical_blocks):
        ftl.write(block, full_block_payload(ftl, block))
    # All logical blocks mapped; pools exhausted (reserve 0) -> next
    # write must be to an unmapped block, but none remain unmapped.
    with pytest.raises((OutOfSpaceError, EraseBeforeWriteError)):
        ftl.write(0, full_block_payload(ftl, "again"))


def test_reserve_fraction_reduces_exposed_capacity():
    none = make_channel(blocks_per_plane=100, reserve=0.0)
    one_percent = make_channel(blocks_per_plane=100, reserve=0.01)
    assert one_percent.n_logical_blocks == 99
    assert none.n_logical_blocks == 100


def test_dynamic_wear_leveling_balances_erases():
    ftl = make_channel(blocks_per_plane=8)
    # Hammer a small set of logical blocks; DWL must spread the wear
    # over every physical block.
    for cycle in range(100):
        block = cycle % 2
        if ftl.is_mapped(block):
            ftl.erase(block)
        ftl.write(block, full_block_payload(ftl, cycle))
    assert ftl.wear_spread() <= 2


def test_factory_bad_blocks_are_skipped():
    rng = np.random.default_rng(21)
    ftl = make_channel(
        blocks_per_plane=16, rng=rng, factory_bad_rate=0.2
    )
    assert ftl.n_logical_blocks < 16
    for block in range(ftl.n_logical_blocks):
        ftl.write(block, full_block_payload(ftl, block))  # must not touch bad blocks


def test_grown_bad_blocks_retired_on_erase():
    rng = np.random.default_rng(2)
    ftl = make_channel(blocks_per_plane=8, reserve=0.25, rng=rng, endurance=5)
    wrote = 0
    for cycle in range(200):
        block = cycle % ftl.n_logical_blocks
        try:
            if ftl.is_mapped(block):
                ftl.erase(block)
            ftl.write(block, None if False else full_block_payload(ftl, cycle))
            wrote += 1
        except OutOfSpaceError:
            break
    assert ftl.grown_bad_blocks() > 0
    assert wrote > 30  # the reserve kept the channel serviceable for a while


def test_channel_bounds_checked():
    array = FlashArray(1, 1, TINY, NandTiming())
    with pytest.raises(IndexError):
        ChannelBlockFTL(array, channel=1)
    with pytest.raises(ValueError):
        ChannelBlockFTL(array, channel=0, reserve_fraction=1.0)
