"""Unit tests for the NAND chip/plane/block/page state machines."""

import numpy as np
import pytest

from repro.faults import PROGRAM_FAIL, FaultPlan
from repro.nand.chip import ProgramFailError
from repro.nand import (
    Block,
    BlockState,
    FlashChip,
    FlashGeometry,
    PageState,
    ProgramError,
    WearOutError,
)

SMALL = FlashGeometry(
    page_size=512, pages_per_block=4, blocks_per_plane=8, planes_per_chip=2
)


@pytest.fixture
def chip():
    return FlashChip(geometry=SMALL)


def test_geometry_derived_sizes():
    geo = FlashGeometry(
        page_size=8192, pages_per_block=256, blocks_per_plane=2048,
        planes_per_chip=2,
    )
    assert geo.block_size == 2 * 1024 * 1024
    assert geo.plane_size == 4 * 1024 * 1024 * 1024
    assert geo.chip_size == 8 * 1024 * 1024 * 1024
    assert geo.blocks_per_chip == 4096
    assert geo.pages_per_chip == 4096 * 256


def test_geometry_validation():
    with pytest.raises(ValueError):
        FlashGeometry(page_size=0)
    with pytest.raises(ValueError):
        FlashGeometry(pages_per_block=-1)


def test_geometry_scaled_shrinks_blocks_only():
    geo = FlashGeometry()
    small = geo.scaled(0.01)
    assert small.page_size == geo.page_size
    assert small.pages_per_block == geo.pages_per_block
    assert small.blocks_per_plane == max(1, int(geo.blocks_per_plane * 0.01))


def test_program_then_read_roundtrip(chip):
    chip.program_page(0, 0, 0, b"hello")
    assert chip.read_page(0, 0, 0) == b"hello"


def test_erased_page_reads_none(chip):
    assert chip.read_page(0, 0, 0) is None
    assert chip.block(0, 0).page(0).state is PageState.ERASED


def test_program_must_be_sequential(chip):
    chip.program_page(0, 0, 0, "a")
    with pytest.raises(ProgramError, match="sequential"):
        chip.program_page(0, 0, 2, "c")


def test_reprogram_without_erase_rejected(chip):
    chip.program_page(0, 0, 0, "a")
    with pytest.raises(ProgramError):
        chip.program_page(0, 0, 0, "a2")


def test_erase_resets_block(chip):
    for page in range(SMALL.pages_per_block):
        chip.program_page(0, 1, page, f"p{page}")
    assert chip.block(0, 1).state is BlockState.FULL
    chip.erase_block(0, 1)
    blk = chip.block(0, 1)
    assert blk.state is BlockState.FREE
    assert blk.erase_count == 1
    assert chip.read_page(0, 1, 0) is None
    chip.program_page(0, 1, 0, "again")
    assert chip.read_page(0, 1, 0) == "again"


def test_block_state_transitions(chip):
    blk = chip.block(1, 3)
    assert blk.state is BlockState.FREE
    chip.program_page(1, 3, 0, "x")
    assert blk.state is BlockState.OPEN
    for page in range(1, SMALL.pages_per_block):
        chip.program_page(1, 3, page, "x")
    assert blk.state is BlockState.FULL


def test_write_pointer_tracks_frontier(chip):
    blk = chip.block(0, 0)
    assert blk.write_pointer == 0
    chip.program_page(0, 0, 0, "x")
    chip.program_page(0, 0, 1, "y")
    assert blk.write_pointer == 2


def test_out_of_range_addresses_rejected(chip):
    with pytest.raises(IndexError):
        chip.read_page(0, SMALL.blocks_per_plane, 0)
    with pytest.raises(IndexError):
        chip.read_page(0, 0, SMALL.pages_per_block)
    with pytest.raises(IndexError):
        chip.plane(5)


def test_operation_counters(chip):
    chip.program_page(0, 0, 0, "a")
    chip.read_page(0, 0, 0)
    chip.read_page(0, 0, 1)
    chip.erase_block(0, 0)
    assert chip.programs == 1
    assert chip.reads == 2
    assert chip.erases == 1


def test_read_pages_is_read_page_for_each_page_in_order(chip):
    for page in range(3):
        chip.program_page(1, 2, page, f"p{page}")
    one_by_one = [chip.read_page(1, 2, page) for page in range(1, 4)]
    assert chip.reads == 3
    # Two programmed pages and the erased one behind the write frontier.
    assert chip.read_pages(1, 2, 1, 3) == one_by_one == ["p1", "p2", None]
    assert chip.reads == 6
    assert chip.read_pages(1, 2, 0, 0) == [] and chip.reads == 6


def test_read_pages_checks_the_run_before_reading_any_of_it(chip):
    chip.program_page(0, 0, 0, "a")
    with pytest.raises(IndexError):
        chip.read_pages(0, 0, 2, 3)
    with pytest.raises(IndexError):
        chip.read_pages(0, 0, -1, 2)
    with pytest.raises(IndexError):
        chip.read_pages(0, SMALL.blocks_per_plane, 0, 1)
    chip.block(0, 1).mark_bad()
    with pytest.raises(WearOutError):
        chip.read_pages(0, 1, 0, 2)
    assert chip.reads == 0


def test_program_pages_is_program_page_for_each_page_in_order(chip):
    one_by_one = FlashChip(geometry=SMALL)
    payloads = ["a", None, "c"]
    for page, payload in enumerate(payloads):
        one_by_one.program_page(1, 2, page, payload)
    chip.program_pages(1, 2, 0, payloads)
    assert chip.programs == one_by_one.programs == 3
    assert chip.block(1, 2).write_pointer == 3
    assert chip.read_pages(1, 2, 0, 4) == one_by_one.read_pages(1, 2, 0, 4)
    # A run goes on from the write pointer; an empty one is nothing.
    chip.program_pages(1, 2, 3, ["d"])
    chip.program_pages(1, 2, 0, [])
    assert chip.programs == 4
    assert chip.block(1, 2).state is BlockState.FULL
    assert chip.read_pages(1, 2, 0, 4) == ["a", None, "c", "d"]


def test_program_pages_checks_the_run_before_programming_any_of_it(chip):
    chip.program_page(0, 0, 0, "a")
    with pytest.raises(IndexError):
        chip.program_pages(0, 0, 1, ["b", "c", "d", "e"])
    with pytest.raises(IndexError):
        chip.program_pages(0, SMALL.blocks_per_plane, 0, ["b"])
    with pytest.raises(ProgramError, match="expected page 1, got 2"):
        chip.program_pages(0, 0, 2, ["c", "d"])
    with pytest.raises(ProgramError, match="expected page 1, got 0"):
        chip.program_pages(0, 0, 0, ["a", "b"])
    chip.block(0, 1).mark_bad()
    with pytest.raises(WearOutError):
        chip.program_pages(0, 1, 0, ["a", "b"])
    assert chip.programs == 1
    assert chip.block(0, 0).write_pointer == 1
    assert chip.read_pages(0, 0, 0, 4) == ["a", None, None, None]


@pytest.mark.parametrize("at_op", [1, 2, 3, 4])
def test_program_pages_draws_per_page_with_a_wired_injector(at_op):
    """A ``PROGRAM_FAIL`` on the k-th opportunity fires on the same page,
    marks the same block bad and leaves the same pages programmed as
    the loop of ``program_page`` calls does -- a run on another plane
    first, so the opportunities count across calls."""

    def play(program):
        chip = FlashChip(geometry=SMALL)
        plan = FaultPlan()
        plan.add("nand", PROGRAM_FAIL, at_op=at_op)
        chip.faults = plan.injector("nand")
        failed = False
        try:
            program(chip, 0, 5, ["x", "y"])
            program(chip, 1, 2, ["a", "b", "c"])
        except ProgramFailError:
            failed = True
        return (
            failed,
            chip.programs,
            [event.signature() for event in plan.log],
            [
                (chip.is_bad(plane, block), chip.block(plane, block).write_pointer)
                for plane, block in ((0, 5), (1, 2))
            ],
        )

    def page_by_page(chip, plane, block, payloads):
        for page, payload in enumerate(payloads):
            chip.program_page(plane, block, page, payload)

    def as_a_run(chip, plane, block, payloads):
        chip.program_pages(plane, block, 0, payloads)

    got = play(as_a_run)
    assert got == play(page_by_page)
    assert got[0] and got[1] == at_op


def test_placeholder_pages_keep_no_entry():
    """``None`` payloads are not stored: the block reads, reports and
    rejects exactly as one that stored them."""
    blk = Block(index=0, pages_per_block=6)
    blk.program(0, None)
    blk.program_run(1, [None, None, None])
    assert blk._data == {}
    assert blk.write_pointer == 4 and blk.state is BlockState.OPEN
    assert blk.read_run(0, 6) == [None] * 6
    assert [blk.read(page) for page in range(6)] == [None] * 6
    assert blk.page(3).state is PageState.PROGRAMMED
    assert blk.page(3).data is None
    assert blk.page(4).state is PageState.ERASED
    with pytest.raises(ProgramError, match="expected page 4, got 2"):
        blk.program(2, None)
    with pytest.raises(ProgramError, match="expected page 4, got 5"):
        blk.program_run(5, [None])
    blk.program_run(4, [None, "data"])
    assert blk.state is BlockState.FULL and blk._data == {5: "data"}
    assert blk.read_run(3, 3) == [None, None, "data"]
    blk.erase()
    assert blk.write_pointer == 0 and blk.read(5) is None


def test_planes_are_independent(chip):
    chip.program_page(0, 0, 0, "plane0")
    chip.program_page(1, 0, 0, "plane1")
    assert chip.read_page(0, 0, 0) == "plane0"
    assert chip.read_page(1, 0, 0) == "plane1"


def test_factory_bad_blocks_marked(chip):
    rng = np.random.default_rng(7)
    chip = FlashChip(geometry=SMALL, rng=rng, factory_bad_rate=0.5)
    n_bad = sum(
        chip.is_bad(plane, block)
        for plane in range(SMALL.planes_per_chip)
        for block in range(SMALL.blocks_per_plane)
    )
    assert 0 < n_bad < SMALL.blocks_per_chip


def test_bad_block_operations_rejected():
    chip = FlashChip(geometry=SMALL)
    chip.block(0, 0).mark_bad()
    with pytest.raises(WearOutError):
        chip.program_page(0, 0, 0, "x")
    with pytest.raises(WearOutError):
        chip.read_page(0, 0, 0)
    with pytest.raises(WearOutError):
        chip.erase_block(0, 0)
    assert chip.block(0, 0).state is BlockState.BAD


def test_endurance_wears_out_blocks():
    rng = np.random.default_rng(3)
    chip = FlashChip(geometry=SMALL, rng=rng, endurance=10)
    worn = False
    for _ in range(40):
        try:
            chip.erase_block(0, 0)
        except WearOutError:  # pragma: no cover - not expected here
            break
        if chip.is_bad(0, 0):
            worn = True
            break
    assert worn, "block should wear out well before 4x endurance"
    assert chip.block(0, 0).erase_count > 10


def test_infinite_endurance_by_default(chip):
    for _ in range(1000):
        chip.erase_block(0, 0)
    assert not chip.is_bad(0, 0)
    assert chip.block(0, 0).erase_count == 1000


def test_stochastic_config_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        FlashChip(geometry=SMALL, factory_bad_rate=0.1)


def test_erase_count_accounting(chip):
    chip.erase_block(0, 0)
    chip.erase_block(0, 0)
    chip.erase_block(1, 2)
    assert chip.max_erase_count() == 2
    assert chip.total_erase_count() == 3


def test_lazy_block_materialization(chip):
    assert chip.plane(0).touched_blocks == 0
    chip.read_page(0, 3, 0)
    assert chip.plane(0).touched_blocks == 1


def test_validation_of_chip_parameters():
    with pytest.raises(ValueError):
        FlashChip(geometry=SMALL, factory_bad_rate=1.5)
    with pytest.raises(ValueError):
        FlashChip(geometry=SMALL, endurance=0)


def test_block_standalone_api():
    blk = Block(index=5, pages_per_block=2)
    blk.program(0, "a")
    blk.program(1, "b")
    assert blk.state is BlockState.FULL
    assert blk.read(1) == "b"
    blk.erase()
    assert blk.read(1) is None
