"""Functional NAND chip state machine.

Enforces the physical constraints that drive the whole paper:

* a page can only be programmed when its block has been erased since the
  page was last written (out-of-place update);
* pages within a block must be programmed **sequentially** (a NAND
  requirement that makes log-style writing natural);
* erase works on whole blocks and wears them out.

The chip is *functional*: operations mutate state instantly and return.
Timing lives in :mod:`repro.channel.engine`, which wraps these calls in
simulated delays.  Page payloads are arbitrary Python objects -- real
``bytes`` when functional correctness is being tested, lightweight
placeholders in large performance runs.

Blocks are materialized lazily so that a full 704 GB device (44 channels
x 2 chips x 2 planes x 2048 blocks) does not allocate millions of
objects up front.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional

import numpy as np

from repro.faults.errors import TransientFault
from repro.faults.injector import (
    ERASE_FAIL,
    NULL_INJECTOR,
    PROGRAM_FAIL,
    READ_UNCORRECTABLE,
)
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming


class FlashError(Exception):
    """Base class for flash programming-model violations."""


class ProgramError(FlashError):
    """Programming a non-erased page, or out of sequential order."""


class WearOutError(FlashError):
    """Operation on a worn-out (bad) block."""


class ProgramFailError(FlashError):
    """A program op failed to verify: the block must be retired.

    The FTL absorbs this (bad-block remap + reprogram); it is not a
    :class:`~repro.faults.errors.TransientFault` because it must never
    escape the device stack to retry/failover code.
    """


class UncorrectableReadError(TransientFault, FlashError):
    """A page read with more bit errors than the per-chip BCH corrects.

    SDF has no on-device parity across chips, so this propagates to the
    host, whose replication layer recovers from another replica (paper
    §2.2).
    """


class PageState(Enum):
    """Lifecycle of one page: erased or programmed."""
    ERASED = "erased"
    PROGRAMMED = "programmed"


class BlockState(Enum):
    """Lifecycle of one block: free/open/full/bad."""
    FREE = "free"  # fully erased, nothing programmed
    OPEN = "open"  # partially programmed
    FULL = "full"  # every page programmed
    BAD = "bad"  # factory-bad or worn out


class Page:
    """A read-only view of one page's state (not stored internally)."""

    __slots__ = ("state", "data")

    def __init__(self, state: PageState, data):
        self.state = state
        self.data = data

    def __repr__(self):
        return f"Page({self.state.value})"


class Block:
    """One erase block: a write frontier plus programmed-page payloads."""

    __slots__ = ("index", "pages_per_block", "erase_count", "_bad", "_write_ptr", "_data")

    def __init__(self, index: int, pages_per_block: int):
        self.index = index
        self.pages_per_block = pages_per_block
        self.erase_count = 0
        self._bad = False
        self._write_ptr = 0  # next page that may be programmed
        self._data: Dict[int, object] = {}

    @property
    def is_bad(self) -> bool:
        """True when the block is unusable."""
        return self._bad

    def mark_bad(self) -> None:
        """Retire the block permanently."""
        self._bad = True
        self._data.clear()

    @property
    def state(self) -> BlockState:
        """Current lifecycle state."""
        if self._bad:
            return BlockState.BAD
        if self._write_ptr == 0:
            return BlockState.FREE
        if self._write_ptr >= self.pages_per_block:
            return BlockState.FULL
        return BlockState.OPEN

    @property
    def write_pointer(self) -> int:
        """Index of the next page that sequential programming will accept."""
        return self._write_ptr

    def page(self, page_index: int) -> Page:
        """Read-only view of one page's state."""
        self._check_page_index(page_index)
        if page_index < self._write_ptr:
            return Page(PageState.PROGRAMMED, self._data.get(page_index))
        return Page(PageState.ERASED, None)

    def read(self, page_index: int):
        """Payload of a programmed page; ``None`` for an erased page."""
        if self._bad:
            raise WearOutError(f"read from bad block {self.index}")
        self._check_page_index(page_index)
        if page_index < self._write_ptr:
            return self._data.get(page_index)
        return None

    def read_run(self, first: int, count: int) -> list:
        """Payloads of ``count`` consecutive pages from ``first``: what
        :meth:`read` returns for each, behind one bad-block check and
        one range check (nothing is read when either fails)."""
        if self._bad:
            raise WearOutError(f"read from bad block {self.index}")
        stop = first + count
        if count > 0:
            self._check_page_index(first)
            self._check_page_index(stop - 1)
        written = self._write_ptr
        get = self._data.get
        return [
            get(page) if page < written else None for page in range(first, stop)
        ]

    def program(self, page_index: int, data) -> None:
        """Program the block's next sequential page."""
        if self._bad:
            raise WearOutError(f"program to bad block {self.index}")
        self._check_page_index(page_index)
        if page_index != self._write_ptr:
            raise ProgramError(
                f"block {self.index}: pages must be programmed sequentially "
                f"(expected page {self._write_ptr}, got {page_index})"
            )
        # A placeholder page (``None``) keeps no entry: ``_data`` is
        # only ever read with ``.get``.
        if data is not None:
            self._data[page_index] = data
        self._write_ptr += 1

    def program_run(self, first: int, payloads) -> None:
        """:meth:`program` for each of ``payloads`` on consecutive pages
        from ``first``, behind one bad-block, one range and one
        sequential-order check (nothing is programmed when any fails)."""
        if self._bad:
            raise WearOutError(f"program to bad block {self.index}")
        count = len(payloads)
        if count > 0:
            self._check_page_index(first)
            self._check_page_index(first + count - 1)
            if first != self._write_ptr:
                raise ProgramError(
                    f"block {self.index}: pages must be programmed "
                    f"sequentially (expected page {self._write_ptr}, "
                    f"got {first})"
                )
        if payloads.count(None) != count:
            self._data.update(
                {
                    page: data
                    for page, data in enumerate(payloads, first)
                    if data is not None
                }
            )
        self._write_ptr += count

    def erase(self) -> None:
        """Erase the whole block (bumps the erase count)."""
        if self._bad:
            raise WearOutError(f"erase of bad block {self.index}")
        self._data.clear()
        self._write_ptr = 0
        self.erase_count += 1

    def _check_page_index(self, page_index: int) -> None:
        if not 0 <= page_index < self.pages_per_block:
            raise IndexError(
                f"page {page_index} outside block of {self.pages_per_block}"
            )


class Plane:
    """One plane: an independently accessible array of blocks."""

    __slots__ = ("index", "geometry", "_blocks")

    def __init__(self, index: int, geometry: FlashGeometry):
        self.index = index
        self.geometry = geometry
        self._blocks: Dict[int, Block] = {}

    def block(self, block_index: int) -> Block:
        """The block at the given index (materialized lazily)."""
        if not 0 <= block_index < self.geometry.blocks_per_plane:
            raise IndexError(
                f"block {block_index} outside plane of "
                f"{self.geometry.blocks_per_plane}"
            )
        blk = self._blocks.get(block_index)
        if blk is None:
            blk = Block(block_index, self.geometry.pages_per_block)
            self._blocks[block_index] = blk
        return blk

    @property
    def touched_blocks(self) -> int:
        """How many blocks have been materialized (for memory accounting)."""
        return len(self._blocks)


class FlashChip:
    """A NAND chip: planes, with wear tracking and operation counters.

    ``endurance`` (rated P/E cycles) plus an optional RNG drives wear-out:
    beyond the rated endurance each further erase may fail and mark the
    block bad.  With ``endurance=None`` (the default for performance
    experiments) blocks never wear out.
    """

    def __init__(
        self,
        geometry: FlashGeometry = FlashGeometry(),
        timing: NandTiming = NandTiming(),
        chip_id: int = 0,
        rng: Optional[np.random.Generator] = None,
        factory_bad_rate: float = 0.0,
        endurance: Optional[int] = None,
    ):
        if not 0.0 <= factory_bad_rate < 1.0:
            raise ValueError(f"factory_bad_rate {factory_bad_rate} outside [0,1)")
        if endurance is not None and endurance <= 0:
            raise ValueError(f"endurance must be positive, got {endurance}")
        self.geometry = geometry
        self.timing = timing
        self.chip_id = chip_id
        self.endurance = endurance
        self._rng = rng
        self.planes = [Plane(i, geometry) for i in range(geometry.planes_per_chip)]
        self.reads = 0
        self.programs = 0
        self.erases = 0
        #: Fault-injection handle; :data:`~repro.faults.injector.NULL_INJECTOR`
        #: unless a :class:`~repro.faults.plan.FaultPlan` is wired in.
        self.faults = NULL_INJECTOR
        if factory_bad_rate > 0.0:
            self._seed_factory_bad_blocks(factory_bad_rate)

    def _seed_factory_bad_blocks(self, rate: float) -> None:
        rng = self._require_rng()
        for plane in self.planes:
            n_bad = rng.binomial(self.geometry.blocks_per_plane, rate)
            bad = rng.choice(
                self.geometry.blocks_per_plane, size=n_bad, replace=False
            )
            for block_index in bad:
                plane.block(int(block_index)).mark_bad()

    def _require_rng(self) -> np.random.Generator:
        if self._rng is None:
            raise ValueError(
                "this FlashChip configuration needs an rng (factory bad "
                "blocks / finite endurance are stochastic)"
            )
        return self._rng

    # -- addressing ------------------------------------------------------------
    def plane(self, plane_index: int) -> Plane:
        """The plane at the given index."""
        return self.planes[plane_index]

    def block(self, plane_index: int, block_index: int) -> Block:
        """The block at the given index (materialized lazily)."""
        return self.planes[plane_index].block(block_index)

    # -- operations ------------------------------------------------------------
    def read_page(self, plane_index: int, block_index: int, page_index: int):
        """Return the payload of a page (``None`` if erased).

        Raises :class:`UncorrectableReadError` when the fault plane
        injects a beyond-BCH read failure.
        """
        self.reads += 1
        data = self.planes[plane_index].block(block_index).read(page_index)
        if self.faults is NULL_INJECTOR:
            return data
        if (
            self.faults.fires(
                READ_UNCORRECTABLE,
                chip=self.chip_id,
                plane=plane_index,
                block=block_index,
                page=page_index,
            )
            is not None
        ):
            raise UncorrectableReadError(
                f"chip {self.chip_id}: uncorrectable read at "
                f"plane {plane_index} block {block_index} page {page_index}"
            )
        return data

    def read_pages(
        self, plane_index: int, block_index: int, first: int, count: int
    ) -> list:
        """:meth:`read_page` for ``count`` consecutive pages of one
        block, in order, with one block lookup.  An injector with a
        ``READ_UNCORRECTABLE`` rule draws per page, so a failing page
        raises with ``reads`` counting it and the pages before it; a bad
        block or a range error raises before any page is read or
        counted."""
        if not self.faults.quiet(READ_UNCORRECTABLE):
            return [
                self.read_page(plane_index, block_index, page)
                for page in range(first, first + count)
            ]
        data = self.planes[plane_index].block(block_index).read_run(first, count)
        self.reads += count
        return data

    def program_page(
        self, plane_index: int, block_index: int, page_index: int, data
    ) -> None:
        """Program one page (must be the block's next sequential page).

        An injected program failure retires the block (real NAND retires
        on failed verify) and raises :class:`ProgramFailError` for the
        FTL to remap.
        """
        self.programs += 1
        block = self.planes[plane_index].block(block_index)
        if self.faults is NULL_INJECTOR:
            block.program(page_index, data)
            return
        if (
            self.faults.fires(
                PROGRAM_FAIL,
                chip=self.chip_id,
                plane=plane_index,
                block=block_index,
                page=page_index,
            )
            is not None
        ):
            block.mark_bad()
            raise ProgramFailError(
                f"chip {self.chip_id}: program verify failed at "
                f"plane {plane_index} block {block_index} page {page_index}"
            )
        block.program(page_index, data)

    def program_pages(
        self, plane_index: int, block_index: int, first: int, payloads
    ) -> None:
        """:meth:`program_page` for each of ``payloads`` on consecutive
        pages of one block from ``first``, in order, with one block
        lookup.  An injector with a ``PROGRAM_FAIL`` rule draws per
        page, so a failing page raises with ``programs`` counting it and
        the pages before it, those pages programmed and the block
        retired; otherwise a bad block, a range error or a run that does
        not start at the block's write pointer raises before any page of
        the run is programmed or counted."""
        if not self.faults.quiet(PROGRAM_FAIL):
            for page, data in enumerate(payloads, first):
                self.program_page(plane_index, block_index, page, data)
            return
        self.planes[plane_index].block(block_index).program_run(first, payloads)
        self.programs += len(payloads)

    def erase_block(self, plane_index: int, block_index: int) -> None:
        """Erase a block; may mark it bad once past rated endurance.

        An injected erase failure marks the block bad the same way the
        endurance model does; the FTL's erase path sees ``is_bad`` and
        retires it.
        """
        self.erases += 1
        block = self.block(plane_index, block_index)
        block.erase()
        if (
            self.faults.fires(
                ERASE_FAIL,
                chip=self.chip_id,
                plane=plane_index,
                block=block_index,
            )
            is not None
        ):
            block.mark_bad()
            return
        if self.endurance is not None and block.erase_count > self.endurance:
            # Past rated endurance each erase has an increasing chance of
            # failing to verify; the block is then retired as bad.
            overshoot = block.erase_count - self.endurance
            p_fail = min(1.0, overshoot / self.endurance)
            if self._require_rng().random() < p_fail:
                block.mark_bad()

    def is_bad(self, plane_index: int, block_index: int) -> bool:
        """True when the block is unusable."""
        return self.block(plane_index, block_index).is_bad

    # -- accounting -------------------------------------------------------------
    def max_erase_count(self) -> int:
        """Highest erase count over all touched blocks."""
        return max(
            (b.erase_count for p in self.planes for b in p._blocks.values()),
            default=0,
        )

    def total_erase_count(self) -> int:
        """Sum of erase counts over all touched blocks."""
        return sum(
            b.erase_count for p in self.planes for b in p._blocks.values()
        )

    def __repr__(self):
        return (
            f"FlashChip(id={self.chip_id}, planes={len(self.planes)}, "
            f"reads={self.reads}, programs={self.programs}, "
            f"erases={self.erases})"
        )
