"""Physical flash operation records.

Functional FTL calls return sequences of :class:`FlashOp` describing
exactly which physical reads/programs/erases happened.  The timed device
layer replays these against channel engines to charge simulated time,
and tests use them to assert write-amplification behaviour.

The page-mapped FTLs return lists, except where a write set off a GC
relocation: that move comes back as one :class:`Relocation` (the
victim's read run and the destination plane runs) among the write's
other ops, all of them one :class:`OpParts`.  The block FTL's two
shapes of work (paper S2.3) -- the 8 MB write striped over a channel's
planes, and reads that run page after page inside one plane's block --
come back as one :class:`OpRuns`: the plane runs, and the ops only when
somebody asks for them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat
from operator import attrgetter
from typing import Iterator, List, Tuple

from repro.nand.array import PhysicalAddress


class OpKind(Enum):
    """The three physical flash operations."""
    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"


@dataclass(frozen=True, slots=True)
class FlashOp:
    """One physical flash operation."""

    kind: OpKind
    address: PhysicalAddress
    nbytes: int = 0  # payload moved over the channel bus (0 for erase)
    #: True when the op was internal housekeeping (GC movement, wear
    #: leveling migration) rather than directly serving a host request.
    internal: bool = False

    @property
    def channel(self) -> int:
        """Channel this op targets."""
        return self.address.channel


def read_op(addr: PhysicalAddress, nbytes: int, internal=False) -> FlashOp:
    """Construct a page-read op."""
    return FlashOp(OpKind.READ, addr, nbytes, internal)


def program_op(addr: PhysicalAddress, nbytes: int, internal=False) -> FlashOp:
    """Construct a page-program op."""
    return FlashOp(OpKind.PROGRAM, addr, nbytes, internal)


def erase_op(addr: PhysicalAddress, internal=False) -> FlashOp:
    """Construct a block-erase op."""
    return FlashOp(OpKind.ERASE, addr, 0, internal)


_plane = attrgetter("address.chip", "address.plane")


def planes_of(ops: Sequence) -> Iterator[Tuple[int, int]]:
    """``(chip, plane)`` of each op in turn; an :class:`OpRuns` answers
    without building the ops."""
    if isinstance(ops, OpRuns):
        return ops.planes()
    return map(_plane, ops)


class _OpSequence(Sequence):
    """A ``Sequence[FlashOp]`` held other than as a list: it iterates
    by index unless it knows better, and compares equal to any sequence
    of the same ops."""

    __slots__ = ()

    def __iter__(self) -> Iterator[FlashOp]:
        for index in range(len(self)):
            yield self[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )


class OpRuns(_OpSequence):
    """One request's page ops on one channel, held as plane runs.

    ``runs`` are ``(chip, plane, block, first_page, count)``; every op
    has the same ``kind`` and moves ``nbytes``.  The ops go run after
    run (a read), or -- ``interleaved`` -- page by page across the runs:
    the first page of every run, then the second (a write feeding all
    of a channel's planes from the start; the runs are then equally
    long).

    It is the ``Sequence[FlashOp]`` a list of those ops would be:
    ``len``, indexing, iteration and ``==`` (against any sequence) give
    exactly those ops, built when asked for and not kept, and a slice
    is again a batch -- the same runs behind a narrower window.  What
    reserves ahead of its instants never asks: it reads
    :meth:`plane_runs` or :meth:`planes`.
    """

    __slots__ = (
        "kind", "channel", "nbytes", "runs", "interleaved", "_start", "_stop",
    )

    def __init__(
        self, kind: OpKind, channel: int, nbytes: int, runs, interleaved: bool
    ):
        self.kind = kind
        self.channel = channel
        self.nbytes = nbytes
        self.runs: Tuple[Tuple[int, int, int, int, int], ...] = tuple(runs)
        self.interleaved = interleaved
        if interleaved and len({run[4] for run in self.runs}) > 1:
            raise ValueError("interleaved runs must be equally long")
        #: The window of the runs' ops this batch is.
        self._start = 0
        self._stop = sum(run[4] for run in self.runs)

    def _window(self, start: int, stop: int) -> "OpRuns":
        """The same runs behind the window ``[start, stop)`` of this
        one (``copy.copy`` of a slotted object costs five times this)."""
        batch = OpRuns.__new__(OpRuns)
        batch.kind = self.kind
        batch.channel = self.channel
        batch.nbytes = self.nbytes
        batch.runs = self.runs
        batch.interleaved = self.interleaved
        batch._start = self._start + start
        batch._stop = self._start + max(start, stop)
        return batch

    # -- without building an op ---------------------------------------------------
    def planes(self) -> Iterator[Tuple[int, int]]:
        """``(chip, plane)`` of each op in turn (the order indexing
        follows, streamed)."""
        runs = self.runs
        if self.interleaved:
            stripe = [run[:2] for run in runs]
            every = chain.from_iterable(repeat(stripe, runs[0][4] if runs else 0))
        else:
            every = chain.from_iterable(repeat(run[:2], run[4]) for run in runs)
        return islice(every, self._start, self._stop)

    def plane_runs(self) -> Iterator[Tuple[Tuple[int, int], int]]:
        """``((chip, plane), count)`` for each stretch of consecutive
        ops on one plane's run, in op order (interleaved ops are
        stretches of one)."""
        if self.interleaved:
            for key in self.planes():
                yield key, 1
            return
        start, stop = self._start, self._stop
        position = 0
        for chip, plane, _block, _first, count in self.runs:
            low = max(position, start)
            position += count
            high = min(position, stop)
            if low < high:
                yield (chip, plane), high - low

    # -- the sequence of ops ----------------------------------------------------------
    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, index):
        size = self._stop - self._start
        if isinstance(index, slice):
            start, stop, step = index.indices(size)
            if step != 1:
                return [self[position] for position in range(start, stop, step)]
            return self._window(start, stop)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("op index out of range")
        offset = self._start + index
        runs = self.runs
        if self.interleaved:
            offset, stripe_index = divmod(offset, len(runs))
            chip, plane, block, first, _count = runs[stripe_index]
        else:
            for chip, plane, block, first, count in runs:
                if offset < count:
                    break
                offset -= count
        return FlashOp(
            self.kind,
            PhysicalAddress(self.channel, chip, plane, block, first + offset),
            self.nbytes,
        )

    def __repr__(self):
        order = "interleaved" if self.interleaved else "run after run"
        return (
            f"OpRuns({self.kind.name}, channel={self.channel}, "
            f"{len(self)} ops of {len(self.runs)} runs, {order})"
        )


class StripePage:
    """Page ``index`` of a write's :class:`OpRuns`, a PROGRAM, with its
    ``(chip, plane)`` already drawn: what a written page hands the
    channel when it reaches it at its DMA end.  Reserved ahead, the
    engine reads ``plane`` and ``nbytes``; only a page that runs per
    phase has its op built (``runs[index]``)."""

    __slots__ = ("runs", "index", "plane", "nbytes")

    kind = OpKind.PROGRAM

    def __init__(self, runs: OpRuns, index: int, plane: Tuple[int, int]):
        self.runs = runs
        self.index = index
        self.plane = plane
        self.nbytes = runs.nbytes


class Relocation(_OpSequence):
    """A GC relocation's ops on one channel, held as the victim's read
    run and the destination plane runs.

    Page ``i`` of the move is read at ``offsets[i]`` of the victim block
    ``source`` = ``(chip, plane, block)`` (op ``2i``) and programmed by
    call ``i`` of the page-by-page loop (op ``2i + 1``): read, program,
    read, program, ... as the loop returns them.  ``runs`` are
    ``(k, count, chip, plane, block, first_page)``: calls ``k``,
    ``k + stride``, ... land on ``count`` consecutive pages of one
    block.  Like :class:`OpRuns` it is the ``Sequence[FlashOp]`` that
    list would be, its ops (all ``internal``) built when asked for and
    not kept; what reserves ahead reads :meth:`read_run` and
    :meth:`program_planes` instead.
    """

    __slots__ = ("channel", "nbytes", "source", "offsets", "runs", "stride")

    def __init__(self, channel: int, nbytes: int, source, offsets, runs, stride):
        self.channel = channel
        self.nbytes = nbytes
        self.source: Tuple[int, int, int] = source
        self.offsets = offsets
        self.runs = runs
        self.stride = stride

    # -- without building an op ---------------------------------------------------
    def read_run(self) -> Tuple[Tuple[int, int], int]:
        """``((chip, plane), pages)`` of the reads: one plane run."""
        chip, plane, _block = self.source
        return (chip, plane), len(self.offsets)

    def reads(self) -> List[FlashOp]:
        """The READ ops (``self[0::2]``), built."""
        chip, plane, block = self.source
        channel = self.channel
        nbytes = self.nbytes
        return [
            FlashOp(
                OpKind.READ,
                PhysicalAddress(channel, chip, plane, block, offset),
                nbytes,
                True,
            )
            for offset in self.offsets
        ]

    def program_planes(self) -> List[Tuple[int, int]]:
        """``(chip, plane)`` of each program in turn."""
        planes: List[Tuple[int, int]] = [None] * len(self.offsets)
        stride = self.stride
        for k, count, chip, plane, _block, _page in self.runs:
            planes[k : k + count * stride : stride] = [(chip, plane)] * count
        return planes

    def programs(self) -> List[FlashOp]:
        """The PROGRAM ops (``self[1::2]``), built run by run."""
        programs: List[FlashOp] = [None] * len(self.offsets)
        channel = self.channel
        nbytes = self.nbytes
        stride = self.stride
        for k, count, chip, plane, block, page in self.runs:
            programs[k : k + count * stride : stride] = [
                FlashOp(
                    OpKind.PROGRAM,
                    PhysicalAddress(channel, chip, plane, block, index),
                    nbytes,
                    True,
                )
                for index in range(page, page + count)
            ]
        return programs

    # -- the sequence of ops ----------------------------------------------------------
    def __len__(self) -> int:
        return 2 * len(self.offsets)

    def __iter__(self) -> Iterator[FlashOp]:
        for read, program in zip(self.reads(), self.programs()):
            yield read
            yield program

    def __getitem__(self, index):
        size = len(self)
        if isinstance(index, slice):
            return [self[position] for position in range(*index.indices(size))]
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("op index out of range")
        call, is_program = divmod(index, 2)
        if not is_program:
            chip, plane, block = self.source
            address = PhysicalAddress(
                self.channel, chip, plane, block, self.offsets[call]
            )
            return FlashOp(OpKind.READ, address, self.nbytes, True)
        stride = self.stride
        for k, count, chip, plane, block, page in self.runs:
            step, phase = divmod(call - k, stride)
            if not phase and 0 <= step < count:
                address = PhysicalAddress(self.channel, chip, plane, block, page + step)
                return FlashOp(OpKind.PROGRAM, address, self.nbytes, True)
        raise IndexError(f"no program run holds call {call}")

    def __repr__(self):
        return (
            f"Relocation(channel={self.channel}, {len(self.offsets)} pages "
            f"from {self.source} over {len(self.runs)} runs)"
        )


class OpParts(_OpSequence):
    """Ops held as parts, in order: single :class:`FlashOp` s and batches
    (:class:`OpRuns`, :class:`Relocation`).  It is the
    ``Sequence[FlashOp]`` their concatenation is; the channel engine
    takes the parts as they are."""

    __slots__ = ("parts", "_size")

    def __init__(self, parts):
        self.parts = list(parts)
        self._size = sum(
            1 if isinstance(part, FlashOp) else len(part) for part in self.parts
        )

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[FlashOp]:
        for part in self.parts:
            if isinstance(part, FlashOp):
                yield part
            else:
                yield from part

    def __getitem__(self, index):
        size = self._size
        if isinstance(index, slice):
            return list(self)[index]
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("op index out of range")
        for part in self.parts:
            if isinstance(part, FlashOp):
                if not index:
                    return part
                index -= 1
            elif index < len(part):
                return part[index]
            else:
                index -= len(part)
        raise IndexError("op index out of range")

    def __repr__(self):
        return f"OpParts({len(self)} ops in {len(self.parts)} parts)"
