"""The user-space block layer (paper S2.4).

Sits between the storage software (CCDB slices) and the SDF's exposed
channels.  Responsibilities, exactly as the paper lists them:

* dictate the fixed 8 MB write size and hand out unique block IDs;
* hash each ID to a channel (round-robin over consecutive IDs);
* manage physical space: track which logical blocks are erased and
  ready, which channels to write, and erase freed blocks -- in the
  background by default, so erase latency stays off the write path;
* translate byte-level reads into 8 KB page reads on the right channel.

All I/O methods are generators to be run as simulation processes; a
read is also a continuation (:meth:`UserSpaceBlockLayer.read_call`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.core.scheduler import ErasePolicy, PlacementPolicy, RoundRobinPlacement
from repro.devices.sdf import SDFDevice
from repro.errors import StorageFullError
from repro.sim import Store
from repro.sim.process import bridged


@dataclass(frozen=True)
class BlockLocation:
    """Where a block ID's data lives."""

    channel: int
    logical_block: int


class BlockNotFoundError(KeyError):
    """Read/free of a block ID that has never been written."""


class _BlockRead:
    """One timed block read past its channel read: what the block layer
    does with the pages when they arrive."""

    __slots__ = (
        "layer", "obs", "block_id", "channel", "offset", "nbytes", "start",
        "then",
    )

    def __init__(self, layer, block_id, channel, offset, nbytes, then):
        self.layer = layer
        self.obs = layer.obs
        self.block_id = block_id
        self.channel = channel
        self.offset = offset
        self.nbytes = nbytes
        self.start = layer.sim._now
        self.then = then

    def done(self, payloads) -> None:
        layer = self.layer
        obs = self.obs
        if obs is not None:
            layer._m_reads.add()
            if obs.trace.enabled:
                obs.trace.span(
                    "blk/read",
                    "read",
                    self.start,
                    layer.sim.now,
                    block_id=self.block_id,
                    channel=self.channel,
                    nbytes=self.nbytes,
                )
        then = self.then
        self.then = None
        then(layer._joined(payloads, self.offset, self.nbytes))


class UserSpaceBlockLayer:
    """ID-addressed 8 MB block storage over an :class:`SDFDevice`."""

    def __init__(
        self,
        device: SDFDevice,
        placement: Optional[PlacementPolicy] = None,
        erase_policy: ErasePolicy = ErasePolicy.BACKGROUND,
    ):
        self.device = device
        self.sim = device.sim
        self.placement = placement if placement is not None else RoundRobinPlacement()
        self.erase_policy = erase_policy
        self.block_bytes = device.ftls[0].logical_block_bytes
        self.page_size = device.array.geometry.page_size
        self.pages_per_block = device.ftls[0].pages_per_logical_block

        #: Optional :class:`repro.obs.Observability`; wired up (together
        #: with the cached metric handles below) by
        #: ``repro.obs.attach_block_layer``.  None keeps every hook a
        #: single attribute check.
        self.obs = None
        self._m_writes = self._m_reads = None
        self._m_frees = self._m_rewrites = None
        self._m_backlog: List = []
        #: Optional :class:`repro.qos.limits.BlockWriteLimiter` bounding
        #: concurrent block writes per channel; set by
        #: ``repro.qos.attach_block_layer_qos``.  None leaves writes
        #: unbounded.
        self.qos = None

        self._next_id = 0
        self._locations: Dict[int, BlockLocation] = {}
        #: Per channel: erased logical blocks ready for writing.
        self._ready: List[Store] = []
        #: Per channel: freed-but-not-yet-erased blocks (inline policy
        #: pulls from here; background policy drains it via a process).
        self._dirty: List[Store] = []
        #: Outstanding writes per channel, for load-aware placement.
        self.loads: List[int] = [0] * device.n_channels
        self.background_erases = 0

        for channel in range(device.n_channels):
            ready = Store(self.sim)
            for logical_block in range(device.ftls[channel].n_logical_blocks):
                ready.put(logical_block)
            self._ready.append(ready)
            self._dirty.append(Store(self.sim))
            if erase_policy is ErasePolicy.BACKGROUND:
                self.sim.process(self._background_eraser(channel))

    # -- ID management -----------------------------------------------------------
    def allocate_id(self) -> int:
        """A fresh unique block ID (the low-64-bit counter of S2.4)."""
        block_id = self._next_id
        self._next_id += 1
        return block_id

    def location_of(self, block_id: int) -> Optional[BlockLocation]:
        """Where a block ID's data lives (None if unknown)."""
        return self._locations.get(block_id)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._locations

    @property
    def stored_blocks(self) -> int:
        """Number of block IDs currently stored."""
        return len(self._locations)

    def _check_range(self, offset: int, nbytes: Optional[int]) -> int:
        """Validate a byte range against the block, returning ``nbytes``.

        Shared by the timed and functional read paths so both reject
        out-of-range requests instead of silently truncating.
        """
        if nbytes is None:
            nbytes = self.block_bytes - offset
        if offset < 0 or nbytes < 0 or offset + nbytes > self.block_bytes:
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) outside the block"
            )
        return nbytes

    # -- data conversion ----------------------------------------------------------
    def _paginate(self, data: Union[bytes, Sequence, None]) -> List:
        """Turn a write payload into exactly ``pages_per_block`` pages."""
        if data is None:
            return [None] * self.pages_per_block
        if isinstance(data, (bytes, bytearray, memoryview)):
            raw = bytes(data)
            if len(raw) > self.block_bytes:
                raise ValueError(
                    f"payload of {len(raw)} bytes exceeds the "
                    f"{self.block_bytes}-byte block"
                )
            pages = [
                raw[offset : offset + self.page_size]
                for offset in range(0, len(raw), self.page_size)
            ]
            pages += [b""] * (self.pages_per_block - len(pages))
            return pages
        pages = list(data)
        if len(pages) != self.pages_per_block:
            raise ValueError(
                f"page list must have {self.pages_per_block} entries, "
                f"got {len(pages)}"
            )
        return pages

    # -- I/O (generators) --------------------------------------------------------------
    def write(self, block_id: int, data: Union[bytes, Sequence, None] = None):
        """Store an 8 MB block under ``block_id``.

        ``data`` may be ``bytes`` (padded to the block), a full page
        list, or ``None`` for a sized placeholder.  Rewriting an existing
        ID frees its old block first.
        """
        obs = self.obs
        start = self.sim.now
        rewrite = block_id in self._locations
        if rewrite:
            yield from self.free(block_id)
        channel_index = self.placement.choose(block_id, self.loads)
        channel = self.device.channels[channel_index]
        self.loads[channel_index] += 1
        write_slot = None
        try:
            if self.qos is not None:
                # Wait for a per-channel write slot while the load count
                # already reflects us, so placement steers later writes
                # around the backlog we are queued behind.
                write_slot = yield from self.qos.acquire(channel_index)
            logical_block = yield from self._acquire_block(channel_index)
            try:
                yield from channel.write(logical_block, self._paginate(data))
            except Exception:
                # Half-programmed and unnamed: queue it for erase, or
                # the channel is one block short for good.  (Not
                # BaseException: a generator closed at teardown must
                # not schedule on a simulator being collected.)
                self._dirty[channel_index].put(logical_block)
                raise
            self._locations[block_id] = BlockLocation(
                channel_index, logical_block
            )
        finally:
            if write_slot is not None:
                self.qos.release(channel_index, write_slot)
            self.loads[channel_index] -= 1
        if obs is not None:
            self._m_writes.add()
            if rewrite:
                self._m_rewrites.add()
            if obs.trace.enabled:
                obs.trace.span(
                    "blk/write",
                    "write",
                    start,
                    self.sim.now,
                    block_id=block_id,
                    channel=channel_index,
                    rewrite=rewrite,
                )

    def read(self, block_id: int, offset: int = 0, nbytes: Optional[int] = None):
        """Read ``nbytes`` starting at ``offset`` within the block.

        Returns ``bytes`` when the block was written with real data,
        else the raw page payload list.
        """
        return bridged(self.sim, self.read_call, block_id, offset, nbytes)

    def read_call(self, block_id: int, offset: int, nbytes, then, fail) -> None:
        """:meth:`read` as a continuation: ``then(data)`` or
        ``fail(exc)``; an unknown ID or a bad range raises here."""
        location = self._locations.get(block_id)
        if location is None:
            raise BlockNotFoundError(block_id)
        nbytes = self._check_range(offset, nbytes)
        if nbytes == 0:
            then(b"")
            return
        first_page = offset // self.page_size
        last_page = (offset + nbytes - 1) // self.page_size
        read = _BlockRead(self, block_id, location.channel, offset, nbytes, then)
        self.device.channels[location.channel].read_call(
            location.logical_block,
            first_page,
            last_page - first_page + 1,
            read.done,
            fail,
        )

    def _joined(self, payloads, offset: int, nbytes: int):
        """Pages holding real data as the requested bytes; anything else
        as the raw page payload list."""
        if all(isinstance(p, (bytes, bytearray)) for p in payloads):
            joined = b"".join(bytes(p) for p in payloads)
            start = offset % self.page_size
            return joined[start : start + nbytes]
        return payloads

    def free(self, block_id: int):
        """Release a block ID; its flash is erased per the erase policy."""
        location = self._locations.pop(block_id, None)
        if location is None:
            raise BlockNotFoundError(block_id)
        yield self._dirty[location.channel].put(location.logical_block)
        if self.obs is not None:
            self._m_frees.add()
            self._m_backlog[location.channel].update(
                self.sim.now, len(self._dirty[location.channel])
            )

    # -- erase machinery ------------------------------------------------------------
    def _acquire_block(self, channel_index: int):
        """Generator: an erased logical block on the channel.

        Background policy: wait on the ready queue (the eraser feeds it).
        Inline policy: if no block is ready, erase a dirty one now --
        paying tBERS on the write path.
        """
        ready = self._ready[channel_index]
        if self.erase_policy is ErasePolicy.INLINE and len(ready) == 0:
            logical_block = yield self._dirty[channel_index].get()
            yield from self.device.channels[channel_index].erase(logical_block)
            return logical_block
        logical_block = yield ready.get()
        return logical_block

    # -- functional (zero-time) paths for experiment preloading -------------------
    def functional_write(self, block_id: int, data=None) -> None:
        """Write a block with no simulated time (workload preloading)."""
        if block_id in self._locations:
            self.functional_free(block_id)
        channel_index = self.placement.choose(block_id, self.loads)
        ready = self._ready[channel_index]
        if not ready.items:
            raise StorageFullError(
                f"channel {channel_index} has no ready blocks to preload into"
            )
        logical_block = ready.items.popleft()
        self.device.ftls[channel_index].write(
            logical_block, self._paginate(data)
        )
        self._locations[block_id] = BlockLocation(channel_index, logical_block)
        if self._next_id <= block_id:
            self._next_id = block_id + 1

    def functional_read(self, block_id: int, offset: int = 0, nbytes=None):
        """Read with no simulated time; same semantics as :meth:`read`."""
        location = self._locations.get(block_id)
        if location is None:
            raise BlockNotFoundError(block_id)
        nbytes = self._check_range(offset, nbytes)
        if nbytes == 0:
            return b""
        first_page = offset // self.page_size
        last_page = (offset + nbytes - 1) // self.page_size
        payloads, _ = self.device.ftls[location.channel].read(
            location.logical_block, first_page, last_page - first_page + 1
        )
        return self._joined(payloads, offset, nbytes)

    def functional_free(self, block_id: int) -> None:
        """Free and erase with no simulated time."""
        location = self._locations.pop(block_id, None)
        if location is None:
            raise BlockNotFoundError(block_id)
        self.device.ftls[location.channel].erase(location.logical_block)
        self._ready[location.channel].items.append(location.logical_block)

    def _background_eraser(self, channel_index: int):
        """Drains the dirty queue, erasing freed blocks off-path."""
        channel = self.device.channels[channel_index]
        dirty = self._dirty[channel_index]
        ready = self._ready[channel_index]
        while True:
            logical_block = yield dirty.get()
            if self.obs is not None:
                self._m_backlog[channel_index].update(self.sim.now, len(dirty))
            yield from channel.erase(logical_block)
            self.background_erases += 1
            yield ready.put(logical_block)
