"""Timed patch storage for storage-server nodes: one store, any device.

One CCDB patch is exactly one device write unit (paper S2.4, S3.1), so
all the host needs between the LSM and the flash is "claim a unit,
write it whole, read pages of it, give it back".  :class:`PatchStore`
says that once; what differs per device kind is the *extent backend*
it runs on:

* ``claim() -> handle`` -- a free unit, or :class:`StorageFullError`;
* ``write(handle, patch)`` -- generator: fill the unit, every page
  holding ``patch``;
* ``read_call(handle, offset, nbytes, then, fail)`` -- continuation ->
  the payloads of the pages covering that byte range (the block
  layer's, a conventional device's or a zone's own read);
* ``free(handle)`` -- generator: give a written unit back;
* ``abandon(handle)`` -- give back a claimed unit whose write failed;
* ``functional_write`` / ``functional_read`` (-> the first page's
  payload) / ``functional_free`` -- the zero-time forms preloading uses;
* ``device``, ``unit_bytes``, and ``block_layer`` (None off SDF).

Timed writes and frees hand back the device's own generator; a read --
a get's value (:meth:`PatchStore.read_value_call`) or a whole patch
(:meth:`PatchStore.read_patch_call`) -- is one continuation object a
layer down to the device's read.  Patches are kept
as Python objects: every page of a stored patch holds a reference to
the same :class:`~repro.kv.patch.Patch`, so any page read can resolve
values while the simulator charges time for exactly the pages a real
system would touch.
"""

from __future__ import annotations

from collections import deque

from repro.core.block_layer import UserSpaceBlockLayer
from repro.errors import StorageFullError
from repro.kv.lsm import Lookup
from repro.kv.patch import Patch
from repro.sim.process import bridged

#: The CCDB patch size: the unit of an LPN-extent backend, whose device
#: has no write unit of its own (blocks and zones bring theirs).
PATCH_BYTES = 8 << 20


class BlockLayerExtents:
    """SDF: one 8 MB block of the user-space block layer per patch."""

    def __init__(self, block_layer: UserSpaceBlockLayer):
        self.block_layer = block_layer
        self.device = block_layer.device
        self.unit_bytes = block_layer.block_bytes
        self._pages = block_layer.pages_per_block
        self.claim = block_layer.allocate_id
        self.read_call = block_layer.read_call
        self.free = block_layer.free
        self.functional_free = block_layer.functional_free

    def write(self, handle, patch: Patch):
        return self.block_layer.write(handle, [patch] * self._pages)

    def abandon(self, handle) -> None:
        """Nothing to return: IDs are never reused, and the block layer
        queues the half-programmed flash block for erase itself."""

    def functional_write(self, handle, patch: Patch) -> None:
        self.block_layer.functional_write(handle, [patch] * self._pages)

    def functional_read(self, handle):
        return self.block_layer.functional_read(handle, 0, 1)[0]


class _FreeListExtents:
    """Units handed out of, and given back to, a host-side free list."""

    block_layer = None

    def __init__(self, device, handles, unit_bytes: int):
        self.device = device
        self.unit_bytes = unit_bytes
        self._pages = unit_bytes // device.page_size
        self._free = deque(handles)

    def claim(self):
        if not self._free:
            raise StorageFullError(
                f"no free {self.unit_bytes >> 20} MiB unit left on the "
                f"{self.device.kind} device"
            )
        return self._free.popleft()

    def free(self, handle):
        self._free.append(handle)
        return
        yield  # pragma: no cover - keeps this a generator

    def abandon(self, handle) -> None:
        self._free.append(handle)

    functional_free = abandon

    def read_call(self, handle, offset: int, nbytes: int, then, fail) -> None:
        page = self.device.page_size
        first = offset // page
        self._read_pages_call(
            handle, first, (offset + nbytes - 1) // page - first + 1, then, fail
        )


class LpnExtents(_FreeListExtents):
    """The conventional family: one 8 MB LPN extent per patch.

    Extents are recycled: rewriting a previously-used extent invalidates
    its old flash pages inside the device, which is what feeds the FTL's
    garbage collector under sustained write load.
    """

    def __init__(self, device):
        pages = PATCH_BYTES // device.page_size
        if device.user_pages < pages:
            raise ValueError("device too small for a single patch extent")
        super().__init__(
            device,
            range(0, device.user_pages - pages + 1, pages),
            PATCH_BYTES,
        )

    def write(self, lpn, patch: Patch):
        return self.device.write(lpn, self._pages, data=patch)

    def _read_pages_call(self, lpn, first: int, count: int, then, fail):
        self.device.read_call(lpn + first, count, then, fail)

    def functional_write(self, lpn, patch: Patch) -> None:
        for index in range(self._pages):
            self.device.ftl.write(lpn + index, patch)

    def functional_read(self, lpn):
        return self.device.ftl.read(lpn)[0]


class ZoneExtents(_FreeListExtents):
    """Zoned: one zone per patch -- the host-FTL identity SDF argues for.

    A freed zone goes straight back on the free list; the ZNS reset it
    needs is paid lazily by the *next* writer of that zone (the moral
    equivalent of the SDF's pre-write erase discipline), which also
    covers a zone left half-written by a failed store.
    """

    def __init__(self, device):
        super().__init__(device, range(device.n_zones), device.zone_bytes)

    def write(self, zone, patch: Patch):
        yield from self.device.reset_zone(zone)
        yield from self.device.write_zone(zone, [patch] * self._pages)

    def _read_pages_call(self, zone, first: int, count: int, then, fail):
        self.device.read_zone_call(zone, first, count, then, fail)

    def functional_write(self, zone, patch: Patch) -> None:
        self.device.functional_reset_zone(zone)
        self.device.functional_write_zone(zone, [patch] * self._pages)

    def functional_read(self, zone):
        return self.device.functional_read_zone(zone)


class _UnitRead:
    """One read of a stored unit's pages: the patch they hold, or the
    value it holds under ``key`` when one is named."""

    __slots__ = ("handle", "key", "then", "fail")

    def __init__(self, handle, key, then, fail):
        self.handle = handle
        self.key = key
        self.then = then
        self.fail = fail

    def read(self, payloads) -> None:
        then, fail = self.then, self.fail
        self.then = self.fail = None
        try:
            result = PatchStore._patch_at(self.handle, payloads[0])
            if self.key is not None:
                found, result = result.get(self.key)
                if not found:
                    raise KeyError(f"{self.key!r} missing from stored patch")
        except Exception as exc:
            fail(exc)
            return
        then(result)


class PatchStore:
    """Patches on any device, one write unit each, over an extent backend."""

    def __init__(self, backend):
        self.backend = backend
        self.device = backend.device
        #: The user-space block layer under an SDF backend, else None.
        self.block_layer = backend.block_layer
        self.sim = self.device.sim
        #: Largest patch this storage accepts: the device's write unit.
        self.patch_capacity_bytes = backend.unit_bytes

    def _claim(self, patches) -> list:
        """One handle per patch, or none at all."""
        for patch in patches:
            if patch.nbytes > self.patch_capacity_bytes:
                raise ValueError(
                    f"patch of {patch.nbytes} B exceeds the "
                    f"{self.patch_capacity_bytes} B write unit"
                )
        handles = []
        try:
            for _ in patches:
                handles.append(self.backend.claim())
        except StorageFullError:
            for handle in handles:
                self.backend.abandon(handle)
            raise
        return handles

    def _write(self, handle, patch: Patch):
        """Generator -> ``handle``; a failed write gives the unit back."""
        try:
            yield from self.backend.write(handle, patch)
        except Exception:
            self.backend.abandon(handle)
            raise
        return handle

    def _orphaned(self, write) -> None:
        """A sibling of a failed batch write finished: nobody registers
        its handle, so free it (or absorb its own failure)."""
        if write.ok:
            self.sim.process(self.backend.free(write.value))
        else:
            write.defused = True

    def store_patch(self, patch: Patch):
        """Generator -> handle: persist one patch."""
        (handle,) = self._claim([patch])
        return (yield from self._write(handle, patch))

    def store_patches(self, patches):
        """Generator -> list of handles (input order), persisting the
        patches concurrently.

        Every handle is claimed first, then each write runs as its own
        process: on SDF they land on distinct channels (round-robin
        placement) and overlap, which is what the compaction output
        fan-out wants.
        """
        patches = list(patches)
        handles = self._claim(patches)
        writes = [
            self.sim.process(self._write(handle, patch))
            for handle, patch in zip(handles, patches)
        ]
        try:
            yield self.sim.all_of(writes)
        except Exception:
            for write in writes:
                write.add_callback(self._orphaned)
            raise
        return handles

    @staticmethod
    def _patch_at(handle, payload) -> Patch:
        if payload is None:
            raise KeyError(f"extent {handle} holds no data")
        return payload

    def read_value_call(self, lookup: Lookup, key, then, fail) -> None:
        """Read the value of ``key``, only the pages covering it, then
        ``then(value)``."""
        self.backend.read_call(
            lookup.handle,
            lookup.offset,
            max(lookup.size, 1),
            _UnitRead(lookup.handle, key, then, fail).read,
            fail,
        )

    def read_patch(self, handle):
        """Generator -> the whole patch (a full sequential unit read)."""
        return bridged(self.sim, self.read_patch_call, handle)

    def read_patch_call(self, handle, then, fail) -> None:
        """:meth:`read_patch` as a continuation: ``then(patch)``."""
        self.backend.read_call(
            handle,
            0,
            self.patch_capacity_bytes,
            _UnitRead(handle, None, then, fail).read,
            fail,
        )

    def free_patch(self, handle):
        """Generator: release the unit (background erase on SDF, lazy
        reset on zones, invalidate-on-overwrite for LPN extents)."""
        return self.backend.free(handle)

    # -- functional (zero-time) preloading --------------------------------------
    def functional_store(self, patch: Patch):
        """Store a patch with no simulated time (preloading)."""
        (handle,) = self._claim([patch])
        self.backend.functional_write(handle, patch)
        return handle

    def functional_load(self, handle) -> Patch:
        """Load a patch with no simulated time."""
        return self._patch_at(handle, self.backend.functional_read(handle))

    def functional_free(self, handle) -> None:
        """Release a patch with no simulated time."""
        self.backend.functional_free(handle)
