"""ZNS-style zoned device: sequential-write zones, explicit reset.

SDF's 8 MB erase-before-write contract *is* a proto-zone, so this
backend is deliberately thin over the SDF channel machinery: a zone is
one 8 MB logical block on one channel (zones round-robin across
channels), a zone write is the sequential whole-zone program, reset is
the explicit erase, and there is **zero device-side GC** -- space
reclamation is the host's problem, exactly as in the SDF.

What it adds over the raw SDF surface is the ZNS state machine: a zone
is EMPTY or FULL, writing a FULL zone raises :class:`ZoneStateError`
instead of being a host-discipline convention, and at most
``max_open_zones`` zone writes may be in flight at once (the ZNS
active-zone bound).  Sub-zone sequential appends are future work; the
8 MB KV patch flush path is zone-aligned by construction.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.devices.base import base_device_metrics
from repro.devices.sdf import SDFDevice
from repro.interfaces.iostack import IOStackModel, SDF_USER_SPACE_STACK
from repro.interfaces.link import LinkSpec, PCIE_1_1_X8
from repro.nand.catalog import MICRON_25NM_MLC, SDF_CHIP_GEOMETRY
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming
from repro.sim import Resource, Simulator


class ZoneStateError(Exception):
    """Operation illegal in the zone's current state (ZNS semantics)."""


class ZonedDevice:
    """A zoned namespace over the SDF channel hardware."""

    kind = "zoned"

    def __init__(
        self,
        sim: Simulator,
        n_channels: int = 44,
        chips_per_channel: int = 2,
        geometry: FlashGeometry = SDF_CHIP_GEOMETRY,
        timing: NandTiming = MICRON_25NM_MLC,
        link_spec: LinkSpec = PCIE_1_1_X8,
        iostack: IOStackModel = SDF_USER_SPACE_STACK,
        reserve_fraction: float = 0.01,
        max_open_zones: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        name: str = "zoned",
    ):
        self._sdf = SDFDevice(
            sim,
            n_channels=n_channels,
            chips_per_channel=chips_per_channel,
            geometry=geometry,
            timing=timing,
            link_spec=link_spec,
            iostack=iostack,
            reserve_fraction=reserve_fraction,
            rng=rng,
            name=name,
        )
        self.sim = sim
        self.stats = self._sdf.stats
        #: Exposed for the shared obs wiring (channel spans, FTL wear).
        self.array = self._sdf.array
        self.engines = self._sdf.engines
        self.ftls = self._sdf.ftls
        self.link = self._sdf.link
        # Zones round-robin over channels; clamp to the smallest channel
        # so the zone -> (channel, block) map stays uniform even when
        # bad blocks leave channels uneven.
        self._zones_per_channel = min(
            ftl.n_logical_blocks for ftl in self._sdf.ftls
        )
        self.n_zones = self._zones_per_channel * n_channels
        if max_open_zones is None:
            max_open_zones = 2 * n_channels
        self.max_open_zones = max_open_zones
        self._open_slots = Resource(sim, capacity=max_open_zones)
        self.zone_resets = 0

    # -- geometry ------------------------------------------------------------------
    @property
    def n_channels(self) -> int:
        """Number of channels under the zones."""
        return self._sdf.n_channels

    @property
    def zone_bytes(self) -> int:
        """Bytes in one zone (the SDF 8 MB write unit)."""
        return self._sdf.ftls[0].logical_block_bytes

    @property
    def pages_per_zone(self) -> int:
        """Pages in one zone."""
        return self._sdf.ftls[0].pages_per_logical_block

    @property
    def page_size(self) -> int:
        """Bytes in one flash page."""
        return self._sdf.array.geometry.page_size

    @property
    def user_bytes(self) -> int:
        """Bytes of user-visible capacity (all zones)."""
        return self.n_zones * self.zone_bytes

    @property
    def raw_bytes(self) -> int:
        """Raw flash capacity in bytes."""
        return self._sdf.raw_bytes

    @property
    def capacity_utilization(self) -> float:
        """user bytes / raw bytes."""
        return self.user_bytes / self.raw_bytes

    def _locate(self, zone: int):
        if not 0 <= zone < self.n_zones:
            raise IndexError(f"zone {zone} outside [0, {self.n_zones})")
        channel = zone % self._sdf.n_channels
        return self._sdf.channels[channel], zone // self._sdf.n_channels

    def zone_is_full(self, zone: int) -> bool:
        """True when the zone holds data (state FULL)."""
        channel, block = self._locate(zone)
        return channel.ftl.is_mapped(block)

    # -- timed operations (generators) ----------------------------------------------
    def write_zone(self, zone: int, pages: Optional[Sequence] = None):
        """Sequentially fill one EMPTY zone (the whole-zone program).

        Raises :class:`ZoneStateError` if the zone is FULL -- the host
        must ``reset_zone`` first; the device never relocates data.
        """
        channel, block = self._locate(zone)
        if channel.ftl.is_mapped(block):
            raise ZoneStateError(
                f"zone {zone} is FULL; reset it before rewriting"
            )
        with self._open_slots.request() as slot:
            yield slot
            yield from channel.write(block, pages)

    def read_zone(self, zone: int, page_offset: int = 0, n_pages: int = 1):
        """Read ``n_pages`` 8 KB pages from a zone."""
        channel, block = self._locate(zone)
        payloads = yield from channel.read(block, page_offset, n_pages)
        return payloads

    def reset_zone(self, zone: int):
        """Explicit zone reset (the erase command); idempotent on EMPTY."""
        channel, block = self._locate(zone)
        if not channel.ftl.is_mapped(block):
            return
        self.zone_resets += 1
        yield from channel.erase(block)

    def drain(self):
        """Generator: nothing buffered device-side."""
        return
        yield  # pragma: no cover - keeps this a generator

    # -- functional helpers ---------------------------------------------------------------
    def functional_write_zone(self, zone: int, pages=None) -> None:
        """Fill a zone with no simulated time (preloading)."""
        channel, block = self._locate(zone)
        if channel.ftl.is_mapped(block):
            raise ZoneStateError(f"zone {zone} is FULL; reset it first")
        if pages is None:
            pages = [None] * self.pages_per_zone
        channel.ftl.write(block, pages)

    def functional_read_zone(self, zone: int, page_offset: int = 0):
        """One page's payload with no simulated time."""
        channel, block = self._locate(zone)
        payloads, _ops = channel.ftl.read(block, page_offset, 1)
        return payloads[0]

    def functional_reset_zone(self, zone: int) -> None:
        """Reset a zone with no simulated time."""
        channel, block = self._locate(zone)
        if channel.ftl.is_mapped(block):
            self.zone_resets += 1
            channel.ftl.erase(block)

    def prefill(self, fraction: float = 1.0, payload=None) -> int:
        """Functionally fill a fraction of the zones (no simulated time)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction {fraction} outside [0, 1]")
        written = 0
        pages = [payload] * self.pages_per_zone
        target = int(self.n_zones * fraction + 1e-9)
        for zone in range(target):
            if not self.zone_is_full(zone):
                self.functional_write_zone(zone, pages)
                written += 1
        return written

    # -- observability --------------------------------------------------------------------
    def device_metrics(self) -> dict:
        """WA is exactly 1: the device never moves data on its own."""
        return base_device_metrics(
            host_programs=sum(ftl.host_programs for ftl in self.ftls),
            erases=sum(ftl.erase_count for ftl in self.ftls),
        )

    def __repr__(self):
        return (
            f"ZonedDevice(zones={self.n_zones}, "
            f"zone={self.zone_bytes >> 20} MiB, "
            f"open<={self.max_open_zones})"
        )
