"""The device zoo: concrete drives plus the builder table.

The paper's hardware (Tables 1-4) lives here as specs -- controller
costs for the commodity baselines are calibrated against the paper's
own measurements (Table 4's request-size sweep fits a per-request +
per-page cost model almost exactly; see EXPERIMENTS.md).  The SDF has
no controller knobs: its numbers emerge from the channel engines, the
link, and the thin software stack alone.

Every backend -- SDF, conventional page-mapped, DFTL, hybrid log-block,
multi-queue, zoned -- has one builder in a ``{kind: builder}`` table,
the only code that knows the kind's defaults, and :func:`build_device`
is the one door to all of them::

    device = build_device("dftl", sim, capacity_scale=0.01, n_channels=8,
                          cmt_pages=8)

Every kind takes ``capacity_scale`` and ``n_channels``.  The
conventional family (``conventional``, ``dftl``, ``hybrid``, ``mqftl``)
starts from the Huawei Gen3 spec; a channel count other than the spec's
rewrites it, clamping the parity group to ``min(g, max(2, n))`` (no
parity stays no parity).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import replace
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.devices.conventional import ConventionalSSD, ConventionalSSDSpec
from repro.devices.dftl import DFTLDevice
from repro.devices.hybrid import HybridDevice
from repro.devices.mqftl import MQFTLDevice
from repro.devices.sdf import SDFDevice
from repro.devices.zoned import ZonedDevice
from repro.errors import ConfigError
from repro.interfaces.iostack import KERNEL_IO_STACK
from repro.interfaces.link import PCIE_1_1_X8, SATA_2_0
from repro.nand.catalog import (
    HIGH_END_CHIP_GEOMETRY,
    INTEL_25NM_MLC,
    INTEL_320_CHIP_GEOMETRY,
    MICRON_25NM_MLC,
    MICRON_34NM_MLC,
    SDF_CHIP_GEOMETRY,
)
from repro.sim import Simulator

#: Huawei Gen3 -- the SDF's hardware predecessor: identical flash and
#: channel count, but a conventional architecture (Table 3 + S3.1:
#: 8 KB striping over 44 channels, 25% OP, 1 GB DRAM buffer, channel
#: parity, kernel I/O stack).
HUAWEI_GEN3_SPEC = ConventionalSSDSpec(
    name="huawei-gen3",
    n_channels=44,
    chips_per_channel=2,
    geometry=SDF_CHIP_GEOMETRY,
    timing=MICRON_25NM_MLC,
    link=PCIE_1_1_X8,
    iostack=KERNEL_IO_STACK,
    op_ratio=0.25,
    stripe_pages=1,  # 8 KB striping unit
    parity_group_size=11,  # 10 data + 1 parity channels
    dram_buffer_bytes=1 << 30,
    controller_request_ns=2_200,
    controller_read_ns_per_page=6_700,  # -> ~1.2 GB/s stream ceiling
    controller_write_ns_per_page=12_200,  # -> ~0.67 GB/s stream ceiling
)

#: Intel 320 -- the low-end SATA drive (Table 1: 10 channels, 25 nm MLC;
#: S3.1: 160 GB with 12.5% reserved).
INTEL_320_SPEC = ConventionalSSDSpec(
    name="intel-320",
    n_channels=10,
    chips_per_channel=2,
    geometry=INTEL_320_CHIP_GEOMETRY,
    timing=INTEL_25NM_MLC,
    link=SATA_2_0,
    iostack=KERNEL_IO_STACK,
    op_ratio=0.125,
    stripe_pages=1,
    parity_group_size=10,
    dram_buffer_bytes=64 << 20,
    controller_request_ns=11_800,
    controller_read_ns_per_page=36_400,  # -> ~0.22 GB/s stream ceiling
    controller_write_ns_per_page=63_000,  # -> ~0.13 GB/s stream ceiling
)

#: Memblaze Q520-class high-end PCIe drive (Table 1: 32 channels x 16
#: planes of 34 nm MLC, raw 1600/1500 MB/s, measured 1300/620).
MEMBLAZE_Q520_SPEC = ConventionalSSDSpec(
    name="memblaze-q520",
    n_channels=32,
    chips_per_channel=4,
    geometry=HIGH_END_CHIP_GEOMETRY,
    timing=MICRON_34NM_MLC,
    link=PCIE_1_1_X8,
    iostack=KERNEL_IO_STACK,
    op_ratio=0.20,
    stripe_pages=2,  # 8 KB striping with 4 KiB pages
    parity_group_size=11,
    dram_buffer_bytes=1 << 30,
    controller_request_ns=2_000,
    controller_read_ns_per_page=3_100,  # -> ~1.3 GB/s stream ceiling
    controller_write_ns_per_page=6_600,  # -> ~0.62 GB/s stream ceiling
)


def sdf_spec() -> dict:
    """The Baidu SDF configuration (Table 3), as keyword arguments."""
    return dict(
        n_channels=44,
        chips_per_channel=2,
        geometry=SDF_CHIP_GEOMETRY,
        timing=MICRON_25NM_MLC,
        link_spec=PCIE_1_1_X8,
    )


# ---------------------------------------------------------------------------
# The builders.
# ---------------------------------------------------------------------------


def _build_sdf(
    sim: Simulator,
    capacity_scale: float = 1.0,
    n_channels: int = 44,
    rng: Optional[np.random.Generator] = None,
    **overrides,
) -> SDFDevice:
    """A Baidu SDF, optionally with scaled-down capacity for fast runs.

    ``capacity_scale`` shrinks ``blocks_per_plane`` only; page/block
    sizes and timing -- everything bandwidth depends on -- are untouched.
    """
    kwargs = sdf_spec()
    kwargs["geometry"] = kwargs["geometry"].scaled(capacity_scale)
    kwargs["n_channels"] = n_channels
    kwargs.update(overrides)
    return SDFDevice(sim, rng=rng, **kwargs)


def _build_zoned(
    sim: Simulator,
    capacity_scale: float = 1.0,
    n_channels: int = 44,
    rng: Optional[np.random.Generator] = None,
    **overrides,
) -> ZonedDevice:
    """A ZNS-style zoned device over the SDF channel hardware."""
    kwargs = sdf_spec()
    kwargs["geometry"] = kwargs["geometry"].scaled(capacity_scale)
    kwargs["n_channels"] = n_channels
    kwargs.update(overrides)
    return ZonedDevice(sim, rng=rng, **kwargs)


def _family_spec(
    spec: Optional[ConventionalSSDSpec],
    capacity_scale: float,
    n_channels: Optional[int],
) -> ConventionalSSDSpec:
    """``spec`` (default: the Huawei Gen3) at ``n_channels`` channels
    (None: the spec's own) and ``capacity_scale``.

    A new channel count clamps the parity group to ``min(g, max(2, n))``;
    a spec without parity stays without.  Capacity scales last.
    """
    if spec is None:
        spec = HUAWEI_GEN3_SPEC
    if n_channels is not None and n_channels != spec.n_channels:
        group = spec.parity_group_size
        if group is not None:
            group = min(group, max(2, n_channels))
        spec = replace(spec, n_channels=n_channels, parity_group_size=group)
    if capacity_scale != 1.0:
        spec = spec.scaled(capacity_scale)
    return spec


def _build_conventional(
    sim: Simulator,
    spec: Optional[ConventionalSSDSpec] = None,
    capacity_scale: float = 1.0,
    n_channels: Optional[int] = None,
    store_data: bool = False,
) -> ConventionalSSD:
    """A commodity page-mapped baseline."""
    spec = _family_spec(spec, capacity_scale, n_channels)
    return ConventionalSSD(sim, spec, store_data=store_data)


def _build_dftl(
    sim: Simulator,
    spec: Optional[ConventionalSSDSpec] = None,
    capacity_scale: float = 1.0,
    n_channels: Optional[int] = None,
    store_data: bool = False,
    cmt_pages: int = 64,
) -> DFTLDevice:
    """A DFTL drive: page-mapped with a cached mapping table of
    ``cmt_pages`` translation pages."""
    spec = _family_spec(spec, capacity_scale, n_channels)
    return DFTLDevice(sim, spec, store_data=store_data, cmt_pages=cmt_pages)


def _build_hybrid(
    sim: Simulator,
    spec: Optional[ConventionalSSDSpec] = None,
    capacity_scale: float = 1.0,
    n_channels: Optional[int] = None,
    store_data: bool = False,
    log_blocks_per_channel: int = 4,
) -> HybridDevice:
    """A hybrid log-block (BAST-style) drive with merge costs."""
    spec = _family_spec(spec, capacity_scale, n_channels)
    return HybridDevice(
        sim,
        spec,
        store_data=store_data,
        log_blocks_per_channel=log_blocks_per_channel,
    )


def _build_mqftl(
    sim: Simulator,
    spec: Optional[ConventionalSSDSpec] = None,
    capacity_scale: float = 1.0,
    n_channels: Optional[int] = None,
    store_data: bool = False,
) -> MQFTLDevice:
    """An LFTL-style multi-queue drive: queue-per-channel controller."""
    spec = _family_spec(spec, capacity_scale, n_channels)
    return MQFTLDevice(sim, spec, store_data=store_data)


#: Each kind's builder, then the constructor its ``**overrides`` reach:
#: the keys a kind accepts are the keywords these callables name.
_BUILDERS: Dict[str, Tuple[Callable, ...]] = {
    "conventional": (_build_conventional,),
    "dftl": (_build_dftl,),
    "hybrid": (_build_hybrid,),
    "mqftl": (_build_mqftl,),
    "sdf": (_build_sdf, SDFDevice),
    "zoned": (_build_zoned, ZonedDevice),
}


def device_kinds() -> Tuple[str, ...]:
    """The device kinds, sorted."""
    return tuple(sorted(_BUILDERS))


@functools.lru_cache(maxsize=None)
def _accepted_keys(kind: str) -> Tuple[str, ...]:
    """The keywords, after the leading ``sim``, that ``kind``'s
    callables name (read once: a signature costs ~0.1 ms, and every
    server build asks)."""
    keys: list = []
    for fn in _BUILDERS[kind]:
        for p in list(inspect.signature(fn).parameters.values())[1:]:
            if p.kind is not p.VAR_KEYWORD and p.name not in keys:
                keys.append(p.name)
    return tuple(keys)


def build_device(kind: str, sim: Optional[Simulator] = None, **spec) -> Any:
    """Build a device of ``kind`` -- the one door to the zoo.

    ``sim=None`` creates a fresh :class:`Simulator` (handy in tests).
    An unknown kind, or a key the kind does not accept, raises
    :class:`~repro.errors.ConfigError` naming the accepted ones -- so a
    stale key in a sweep config fails at once, with the kind's
    vocabulary in the message.  See each builder's docstring and
    DESIGN.md section 11.
    """
    if kind not in _BUILDERS:
        raise ConfigError(
            f"unknown device kind {kind!r}; known kinds: "
            f"{', '.join(device_kinds())}"
        )
    accepted = _accepted_keys(kind)
    for key in spec:
        if key not in accepted:
            raise ConfigError(
                f"device kind {kind!r} does not accept {key!r}; "
                f"accepted keys: {', '.join(accepted)}"
            )
    return _BUILDERS[kind][0](sim if sim is not None else Simulator(), **spec)
