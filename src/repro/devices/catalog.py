"""The device zoo: concrete drives plus the spec-driven factory.

The paper's hardware (Tables 1-4) lives here as specs -- controller
costs for the commodity baselines are calibrated against the paper's
own measurements (Table 4's request-size sweep fits a per-request +
per-page cost model almost exactly; see EXPERIMENTS.md).  The SDF has
no controller knobs: its numbers emerge from the channel engines, the
link, and the thin software stack alone.

Every backend -- SDF, conventional page-mapped, DFTL, hybrid log-block,
multi-queue, zoned -- registers under a string ``kind`` and is built
through one door::

    device = build_device("dftl", sim, capacity_scale=0.01, cmt_pages=8)

or declaratively via :class:`DeviceSpec`, which pickles/compares
cleanly for scenario configs::

    spec = DeviceSpec("sdf", {"n_channels": 8})
    device = spec.build(sim)
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field, fields, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Tuple,
    get_type_hints,
)

import numpy as np

from repro.devices.conventional import ConventionalSSD, ConventionalSSDSpec
from repro.devices.dftl import DFTLDevice, DFTLSpec
from repro.devices.hybrid import HybridDevice, HybridSpec
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
# The registry.
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., Any]] = {}


def register_device(kind: str) -> Callable[[Callable], Callable]:
    """Decorator: register ``builder(sim, **spec)`` under ``kind``.

    Third-party backends can hook into ``build_device`` the same way
    the built-in zoo does; re-registering a kind raises.
    """

    def decorate(builder: Callable) -> Callable:
        if kind in _REGISTRY:
            raise ConfigError(f"device kind {kind!r} already registered")
        _REGISTRY[kind] = builder
        return builder

    return decorate


def device_kinds() -> Tuple[str, ...]:
    """The registered device kinds, sorted."""
    return tuple(sorted(_REGISTRY))


def _named_keywords(fn) -> Tuple[list, bool]:
    """``(keyword names after the leading sim, takes **kwargs)``."""
    parameters = list(inspect.signature(fn).parameters.values())[1:]
    names = [
        p.name
        for p in parameters
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    ]
    return names, any(p.kind is p.VAR_KEYWORD for p in parameters)


@functools.lru_cache(maxsize=None)
def _accepted_keys(builder: Callable) -> Optional[Tuple[str, ...]]:
    """The spec keys ``builder(sim, **spec)`` accepts, read from its
    signature; a ``**overrides`` catch-all is followed into the
    constructor of the builder's annotated return type (how the
    SDF-hardware kinds forward them).  None when that trail ends in a
    catch-all with nowhere known to go: anything is accepted."""
    accepted, open_ended = _named_keywords(builder)
    if open_ended:
        target = get_type_hints(builder).get("return")
        if not inspect.isclass(target):
            return None
        forwarded, open_ended = _named_keywords(target)
        if open_ended:
            return None
        accepted += [name for name in forwarded if name not in accepted]
    return tuple(accepted)


def _check_spec(kind: str, keys: Iterable[str]) -> Callable:
    """The builder registered for ``kind``, after rejecting an unknown
    kind or a spec key its builder does not accept -- so a stale key in
    a sweep config fails at parse time, with the kind's vocabulary in
    the message."""
    try:
        builder = _REGISTRY[kind]
    except KeyError:
        raise ConfigError(
            f"unknown device kind {kind!r}; known kinds: "
            f"{', '.join(device_kinds())}"
        ) from None
    accepted = _accepted_keys(builder)
    if accepted is not None:
        for key in keys:
            if key not in accepted:
                raise ConfigError(
                    f"device kind {kind!r} does not accept {key!r}; "
                    f"accepted keys: {', '.join(accepted)}"
                )
    return builder


def build_device(kind: str, sim: Optional[Simulator] = None, **spec) -> Any:
    """Build any registered device behind the one-door factory.

    ``sim=None`` creates a fresh :class:`Simulator` (handy in tests);
    unknown kinds, and keys the kind does not accept, raise
    :class:`~repro.errors.ConfigError` naming the known ones.  Keyword
    arguments are backend-specific -- see each builder's docstring and
    DESIGN.md section 11.
    """
    builder = _check_spec(kind, spec)
    if sim is None:
        sim = Simulator()
    return builder(sim, **spec)


@dataclass(frozen=True)
class DeviceSpec:
    """A declarative, hashable (kind, params) recipe for a device.

    Lets configs (scenarios, sweeps, ablation grids) carry a device
    choice as data; ``build`` defers to :func:`build_device`.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        _check_spec(self.kind, self.params)

    def build(self, sim: Optional[Simulator] = None) -> Any:
        """Instantiate the device this spec describes."""
        return build_device(self.kind, sim, **dict(self.params))

    def with_params(self, **updates) -> "DeviceSpec":
        """A copy with ``updates`` merged over ``params``."""
        merged = dict(self.params)
        merged.update(updates)
        return DeviceSpec(self.kind, merged)


# ---------------------------------------------------------------------------
# Built-in builders.
# ---------------------------------------------------------------------------


def _conventional_family_spec(
    spec_cls,
    spec: Optional[ConventionalSSDSpec],
    capacity_scale: float,
    extra: Dict[str, Any],
):
    """Derive a (possibly subclassed) spec for page/log-mapped builds.

    Starts from ``spec`` (default: the Huawei Gen3 drive), widens it to
    ``spec_cls`` when the backend needs extra knobs, then applies the
    capacity scale.  Scaling happens *after* widening so subclass specs
    survive ``dataclasses.replace``.
    """
    if spec is None:
        spec = HUAWEI_GEN3_SPEC
    if not isinstance(spec, spec_cls):
        base_kwargs = {
            f.name: getattr(spec, f.name) for f in fields(ConventionalSSDSpec)
        }
        spec = spec_cls(**base_kwargs, **extra)
    elif extra:
        spec = replace(spec, **extra)
    if capacity_scale != 1.0:
        spec = spec.scaled(capacity_scale)
    return spec


@register_device("sdf")
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


@register_device("conventional")
def _build_conventional(
    sim: Simulator,
    spec: ConventionalSSDSpec = HUAWEI_GEN3_SPEC,
    capacity_scale: float = 1.0,
    store_data: bool = False,
) -> ConventionalSSD:
    """A commodity baseline, optionally with scaled-down capacity."""
    if capacity_scale != 1.0:
        spec = spec.scaled(capacity_scale)
    return ConventionalSSD(sim, spec, store_data=store_data)


@register_device("dftl")
def _build_dftl(
    sim: Simulator,
    spec: Optional[ConventionalSSDSpec] = None,
    capacity_scale: float = 1.0,
    store_data: bool = False,
    cmt_pages: Optional[int] = None,
) -> DFTLDevice:
    """A DFTL drive: page-mapped with a bounded cached mapping table.

    ``cmt_pages=None`` keeps the spec's own bound (or the DFTLSpec
    default of 64 when widening a plain conventional spec).
    """
    extra = {} if cmt_pages is None else {"cmt_pages": cmt_pages}
    dspec = _conventional_family_spec(DFTLSpec, spec, capacity_scale, extra)
    return DFTLDevice(sim, dspec, store_data=store_data)


@register_device("hybrid")
def _build_hybrid(
    sim: Simulator,
    spec: Optional[ConventionalSSDSpec] = None,
    capacity_scale: float = 1.0,
    store_data: bool = False,
    log_blocks_per_channel: Optional[int] = None,
) -> HybridDevice:
    """A hybrid log-block (BAST-style) drive with merge costs."""
    extra = (
        {}
        if log_blocks_per_channel is None
        else {"log_blocks_per_channel": log_blocks_per_channel}
    )
    hspec = _conventional_family_spec(HybridSpec, spec, capacity_scale, extra)
    return HybridDevice(sim, hspec, store_data=store_data)


@register_device("mqftl")
def _build_mqftl(
    sim: Simulator,
    spec: Optional[ConventionalSSDSpec] = None,
    capacity_scale: float = 1.0,
    store_data: bool = False,
) -> MQFTLDevice:
    """An LFTL-style multi-queue drive: queue-per-channel controller."""
    mspec = _conventional_family_spec(
        ConventionalSSDSpec, spec, capacity_scale, {}
    )
    return MQFTLDevice(sim, mspec, store_data=store_data)


@register_device("zoned")
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
