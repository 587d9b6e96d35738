"""Storage devices: the SDF, its baselines, and the pluggable zoo.

* :class:`~repro.devices.sdf.SDFDevice` -- the paper's device: 44
  channels exposed individually (`/dev/sda0..43`), 8 KB read unit, 8 MB
  write/erase unit, explicit erase command, no OP/parity/DRAM-cache/GC.
* :class:`~repro.devices.conventional.ConventionalSSD` -- the baseline
  architecture (Figure 5a): single controller, page-mapped FTL, 8 KB
  striping, over-provisioning, GC, DRAM write-back buffer, optional
  channel parity.
* The zoo (DESIGN.md section 11): :class:`~repro.devices.dftl.DFTLDevice`
  (bounded cached mapping table), :class:`~repro.devices.hybrid.HybridDevice`
  (log-block FTL with merge costs), :class:`~repro.devices.mqftl.MQFTLDevice`
  (queue-per-channel controller), :class:`~repro.devices.zoned.ZonedDevice`
  (ZNS-style zones over the SDF hardware).
* :mod:`~repro.devices.catalog` -- the concrete devices of Tables 1-3
  plus the one-door factory: every backend registers under a string
  ``kind`` and is built via :func:`~repro.devices.catalog.build_device`
  or a declarative :class:`~repro.devices.catalog.DeviceSpec`.

All backends satisfy the :class:`~repro.devices.base.DeviceModel`
protocol and report the same ``device.{kind}.*`` metric family
(:data:`~repro.devices.base.DEVICE_METRIC_KEYS`).
"""

from repro.devices.base import DEVICE_METRIC_KEYS, DeviceModel, DeviceStats
from repro.devices.catalog import (
    HUAWEI_GEN3_SPEC,
    INTEL_320_SPEC,
    MEMBLAZE_Q520_SPEC,
    DeviceSpec,
    build_device,
    device_kinds,
    register_device,
    sdf_spec,
)
from repro.devices.conventional import ConventionalSSD, ConventionalSSDSpec
from repro.devices.dftl import DFTLDevice, DFTLSpec
from repro.devices.hybrid import HybridDevice, HybridSpec
from repro.devices.mqftl import MQFTLDevice
from repro.devices.sdf import SDFChannelDevice, SDFDevice
from repro.devices.zoned import ZonedDevice, ZoneStateError

#: The device model classes (the DFTL, hybrid and MQ kinds subclass
#: ``ConventionalSSD``): a plane's ``attach`` knows a device by these.
DEVICE_CLASSES = (SDFDevice, ConventionalSSD, ZonedDevice)

__all__ = [
    "DeviceModel",
    "DeviceStats",
    "DEVICE_CLASSES",
    "DEVICE_METRIC_KEYS",
    "SDFDevice",
    "SDFChannelDevice",
    "ConventionalSSD",
    "ConventionalSSDSpec",
    "DFTLDevice",
    "DFTLSpec",
    "HybridDevice",
    "HybridSpec",
    "MQFTLDevice",
    "ZonedDevice",
    "ZoneStateError",
    "DeviceSpec",
    "build_device",
    "device_kinds",
    "register_device",
    "sdf_spec",
    "HUAWEI_GEN3_SPEC",
    "INTEL_320_SPEC",
    "MEMBLAZE_Q520_SPEC",
]
