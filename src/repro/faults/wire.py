"""The body of :meth:`FaultPlan.attach <repro.faults.plan.FaultPlan.attach>`.

Systems are constructed fault-free and wired afterwards; whatever the
target, the plan's clock is bound to its simulator, so events carry
timestamps and time-window rules take effect.  Site naming (``name``
distinguishes several devices/servers under one plan):

* a device or SDF system -- ``{name}nand`` for every chip (ctx carries
  the chip id), ``{name}ch<N>`` for channel engine N,
  ``{name}ftl.ch<N>`` for channel FTL N (recovery logging only) and
  ``{name}link`` for the host link;
* a storage server -- its device's sites under ``{name}.`` (``name``
  defaults to ``server``); the server itself is the ``name`` target for
  scheduled crashes via a :class:`~repro.faults.runner.FaultRunner`;
* a network -- the site ``name`` (default ``net``);
* a cluster controller -- the ``migration`` site, whose rules abort a
  migration at its phase boundaries.
"""

from __future__ import annotations

from repro.cluster import MIGRATION_SITE, ClusterController, Network, StorageServer
from repro.core import SDFSystem
from repro.devices import DEVICE_CLASSES


def wire(plan, target, name: str = "") -> None:
    if isinstance(target, StorageServer):
        _device(plan, target.device, f"{name or 'server'}.")
    elif isinstance(target, SDFSystem):
        _device(plan, target.device, name)
    elif isinstance(target, DEVICE_CLASSES):
        _device(plan, target, name)
    elif isinstance(target, Network):
        target.faults = plan.injector(name or "net")
    elif isinstance(target, ClusterController):
        target.faults = plan.injector(MIGRATION_SITE)
    else:
        raise TypeError(f"FaultPlan cannot attach to {type(target).__name__}")
    plan.bind_clock(target.sim)


def _device(plan, device, prefix: str) -> None:
    """Chips, engines, link, and the channel FTLs of a device that has
    them."""
    nand = plan.injector(f"{prefix}nand")
    for channel_chips in device.array.chips:
        for chip in channel_chips:
            chip.faults = nand
    for engine in device.engines:
        engine.faults = plan.injector(f"{prefix}ch{engine.channel}")
    for ftl in getattr(device, "ftls", ()):
        ftl.faults = plan.injector(f"{prefix}ftl.ch{ftl.channel}")
    if hasattr(device, "link"):
        device.link.faults = plan.injector(f"{prefix}link")
