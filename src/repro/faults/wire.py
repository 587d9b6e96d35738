"""Attach a :class:`~repro.faults.plan.FaultPlan` to built systems.

Mirrors :mod:`repro.obs.attach`: systems are constructed fault-free and
wired afterwards.  Site naming (``prefix`` distinguishes multiple
devices/servers under one plan):

* ``{prefix}nand`` -- every chip of the device (ctx carries chip id);
* ``{prefix}ch<N>`` -- channel engine N;
* ``{prefix}ftl.ch<N>`` -- channel FTL N (recovery logging only);
* ``{prefix}link`` -- the host link;
* network / replication / node sites are whatever string the caller
  picks when wiring them (conventionally ``net``, ``replication``,
  ``node<N>``).
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan


def attach_device_faults(plan: FaultPlan, device, prefix: str = "") -> None:
    """Wire any ``DeviceModel``: chips, engines, link, and the channel
    FTLs of a device that has them."""
    plan.bind_clock(device.sim)
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


def _wire_system_faults(plan: FaultPlan, system, prefix: str = "") -> None:
    """Wire an :class:`~repro.core.api.SDFSystem` (its device)."""
    attach_device_faults(plan, system.device, prefix=prefix)


def attach_network_faults(plan: FaultPlan, network, site: str = "net") -> None:
    """Wire a :class:`~repro.cluster.network.Network`."""
    plan.bind_clock(network.sim)
    network.faults = plan.injector(site)


def attach_server_faults(plan: FaultPlan, server, site: str) -> None:
    """Wire a :class:`~repro.cluster.node.StorageServer` and the device
    underneath it (sites prefixed ``{site}.``); the server itself is the
    ``site`` target for scheduled crashes via a
    :class:`~repro.faults.runner.FaultRunner`."""
    plan.bind_clock(server.sim)
    attach_device_faults(plan, server.device, prefix=f"{site}.")
