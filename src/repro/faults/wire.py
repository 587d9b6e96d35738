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
  defaults to ``server``); the server itself is the target of the
  scheduled crashes and brownouts at site ``name``;
* a network -- the site ``name`` (default ``net``), which is also the
  target of its scheduled partitions;
* a cluster controller -- the ``migration`` site, whose rules abort a
  migration at its phase boundaries;
* a controller group -- each controller replica is the target of the
  scheduled crashes at its own name (``ctl0``, ``ctl1``, ...);
* a replicated KV -- the ``replication`` site, and every replica's
  site resyncs it after a recovery there; attach the replica servers
  first.
"""

from __future__ import annotations

from repro.cluster import (
    MIGRATION_SITE,
    ClusterController,
    ControllerGroup,
    Network,
    ReplicatedKV,
    StorageServer,
)
from repro.core import SDFSystem
from repro.devices import DEVICE_CLASSES
from repro.faults.errors import FaultInjectionError


def wire(plan, target, name: str = "") -> None:
    if isinstance(target, StorageServer):
        site = name or "server"
        _device(plan, target.device, f"{site}.")
        plan._targets[site] = target
    elif isinstance(target, SDFSystem):
        _device(plan, target.device, name)
    elif isinstance(target, DEVICE_CLASSES):
        _device(plan, target, name)
    elif isinstance(target, Network):
        site = name or "net"
        target.faults = plan.injector(site)
        plan._targets[site] = target
    elif isinstance(target, ClusterController):
        target.faults = plan.injector(MIGRATION_SITE)
    elif isinstance(target, ControllerGroup):
        for replica in target.replicas:
            plan._targets[replica.name] = replica
    elif isinstance(target, ReplicatedKV):
        _replicated(plan, target)
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


def _replicated(plan, kv) -> None:
    """The ``replication`` injector, and replica ``i``'s site runs
    ``kv.heal(i)`` after each recovery there."""
    by_target = {id(target): site for site, target in plan._targets.items()}
    sites = [by_target.get(id(server)) for server in kv.servers]
    if None in sites:
        raise FaultInjectionError(
            f"replica {sites.index(None)} of the ReplicatedKV is not "
            "attached; attach its servers to the plan first"
        )
    for index, site in enumerate(sites):
        plan._restore[site] = lambda index=index: kv.heal(index)
    kv.faults = plan.injector("replication")
