"""The body of :meth:`QosPlan.attach <repro.qos.config.QosPlan.attach>`.

Systems are constructed without overload protection and wired
afterwards.  Each part is conditional on the matching sub-config -- an
empty plan wires *nothing* (no attributes changed, no resources
created), which is what the QoS no-drift test pins down.

Naming (``name`` distinguishes several devices/servers under one
plan): channel limiters register metrics as ``qos.{name}ch<N>``, the
block-layer write limiter as ``qos.{name}blk``, and a server's
admission controller as ``qos.{name}`` (``name`` defaults to
``server``), with the device layers under it prefixed ``{name}.``.
"""

from __future__ import annotations

from repro.cluster import ClusterController, StorageServer
from repro.core import SDFSystem, UserSpaceBlockLayer
from repro.devices import DEVICE_CLASSES
from repro.qos.admission import AdmissionController
from repro.qos.limits import BlockWriteLimiter, ChannelQosState


def wire(plan, target, name: str = "") -> None:
    if isinstance(target, DEVICE_CLASSES):
        _device(plan, target, name)
    elif isinstance(target, UserSpaceBlockLayer):
        _block_layer(plan, target, name)
    elif isinstance(target, SDFSystem):
        _device(plan, target.device, name)
        _block_layer(plan, target.block_layer, name)
    elif isinstance(target, StorageServer):
        name = name or "server"
        _admission(plan, target, name)
        _device(plan, target.device, f"{name}.")
        if target.storage.block_layer is not None:
            _block_layer(plan, target.storage.block_layer, f"{name}.")
    elif isinstance(target, ClusterController):
        # The copy budget for the controller's own transfers.
        target.migration_budget = plan.migration
    else:
        raise TypeError(f"QosPlan cannot attach to {type(target).__name__}")


def _device(plan, device, prefix: str) -> None:
    """Bound each channel engine's admitted queue depth."""
    cfg = plan.channel
    if cfg is None or cfg.max_inflight_ops is None:
        return
    for engine in device.engines:
        state = ChannelQosState(
            device.sim, engine.channel, cfg.max_inflight_ops, name=prefix
        )
        engine.qos = state
        plan.register(state)


def _block_layer(plan, layer, prefix: str) -> None:
    """Bound concurrent block writes per channel at the block layer."""
    cfg = plan.channel
    if cfg is None or cfg.max_inflight_writes is None:
        return
    limiter = BlockWriteLimiter(
        layer.sim,
        layer.device.n_channels,
        cfg.max_inflight_writes,
        name=prefix,
    )
    layer.qos = limiter
    plan.register(limiter)


def _admission(plan, server, name: str) -> None:
    """An :class:`AdmissionController` when the plan configures
    admission limits or write stalls."""
    stall = plan.write_stall
    if stall is not None and stall.empty:
        stall = None
    if plan.admission is not None or stall is not None:
        controller = AdmissionController(
            server.sim, plan.admission, stall, name=name
        )
        server.qos = controller
        plan.register(controller)
