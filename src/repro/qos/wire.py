"""Attach a :class:`~repro.qos.config.QosPlan` to built systems.

Mirrors :mod:`repro.faults.wire`: systems are constructed without
overload protection and wired afterwards.  Each helper is conditional on
the matching sub-config -- an empty plan wires *nothing* (no attributes
changed, no resources created), which is what the QoS no-drift test
pins down.

Naming (``prefix``/``name`` distinguish multiple devices/servers under
one plan): channel limiters register metrics as ``qos.{prefix}ch<N>``,
the block-layer write limiter as ``qos.{prefix}blk``, and a server's
admission controller as ``qos.{name}``.
"""

from __future__ import annotations

from repro.qos.admission import AdmissionController
from repro.qos.config import QosPlan
from repro.qos.limits import BlockWriteLimiter, ChannelQosState


def attach_device_qos(plan: QosPlan, device, prefix: str = "") -> None:
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


def attach_block_layer_qos(plan: QosPlan, layer, prefix: str = "") -> None:
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


def _wire_system_qos(plan: QosPlan, system, prefix: str = "") -> None:
    """Wire an :class:`~repro.core.api.SDFSystem` (device + block layer)."""
    attach_device_qos(plan, system.device, prefix=prefix)
    attach_block_layer_qos(plan, system.block_layer, prefix=prefix)


def attach_server_qos(plan: QosPlan, server, name: str = "server") -> None:
    """Wire a :class:`~repro.cluster.node.StorageServer` and the device
    underneath it (device metrics prefixed ``{name}.``).

    The server gains an :class:`AdmissionController` when the plan
    configures admission limits or write stalls; the device layers gain
    their bounds when the plan configures channel limits.
    """
    stall = plan.write_stall
    if stall is not None and stall.empty:
        stall = None
    if plan.admission is not None or stall is not None:
        controller = AdmissionController(
            server.sim, plan.admission, stall, name=name
        )
        server.qos = controller
        plan.register(controller)
    attach_device_qos(plan, server.device, prefix=f"{name}.")
    block_layer = server.storage.block_layer
    if block_layer is not None:
        attach_block_layer_qos(plan, block_layer, prefix=f"{name}.")
