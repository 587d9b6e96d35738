"""Public facade: one-call construction of a ready-to-use SDF system.

:class:`SDFSystem` bundles a simulator, an SDF device and the user-space
block layer, and offers synchronous convenience wrappers so library
users (and the examples) do not need to write simulation processes for
simple cases::

    from repro import build_sdf_system

    system = build_sdf_system(capacity_scale=0.01)
    block_id = system.put(b"eight megabytes of web pages...")
    assert system.get(block_id, 0, 20) == b"eight megabytes of w"

Anything concurrent (the benchmark harness, the cluster model) drives
the generators on ``system.block_layer`` / ``system.device`` directly.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.block_layer import UserSpaceBlockLayer
from repro.core.scheduler import ErasePolicy, PlacementPolicy
from repro.devices.catalog import build_device
from repro.devices.sdf import SDFDevice
from repro.sim import Simulator


class SDFSystem:
    """A simulator + SDF device + block layer, ready for use."""

    def __init__(
        self,
        sim: Simulator,
        device: SDFDevice,
        block_layer: UserSpaceBlockLayer,
    ):
        self.sim = sim
        self.device = device
        self.block_layer = block_layer

    # -- process driving ------------------------------------------------------------
    def run(self, generator):
        """Run one operation (a generator) to completion; returns its value."""
        return self.sim.run(until=self.sim.process(generator))

    # -- synchronous conveniences ------------------------------------------------------
    def put(self, data: Union[bytes, None] = None, block_id: Optional[int] = None) -> int:
        """Allocate (or reuse) an ID and write one block synchronously."""
        if block_id is None:
            block_id = self.block_layer.allocate_id()
        self.run(self.block_layer.write(block_id, data))
        return block_id

    def get(self, block_id: int, offset: int = 0, nbytes: Optional[int] = None):
        """Read synchronously."""
        return self.run(self.block_layer.read(block_id, offset, nbytes))

    def delete(self, block_id: int) -> None:
        """Free a block synchronously (erase happens per policy)."""
        self.run(self.block_layer.free(block_id))

    def __repr__(self):
        return (
            f"SDFSystem(channels={self.device.n_channels}, "
            f"stored_blocks={self.block_layer.stored_blocks}, "
            f"now={self.sim.now} ns)"
        )


def build_sdf_system(
    capacity_scale: float = 1.0,
    n_channels: int = 44,
    placement: Optional[PlacementPolicy] = None,
    erase_policy: ErasePolicy = ErasePolicy.BACKGROUND,
    sim: Optional[Simulator] = None,
    **device_overrides,
) -> SDFSystem:
    """An SDF system with the paper's deployed configuration.

    ``capacity_scale`` shrinks per-plane block counts for fast runs;
    bandwidth-relevant parameters are untouched.  Planes attach to the
    returned system, e.g. ``Observability().attach(system)``.
    """
    sim = sim if sim is not None else Simulator()
    device = build_device(
        "sdf",
        sim,
        capacity_scale=capacity_scale,
        n_channels=n_channels,
        **device_overrides,
    )
    block_layer = UserSpaceBlockLayer(device, placement, erase_policy)
    return SDFSystem(sim, device, block_layer)
