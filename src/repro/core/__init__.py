"""The paper's host-software layer.

SDF's hardware only becomes useful through the software wrapped around
it (S2.4): a **user-space block layer** that hands out 64-bit block IDs,
hashes them round-robin across the 44 exposed channels, enforces the
8 MB write unit, and keeps erase off the write path by erasing freed
blocks in the background.  The placement policy the paper sketches as
future work (load-balance-aware placement) lives in
:mod:`repro.core.scheduler`.
"""

from repro.core.api import SDFSystem, build_sdf_system
from repro.core.block_layer import (
    BlockLocation,
    UserSpaceBlockLayer,
)
from repro.core.scheduler import (
    ErasePolicy,
    LeastLoadedPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
)

__all__ = [
    "UserSpaceBlockLayer",
    "BlockLocation",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "LeastLoadedPlacement",
    "ErasePolicy",
    "SDFSystem",
    "build_sdf_system",
]
