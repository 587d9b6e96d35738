"""Placement and erase-scheduling policies for the block layer.

The deployed system (S2.4) hashes consecutive block IDs round-robin
over the channels and leaves smarter scheduling as future work; this
module implements both the deployed policy and the future-work ones so
the ablation benchmarks can compare them:

* :class:`RoundRobinPlacement` -- ``channel = id % n`` (deployed).
* :class:`LeastLoadedPlacement` -- pick the channel with the fewest
  outstanding writes (the paper's "load-balance-aware scheduler").
* :class:`ErasePolicy` -- erase freed blocks in the background
  (deployed: erases scheduled in idle periods) or inline right before
  the next write to the block (the conventional discipline Figure 8
  measures).
"""

from __future__ import annotations

from enum import Enum
from typing import List, Protocol


class ErasePolicy(Enum):
    """When freed blocks get erased: background or inline."""

    #: Erase freed blocks from a background process (keeps erase off the
    #: write path -- the deployed SDF discipline).
    BACKGROUND = "background"
    #: Erase immediately before rewriting a block (write latency then
    #: includes tBERS, as measured for SDF in Figure 8).
    INLINE = "inline"


class PlacementPolicy(Protocol):
    """Chooses the channel that will store a new block ID."""

    def choose(self, block_id: int, loads: List[int]) -> int:
        """Return a channel index.

        ``loads`` is the current number of outstanding writes per
        channel (maintained by the block layer).
        """
        ...  # pragma: no cover


class RoundRobinPlacement:
    """The deployed policy: consecutive IDs go to consecutive channels."""

    def choose(self, block_id: int, loads: List[int]) -> int:
        """Return the channel index for this block ID."""
        return block_id % len(loads)


class LeastLoadedPlacement:
    """Future-work policy: place on the least-loaded channel.

    Ties are broken by a rotating preference so that an idle system
    still spreads IDs evenly.
    """

    def __init__(self):
        self._rotation = 0

    def choose(self, block_id: int, loads: List[int]) -> int:
        """Return the channel index for this block ID."""
        n = len(loads)
        best = min(loads)
        for offset in range(n):
            channel = (self._rotation + offset) % n
            if loads[channel] == best:
                self._rotation = (channel + 1) % n
                return channel
        raise AssertionError("unreachable: min(loads) must be present")
