"""Flash translation layers.

Two FTL families, matching the paper's Figure 5 contrast:

* :class:`~repro.ftl.page_ftl.PageFTL` -- the conventional-SSD FTL: one
  page-mapped, log-structured FTL spanning all channels with small-unit
  striping, over-provisioning and greedy garbage collection.  This is
  what the Huawei Gen3 / Intel 320 baselines run.
* :class:`~repro.ftl.block_ftl.ChannelBlockFTL` -- the SDF per-channel
  engine: block-level LA2PA mapping, dynamic wear leveling and bad-block
  management, with **no** garbage collection (the host erases blocks
  explicitly before rewriting them, so write amplification is 1).

Every logical operation returns the sequence of physical
:class:`~repro.ftl.ops.FlashOp`\\ s it performed -- the block FTL's
page ops as plane runs, :class:`~repro.ftl.ops.OpRuns` -- which the
timed device layer replays against the channel engines to produce
latency.
"""

from repro.ftl.badblocks import BadBlockManager
from repro.ftl.block_ftl import ChannelBlockFTL, EraseBeforeWriteError
from repro.ftl.gc import GreedyGarbageCollector
from repro.ftl.mapping import BlockMapping, PageMapping
from repro.ftl.ops import FlashOp, OpKind, OpRuns
from repro.ftl.page_ftl import OutOfSpaceError, PageFTL
from repro.ftl.wear import FreeBlockPool

__all__ = [
    "FlashOp",
    "OpKind",
    "OpRuns",
    "PageMapping",
    "BlockMapping",
    "BadBlockManager",
    "FreeBlockPool",
    "GreedyGarbageCollector",
    "PageFTL",
    "OutOfSpaceError",
    "ChannelBlockFTL",
    "EraseBeforeWriteError",
]
