"""Multi-queue FTL (LFTL-style): one submission queue per channel.

The conventional baseline serializes every request behind one
controller: per-request admission and per-page processing all contend
for a single timeline, which is exactly the "lock-coupled firmware"
bottleneck LFTL attacks by partitioning the FTL into per-channel
workers with their own queues.

This backend keeps the page-mapped FTL of the baseline byte-for-byte
(striping, OP, greedy per-channel GC via ``ftl/gc.py``, min-wear pools
via ``ftl/wear.py``) and changes only the controller model: requests
are admitted by the queue owning their first page, and per-page costs
charge the queue owning *that* page's channel.  Under concurrency the
queues run in parallel; a single stream sees baseline latencies.
"""

from __future__ import annotations

from typing import List

from repro.devices.conventional import ConventionalSSD, ConventionalSSDSpec
from repro.sim.timeline import ResourceTimeline


class MQFTLDevice(ConventionalSSD):
    """A conventional SSD with queue-per-channel controller parallelism."""

    kind = "mqftl"

    def __init__(self, sim, spec: ConventionalSSDSpec, store_data=False):
        super().__init__(sim, spec, store_data=store_data)
        #: One admission/processing queue per channel (the LFTL split);
        #: replaces the single shared ``self.controller`` on every path.
        self._queues: List[ResourceTimeline] = [
            ResourceTimeline() for _ in range(spec.n_channels)
        ]

    def _request_controller(self, lpn: int) -> ResourceTimeline:
        return self._queues[self.ftl.channel_of_lpn(lpn)]

    #: Per-page costs charge the queue owning that page's channel too.
    _page_controller = _request_controller
