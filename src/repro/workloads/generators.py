"""Closed-loop device drivers for the microbenchmark experiments.

These implement the measurement procedures of S3.2 (Table 4, Figure 7):

* SDF: "we use 44 threads -- one for each channel -- ... all requests
  are synchronously issued and the benchmarks issue requests as rapidly
  as possible to keep all channels busy."
* Commodity SSDs: "only one thread is used because they expose only one
  channel, and the thread issues asynchronous requests" -- modeled as a
  configurable queue depth of outstanding requests.

Every driver returns the aggregate data throughput in decimal MB/s over
the measurement window (excluding warmup).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.devices.conventional import ConventionalSSD
from repro.devices.sdf import SDFDevice
from repro.sim import AllOf, Simulator
from repro.sim.stats import ThroughputMeter


def drive_sdf_reads(
    sim: Simulator,
    sdf: SDFDevice,
    request_bytes: int,
    duration_ns: int,
    channels: Optional[Sequence[int]] = None,
    rng: Optional[np.random.Generator] = None,
    sequential: bool = False,
    warmup_ns: int = 0,
) -> float:
    """Synchronous reads, one thread per exposed channel.

    Channels must already hold data (use ``sdf.prefill``).  Random mode
    picks a random mapped block and a random aligned offset; sequential
    mode walks blocks and offsets in order.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    page = sdf.array.geometry.page_size
    n_pages = max(1, request_bytes // page)
    meter = ThroughputMeter("sdf.read")
    deadline = sim.now + duration_ns
    measure_from = sim.now + warmup_ns
    targets = list(channels) if channels is not None else range(sdf.n_channels)

    def reader(channel_device, seed):
        local = np.random.default_rng(seed)
        ftl = channel_device.ftl
        mapped = [
            block
            for block in range(ftl.n_logical_blocks)
            if ftl.is_mapped(block)
        ]
        if not mapped:
            raise RuntimeError("channel holds no data; prefill the device")
        slots = ftl.pages_per_logical_block // n_pages
        if slots < 1:
            raise ValueError("request larger than a logical block")
        cursor = 0
        while sim.now < deadline:
            if sequential:
                block = mapped[(cursor // slots) % len(mapped)]
                offset = (cursor % slots) * n_pages
                cursor += 1
            else:
                block = mapped[int(local.integers(len(mapped)))]
                offset = int(local.integers(slots)) * n_pages
            yield from channel_device.read(block, offset, n_pages)
            meter.record(sim.now, n_pages * page)

    procs = [
        sim.process(reader(sdf.channels[channel], 1000 + channel * 7))
        for channel in targets
    ]
    sim.run(until=AllOf(sim, procs))
    return meter.mb_per_s(measure_from, deadline)


def drive_sdf_writes(
    sim: Simulator,
    sdf: SDFDevice,
    duration_ns: int,
    channels: Optional[Sequence[int]] = None,
    warmup_ns: int = 0,
) -> float:
    """Synchronous 8 MB writes, one thread per channel, cycling over
    each channel's logical blocks (erasing before rewrite)."""
    meter = ThroughputMeter("sdf.write")
    deadline = sim.now + duration_ns
    measure_from = sim.now + warmup_ns
    targets = list(channels) if channels is not None else range(sdf.n_channels)

    def writer(channel_device):
        block = 0
        n_blocks = channel_device.n_logical_blocks
        while sim.now < deadline:
            yield from channel_device.write_fresh(block % n_blocks)
            meter.record(sim.now, channel_device.logical_block_bytes)
            block += 1

    procs = [
        sim.process(writer(sdf.channels[channel])) for channel in targets
    ]
    sim.run(until=AllOf(sim, procs))
    return meter.mb_per_s(measure_from, deadline)


def drive_conventional_reads(
    sim: Simulator,
    device: ConventionalSSD,
    request_bytes: int,
    duration_ns: int,
    queue_depth: int = 32,
    rng: Optional[np.random.Generator] = None,
    sequential: bool = False,
    warmup_ns: int = 0,
) -> float:
    """One async submitter modeled as ``queue_depth`` outstanding
    requests against the single exposed device."""
    rng = rng if rng is not None else np.random.default_rng(0)
    page = device.page_size
    n_pages = max(1, request_bytes // page)
    slots = device.user_pages // n_pages
    if slots < 1:
        raise ValueError("request larger than user capacity")
    meter = ThroughputMeter("conv.read")
    deadline = sim.now + duration_ns
    measure_from = sim.now + warmup_ns
    sequence = {"cursor": 0}

    def worker(seed):
        local = np.random.default_rng(seed)
        while sim.now < deadline:
            if sequential:
                slot = sequence["cursor"] % slots
                sequence["cursor"] += 1
            else:
                slot = int(local.integers(slots))
            yield from device.read(slot * n_pages, n_pages)
            meter.record(sim.now, n_pages * page)

    procs = [sim.process(worker(500 + i)) for i in range(queue_depth)]
    sim.run(until=AllOf(sim, procs))
    return meter.mb_per_s(measure_from, deadline)


def drive_conventional_writes(
    sim: Simulator,
    device: ConventionalSSD,
    request_bytes: int,
    duration_ns: int,
    queue_depth: int = 32,
    rng: Optional[np.random.Generator] = None,
    sequential: bool = True,
    warmup_ns: int = 0,
) -> float:
    """Async writes at a given queue depth (sequential by default, as in
    the Table 1/4 peak-bandwidth procedure)."""
    rng = rng if rng is not None else np.random.default_rng(0)
    page = device.page_size
    n_pages = max(1, request_bytes // page)
    slots = device.user_pages // n_pages
    if slots < 1:
        raise ValueError("request larger than user capacity")
    meter = ThroughputMeter("conv.write")
    deadline = sim.now + duration_ns
    measure_from = sim.now + warmup_ns
    sequence = {"cursor": 0}

    def worker(seed):
        local = np.random.default_rng(seed)
        while sim.now < deadline:
            if sequential:
                slot = sequence["cursor"] % slots
                sequence["cursor"] += 1
            else:
                slot = int(local.integers(slots))
            yield from device.write(slot * n_pages, n_pages)
            meter.record(sim.now, n_pages * page)

    procs = [sim.process(worker(900 + i)) for i in range(queue_depth)]
    sim.run(until=AllOf(sim, procs))
    drained = sim.process(device.drain())
    sim.run(until=drained)
    return meter.mb_per_s(measure_from, deadline)
