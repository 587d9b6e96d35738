"""Layer microbenchmarks: direct timed calls into one layer each, with
no simulator stack around them (host clock; a few seconds in total).

Each returns one ``micro.*`` per-layer metric.  They say what one call
into a layer costs on this box; the workloads say how often it is made.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict

import numpy as np

from repro.devices import HUAWEI_GEN3_SPEC, build_device
from repro.kv.common import PlaceholderValue
from repro.kv.lsm import LSMTree
from repro.kv.store import MemoryPatchStore
from repro.obs import MetricsRegistry
from repro.sim import Simulator
from repro.sim.timeline import ResourceTimeline
from repro.workloads import ZipfianKeyModel


def _per_call(fn, n: int, scale: float, chunks: int = 3) -> float:
    """Cost of one call: ``fn(n // chunks)`` timed ``chunks`` times, the
    fastest chunk kept (interference here is one-sided)."""
    n //= chunks
    best = float("inf")
    for _ in range(chunks):
        start = time.perf_counter()
        fn(n)
        best = min(best, time.perf_counter() - start)
    return best / n * scale


def kernel_events_per_s() -> float:
    """64 processes x 4000 pooled holds through the bare event loop;
    also the calibration that ``host.wall_norm`` normalises by."""
    n_procs, n_holds = 64, 4000

    def one_run() -> float:
        sim = Simulator()

        def proc(delay):
            for _ in range(n_holds):
                yield sim.hold(delay)

        for index in range(n_procs):
            sim.process(proc(1 + index))
        start = time.perf_counter()
        sim.run()
        return time.perf_counter() - start

    return n_procs * n_holds / min(one_run(), one_run())


def timeline_reserve_ns() -> float:
    timeline = ResourceTimeline()

    def loop(n):
        reserve = timeline.reserve
        for index in range(n):
            reserve(index * 10, 7)

    return _per_call(loop, 300_000, 1e9)


def block_cycle_us() -> float:
    """``ChannelBlockFTL.write`` + ``erase`` of one 8 MiB logical block."""
    ftl = build_device("sdf", Simulator(), capacity_scale=0.002, n_channels=1).ftls[0]
    pages = [None] * ftl.pages_per_logical_block

    def loop(n):
        for _ in range(n):
            ftl.write(0, pages)
            ftl.erase(0)

    return _per_call(loop, 60, 1e6)


def page_write_us() -> float:
    """``PageFTL.write`` of random pages with GC at steady state."""
    spec = replace(HUAWEI_GEN3_SPEC, n_channels=8, parity_group_size=None)
    device = build_device(
        "conventional", Simulator(), spec=spec, capacity_scale=0.006
    )
    device.prefill(1.0)
    ftl = device.ftl
    rng = np.random.default_rng(0)
    lpns = [int(lpn) for lpn in rng.integers(device.user_pages, size=40_000)]
    for lpn in lpns[:20_000]:  # reach the GC threshold and stay there
        ftl.write(lpn, None)

    def loop(n):
        for lpn in lpns[-n:]:
            ftl.write(lpn, None)

    return _per_call(loop, 20_000, 1e6)


def lsm_put_get_us() -> Dict[str, float]:
    """``LSMTree.put`` (+ ``register_patch`` on a freeze) and ``get``
    over a :class:`MemoryPatchStore`, 4 KiB values."""
    lsm = LSMTree(memtable_bytes=256 * 1024)
    store = MemoryPatchStore()
    value = PlaceholderValue(4096)
    n_keys = 5_000

    def puts(n):
        for index in range(n):
            frozen = lsm.put(index % n_keys, value)
            if frozen is not None:
                lsm.register_patch(frozen, store.store(frozen.patch))

    def gets(n):
        for index in range(n):
            lsm.get(index % n_keys)

    return {
        "micro.kv.lsm_put_us": _per_call(puts, 20_000, 1e6),
        "micro.kv.lsm_get_us": _per_call(gets, 50_000, 1e6),
    }


def zipf_sample_us() -> float:
    model = ZipfianKeyModel(0, 60_000, theta=0.99)
    rng = np.random.default_rng(0)

    def loop(n):
        for _ in range(n):
            model.sample(rng)

    return _per_call(loop, 50_000, 1e6)


def counter_inc_ns() -> float:
    """The hot-path idiom ``registry.counter(name).add(1)``."""
    registry = MetricsRegistry()

    def loop(n):
        for _ in range(n):
            registry.counter("bench.counter").add(1)

    return _per_call(loop, 300_000, 1e9)


def run_all() -> Dict[str, float]:
    """Every ``micro.*`` metric, measured once."""
    metrics = {
        "micro.sim.kernel_events_per_s": kernel_events_per_s(),
        "micro.sim.timeline_reserve_ns": timeline_reserve_ns(),
        "micro.ftl.block_cycle_us": block_cycle_us(),
        "micro.ftl.page_write_us": page_write_us(),
        "micro.workloads.zipf_sample_us": zipf_sample_us(),
        "micro.obs.counter_inc_ns": counter_inc_ns(),
    }
    metrics.update(lsm_put_get_us())
    return metrics
