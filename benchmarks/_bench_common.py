"""Shared helpers for the reproduction benchmarks.

Each benchmark file regenerates one table or figure from the paper's
evaluation.  Conventions:

* simulations are scaled down in *capacity* (fewer blocks per plane)
  but never in timing, page/block sizes, channel counts or request
  sizes -- so bandwidths and latencies are directly comparable;
* each benchmark prints the same rows/series the paper reports (run
  with ``-s`` to see them) and records them in ``benchmark.extra_info``;
* each asserts the paper's *shape*: who wins, roughly by how much, and
  where curves saturate or cross.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table

#: Capacity scale used by most benchmarks: 2048 -> 16 blocks per plane.
BENCH_SCALE = 0.008


def run_once(benchmark, fn):
    """Run a deterministic simulation exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def emit(benchmark, title, headers, rows, **extra):
    """Print a paper-style table and stash it in the benchmark report."""
    table = format_table(headers, rows, title=title)
    print("\n" + table)
    benchmark.extra_info["table"] = table
    for key, value in extra.items():
        benchmark.extra_info[key] = value


class PAPER:
    """Reference values transcribed from the paper (for shape checks)."""

    # Table 1 (MB/s): raw and measured sequential bandwidths.
    TABLE1 = {
        "intel-320": dict(raw=(300, 300), measured=(219, 153)),
        "huawei-gen3": dict(raw=(1600, 950), measured=(1200, 460)),
        "memblaze-q520": dict(raw=(1600, 1500), measured=(1300, 620)),
    }
    # Table 4 (GB/s).
    TABLE4 = {
        "sdf": {"8k": 1.23, "16k": 1.42, "64k": 1.51, "8m": 1.59, "w8m": 0.96},
        "gen3": {"8k": 0.92, "16k": 1.02, "64k": 1.15, "8m": 1.20, "w8m": 0.67},
        "intel": {"8k": 0.17, "16k": 0.20, "64k": 0.22, "8m": 0.22, "w8m": 0.13},
    }
    # Figure 8 (ms).
    FIG8 = dict(gen3_avg=73, gen3_max=650, sdf_avg=383)
    # S3.2 architectural limits (GB/s).
    PCIE_READ = 1.61
    PCIE_WRITE = 1.40
    SDF_RAW_READ = 1.67
    SDF_RAW_WRITE = 1.01


# --- cluster experiment helpers (Figures 10-14) ----------------------------

import numpy as np

from repro.cluster import (
    BatchSpec,
    KVClient,
    Network,
    build_storage_server,
    run_clients,
)
from repro.kv.slice import Slice, partition_key_space

KEY_SPAN = 1_000_000


def make_slices(n_slices, memtable_bytes=None):
    from repro.kv.lsm import LSMTree

    return [
        Slice(
            index,
            key_range,
            lsm=(
                LSMTree(memtable_bytes=memtable_bytes)
                if memtable_bytes
                else None
            ),
        )
        for index, key_range in enumerate(
            partition_key_space(n_slices, 0, KEY_SPAN)
        )
    ]


def build_server(sim, kind, n_slices, capacity_scale=0.03,
                 memtable_bytes=None, **kwargs):
    """A storage server over any device-zoo kind.

    ``kind`` is a device kind ("sdf", "conventional",
    "dftl", "hybrid", "mqftl", "zoned") or one of the legacy aliases
    "gen3" (the Huawei conventional baseline) / "intel" (the Intel 320
    spec at a larger scale so a patch extent still fits).
    """
    slices = make_slices(n_slices, memtable_bytes=memtable_bytes)
    if kind == "gen3":
        kind = "conventional"
    elif kind == "intel":
        from repro.devices import INTEL_320_SPEC

        return build_storage_server(
            sim, slices, device_kind="conventional", spec=INTEL_320_SPEC,
            n_channels=INTEL_320_SPEC.n_channels,
            capacity_scale=max(capacity_scale * 4, 0.05), **kwargs
        )
    return build_storage_server(
        sim, slices, device_kind=kind, capacity_scale=capacity_scale, **kwargs
    )


def preload_keys(server, keys_per_slice, value_bytes):
    """Populate every slice; returns {slice_id: [keys]}."""
    keys = {}
    for slice_ in server.slices:
        lo = slice_.key_range.lo
        slice_keys = [lo + index for index in range(keys_per_slice)]
        server.preload(slice_, slice_keys, value_bytes)
        keys[slice_.slice_id] = slice_keys
    return keys


def measure_kv_reads(
    kind,
    n_slices,
    batch_size,
    value_bytes,
    duration_ns,
    keys_per_slice=None,
    warmup_ns=None,
    seed=11,
    target_patches_per_slice=45,
):
    """Aggregate MB/s for the paper's batched random-read workload.

    Each slice is preloaded with enough values to span roughly
    ``target_patches_per_slice`` 8 MB patches, so its data -- like the
    production repository's -- is spread over every SDF channel.
    """
    from repro.sim import Simulator

    sim = Simulator()
    if keys_per_slice is None:
        per_patch = max(1, (8 << 20) // (value_bytes + 64))
        keys_per_slice = target_patches_per_slice * per_patch
    capacity_scale = max(
        0.03, 3.0 * n_slices * keys_per_slice * value_bytes / (700e9)
    )
    server = build_server(sim, kind, n_slices, capacity_scale=capacity_scale)
    keys = preload_keys(server, keys_per_slice, value_bytes)
    network = Network(sim)
    clients = [
        KVClient(
            sim,
            network,
            server,
            slice_,
            BatchSpec(batch_size=batch_size, value_bytes=value_bytes,
                      mode="read"),
            keys=keys[slice_.slice_id],
            rng=np.random.default_rng(seed + slice_.slice_id),
            name=f"client{slice_.slice_id}",
        )
        for slice_ in server.slices
    ]
    if warmup_ns is None:
        warmup_ns = duration_ns // 5
    run_clients(sim, clients, duration_ns, warmup_ns=warmup_ns)
    # Measure at the device: client batch completions are far too coarse
    # once a batch spans a large fraction of the run.
    device_stats = server.device.stats
    start = warmup_ns
    return device_stats.read_meter.mb_per_s(start, duration_ns)
