"""Figure 14: client writes plus CCDB compaction vs slice count.

Paper: clients issue synchronous KV writes sized 100 KB - 1 MB; the
storage node turns them into 8 MB patches and compaction generates
internal reads and rewrites.  SDF's total device throughput grows with
slice count and peaks around 1 GB/s at ~16 slices with a healthy share
of compaction reads.  The Gen3 delivers higher throughput at 1 slice
(per-request striping) but does not scale, and as client writes rise
its compaction share collapses (< 15% at 32 slices) -- unsorted data
piles up.
"""

import numpy as np

from _bench_common import build_server, emit, run_once

from repro.cluster import BatchSpec, KVClient, Network, run_clients
from repro.sim import MS, Simulator
from repro.workloads import FIG14_WRITE_SIZES

SLICE_COUNTS = [1, 16, 32]
DURATION_NS = 1100 * MS
WARMUP_NS = 300 * MS


def write_workload(kind: str, n_slices: int):
    sim = Simulator()
    server = build_server(sim, kind, n_slices, capacity_scale=0.06)
    network = Network(sim)
    rng = np.random.default_rng(23)
    value_bytes = int(FIG14_WRITE_SIZES.mean_estimate(rng, 200))
    clients = [
        KVClient(
            sim,
            network,
            server,
            slice_,
            BatchSpec(batch_size=1, value_bytes=value_bytes, mode="write"),
            rng=np.random.default_rng(100 + slice_.slice_id),
            name=f"w{slice_.slice_id}",
        )
        for slice_ in server.slices
    ]
    run_clients(sim, clients, DURATION_NS, warmup_ns=WARMUP_NS)
    device_stats = server.device.stats
    window = (WARMUP_NS, DURATION_NS)
    read_mb = device_stats.read_meter.mb_per_s(*window)
    write_mb = device_stats.write_meter.mb_per_s(*window)
    return read_mb, write_mb


def test_fig14_write_compaction(benchmark):
    def run():
        return {
            (kind, n): write_workload(kind, n)
            for kind in ("sdf", "gen3")
            for n in SLICE_COUNTS
        }

    results = run_once(benchmark, run)
    rows = []
    for kind in ("sdf", "gen3"):
        for n in SLICE_COUNTS:
            read_mb, write_mb = results[(kind, n)]
            total = read_mb + write_mb
            rows.append(
                [
                    f"{kind}-{n}sl",
                    write_mb,
                    read_mb,
                    total,
                    read_mb / total if total else 0.0,
                ]
            )
    emit(
        benchmark,
        "Figure 14: device throughput under client writes (MB/s)",
        ["config", "writes", "reads (compaction)", "total", "read share"],
        rows,
    )
    sdf_total = {
        n: sum(results[("sdf", n)]) for n in SLICE_COUNTS
    }
    gen3_total = {
        n: sum(results[("gen3", n)]) for n in SLICE_COUNTS
    }
    # SDF scales with slice count toward ~1 GB/s.
    assert sdf_total[16] > 3 * sdf_total[1]
    assert sdf_total[16] > 700
    assert sdf_total[32] >= 0.8 * sdf_total[16]
    # Gen3 starts higher at 1 slice but does not scale.
    assert gen3_total[1] > sdf_total[1]
    assert gen3_total[32] < 1.6 * gen3_total[1]
    # SDF keeps a healthy compaction-read share at its peak; the Gen3's
    # compaction share at 32 slices is squeezed below the SDF's.
    sdf_share_16 = results[("sdf", 16)][0] / sdf_total[16]
    gen3_share_32 = results[("gen3", 32)][0] / gen3_total[32]
    assert sdf_share_16 > 0.10
    assert gen3_share_32 < sdf_share_16 + 0.05
