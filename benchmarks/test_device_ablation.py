"""CCDB ablation across the device zoo (the redesign's acceptance run).

One CCDB-style KV workload and one fleet-day slice, replayed over every
registered device kind -- SDF, conventional page-mapped, DFTL, hybrid
log-block, multi-queue, zoned -- through the single ``build_device``
door.  Emits a per-device JSON artifact (cost/WA/predictability) and
asserts the paper's architectural claims *and* their boundary:

* the SDF (and its zoned cousin) carry no device-side write
  amplification, while every device-managed FTL pays WA > 1 under
  sustained random update load;
* the SDF's write latency spread (p99/p50) is tighter than the
  conventional baseline's, whose GC and controller queue smear the
  tail (the paper's Figure 8 claim);
* the trade is real: for small random in-place updates, a page-mapped
  device with a warm mapping cache (DFTL) beats the SDF, which must
  read-modify-write an entire 8 MB erase block.

Set ``DEVICE_ABLATION_JSON=/path.json`` to dump the artifact (the CI
``plane-smokes`` job uploads it).
"""

from __future__ import annotations

import json
import os
import random

import pytest

from _bench_common import build_server, emit, preload_keys, run_once

from repro.devices import build_device, device_kinds
from repro.kv.common import PlaceholderValue
from repro.obs import Observability
from repro.obs.attach import attach_device
from repro.sim import MS, Simulator
from repro.workloads import (
    RateSchedule,
    Scenario,
    SizeDistribution,
    TenantSpec,
    UniformKeyModel,
    YCSB_A,
    run_scenario,
)

#: Every kind in the zoo; the acceptance bar is >= 5.
KINDS = ("sdf", "conventional", "dftl", "hybrid", "mqftl", "zoned")

JSON_PATH = os.environ.get("DEVICE_ABLATION_JSON", "")
#: KV puts per slice in the CCDB phase (CI smoke can shrink it).
PUTS_PER_SLICE = int(os.environ.get("DEVICE_ABLATION_PUTS", "160"))
#: Simulated fleet-day slice duration per kind (ms).
FLEET_MS = int(os.environ.get("DEVICE_ABLATION_FLEET_MS", "40"))

VALUE_BYTES = 16 * 1024
SEED = 23


def run_kv_phase(kind):
    """The CCDB-style phase: preload, then a put-heavy + read mix that
    drives memtable flushes (8 MB patch writes) and recycles extents
    until device-managed FTLs have to collect garbage."""
    sim = Simulator()
    # Small memtables so the timed puts actually flush (8 MB extent
    # writes), and a capacity scale tight enough that the cumulative
    # extent churn pushes device-managed FTLs into their GC regime.
    server = build_server(sim, kind, n_slices=2, capacity_scale=0.004,
                          n_channels=8, memtable_bytes=256 * 1024)
    device = server.device
    obs = Observability()
    attach_device(obs, device)
    before = dict(device.device_metrics())
    keys = preload_keys(server, 300, VALUE_BYTES)
    rng = random.Random(SEED)

    def tenant(slice_id):
        slice_keys = keys[slice_id]
        for index in range(PUTS_PER_SLICE):
            key = slice_keys[rng.randrange(len(slice_keys))]
            yield from server.handle_put(
                key, PlaceholderValue(VALUE_BYTES), tenant="ccdb"
            )
            if index % 4 == 0:
                key = slice_keys[rng.randrange(len(slice_keys))]
                try:
                    yield from server.handle_get(key, tenant="ccdb")
                except KeyError:
                    # The read raced a compaction recycling its
                    # extent; the scenario engine treats this as a
                    # transient, so retry once and move on.
                    try:
                        yield from server.handle_get(key, tenant="ccdb")
                    except KeyError:
                        pass

    processes = [sim.process(tenant(s.slice_id)) for s in server.slices]
    sim.run(until=sim.all_of(processes))
    after = device.device_metrics()

    reads = device.stats.read_latency
    p50 = reads.quantile(0.50)
    p99 = reads.quantile(0.99)
    host = after["host_programs"] - before["host_programs"]
    moved = (after["gc_programs"] - before["gc_programs"]) + (
        after.get("map_cache_misses", 0) - before.get("map_cache_misses", 0)
    )
    return {
        "write_amplification": after["write_amplification"],
        "host_programs": host,
        "gc_programs": after["gc_programs"] - before["gc_programs"],
        "gc_runs": after["gc_runs"] - before["gc_runs"],
        "merges": after["merges"] - before["merges"],
        "erases": after["erases"] - before["erases"],
        "map_cache_hit_rate": after["map_cache_hit_rate"],
        "moved_programs": moved,
        "read_p50_ms": p50 / 1e6,
        "read_p99_ms": p99 / 1e6,
        "read_p99_over_p50": (p99 / p50) if p50 else 0.0,
        "wall_ms": sim.now / 1e6,
        "obs_wa": obs.snapshot(sim.now)[
            f"device.{kind}.write_amplification"
        ],
    }


def run_predictability_phase(kind, n_requests=32):
    """Figure-8-style: 8 MB write-latency spread on a nearly-full
    device.

    Device-managed FTLs are primed to their GC/merge threshold first
    (and get the small 48 MB DRAM buffer of the Fig. 8 setup, so write
    acks cannot hide behind DRAM), then serve random 8 MB writes whose
    latency swings with whatever relocation work each one drags in.
    The SDF and the zoned device pay a flat, explicit erase+write."""
    from dataclasses import replace

    from repro.devices import HUAWEI_GEN3_SPEC
    from repro.sim.stats import LatencyRecorder

    sim = Simulator()
    rng = random.Random(SEED)
    recorder = LatencyRecorder(f"{kind}.predictability")
    if kind in ("sdf", "zoned"):
        device = build_device(kind, sim, capacity_scale=0.004, n_channels=8)
        device.prefill(1.0)

        if kind == "zoned":

            def writer(index):
                for turn in range(n_requests // 8):
                    zone = (index + turn * 8) % device.n_zones
                    start = sim.now
                    yield from device.reset_zone(zone)
                    yield from device.write_zone(zone)
                    recorder.record(sim.now - start)

        else:

            def writer(index):
                channel = device.channels[index]
                for turn in range(n_requests // 8):
                    start = sim.now
                    yield from channel.write_fresh(
                        turn % channel.n_logical_blocks
                    )
                    recorder.record(sim.now - start)

        processes = [sim.process(writer(index)) for index in range(8)]
        sim.run(until=sim.all_of(processes))
    else:
        spec = replace(
            HUAWEI_GEN3_SPEC.scaled(0.006),
            dram_buffer_bytes=48 << 20,
            parity_group_size=None,
            n_channels=8,
        )
        device = build_device(kind, sim, spec=spec)
        device.prefill(1.0)
        ftl = device.ftl
        if hasattr(ftl, "free_blocks") and hasattr(ftl, "gc_free_blocks"):
            # Drive the FTL to its GC threshold so the timed writes
            # all contend with relocation (the hybrid's log-block pool
            # churns on its own once the device is full).
            while max(
                ftl.free_blocks(c) for c in range(spec.n_channels)
            ) > ftl.gc_free_blocks + 2:
                ftl.write(rng.randrange(device.user_pages), None)
        pages = (8 << 20) // device.page_size

        def writer():
            for _ in range(n_requests):
                start = sim.now
                lpn = rng.randrange(device.user_pages - pages)
                yield from device.write(lpn, pages)
                recorder.record(sim.now - start)

        sim.run(until=sim.process(writer()))
    p50 = recorder.quantile(0.50)
    p99 = recorder.quantile(0.99)
    return {
        "write_p50_ms": p50 / 1e6,
        "write_p99_ms": p99 / 1e6,
        "p99_over_p50": (p99 / p50) if p50 else 0.0,
        "write_cov": recorder.coefficient_of_variation,
    }


def run_small_update_phase(kind):
    """Small-random-update microbench: mean device latency for an 8 KB
    in-place update.

    Page-mapped kinds remap one page.  The SDF and the zoned device
    have no device-side map: an in-place 8 KB update is a host-driven
    read-modify-write of the whole 8 MB erase unit."""
    sim = Simulator()
    if kind in ("sdf", "zoned"):
        device = build_device(kind, sim, capacity_scale=0.01, n_channels=4)
        n_updates = 4

        def drive():
            if kind == "zoned":
                for index in range(n_updates):
                    zone = index % device.n_zones
                    if index < device.n_zones:
                        yield from device.write_zone(zone)
                    yield from device.read_zone(
                        zone, 0, device.pages_per_zone
                    )
                    yield from device.reset_zone(zone)
                    yield from device.write_zone(zone)
            else:
                for index in range(n_updates):
                    channel = device.channels[index % 4]
                    block = 0
                    if not channel.ftl.is_mapped(block):
                        yield from channel.write(block)
                    yield from channel.read(
                        block, 0, channel.pages_per_logical_block
                    )
                    yield from channel.erase(block)
                    yield from channel.write(block)

    else:
        device = build_device(kind, sim, capacity_scale=0.01, cmt_pages=64) \
            if kind == "dftl" else build_device(
                kind, sim, capacity_scale=0.01
            )
        n_updates = 256
        rng = random.Random(SEED)
        span = 512  # hot set: within one DFTL translation page

        def drive():
            for lpn in range(span):
                yield from device.write(lpn, 1)
            for _ in range(n_updates):
                yield from device.write(rng.randrange(span), 1)
            yield from device.drain()

    start = sim.now
    sim.run(until=sim.process(drive()))
    # Mean time per 8 KB update, including everything it dragged along.
    return {"small_update_ms": (sim.now - start) / n_updates / 1e6}


def make_fleet_slice(kind) -> Scenario:
    duration = FLEET_MS * MS
    return Scenario(
        name=f"fleet-slice-{kind}",
        tenants=(
            TenantSpec(
                name="mixed",
                mix=YCSB_A,
                keys=UniformKeyModel(0, 4_000),
                sizes=SizeDistribution(fixed=VALUE_BYTES),
                arrivals=RateSchedule(base_rps=300.0),
            ),
        ),
        duration_ns=duration,
        n_nodes=1,
        n_slices=2,
        key_span=4_000,
        seed=SEED,
        device_kind=kind,
        capacity_scale=0.02,
        n_channels=4,
    )


def run_fleet_phase(kind):
    result = run_scenario(make_fleet_slice(kind))
    report = result.tenants["mixed"]
    return {
        "fleet_offered": report.offered,
        "fleet_good": report.good,
        "fleet_p50_ms": report.p50_ms,
        "fleet_p99_ms": report.p99_ms,
    }


def run_ablation():
    results = {}
    for kind in KINDS:
        row = {}
        row.update(run_kv_phase(kind))
        row.update(run_predictability_phase(kind))
        row.update(run_small_update_phase(kind))
        row.update(run_fleet_phase(kind))
        results[kind] = row
    return results


def test_device_zoo_ablation(benchmark):
    assert set(KINDS) <= set(device_kinds())
    assert len(KINDS) >= 5
    results = run_once(benchmark, run_ablation)

    rows = [
        [
            kind,
            f"{row['write_amplification']:.3f}",
            row["gc_programs"] + row["merges"],
            f"{row['map_cache_hit_rate']:.3f}",
            f"{row['write_p50_ms']:.3f}",
            f"{row['write_p99_ms']:.3f}",
            f"{row['p99_over_p50']:.2f}",
            f"{row['small_update_ms']:.3f}",
            f"{row['fleet_p99_ms']:.1f}",
        ]
        for kind, row in results.items()
    ]
    emit(
        benchmark,
        "Device-zoo ablation: CCDB KV phase + small-update microbench "
        f"+ {FLEET_MS} ms fleet slice",
        ["device", "WA", "gc+merge", "map hit", "write p50 ms",
         "write p99 ms", "w p99/p50", "8K update ms", "fleet p99 ms"],
        rows,
        results=results,
    )
    if JSON_PATH:
        artifact = {
            "kinds": list(KINDS),
            "puts_per_slice": PUTS_PER_SLICE,
            "fleet_ms": FLEET_MS,
            "seed": SEED,
            "results": results,
        }
        with open(JSON_PATH, "w") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)

    sdf = results["sdf"]
    conventional = results["conventional"]

    # -- The paper's claim: software-defined flash does not amplify.
    assert sdf["write_amplification"] == pytest.approx(1.0)
    assert results["zoned"]["write_amplification"] == pytest.approx(1.0)
    for kind in ("conventional", "dftl", "hybrid", "mqftl"):
        assert results[kind]["write_amplification"] >= (
            sdf["write_amplification"]
        ), f"{kind} should not beat the SDF's WA"

    # Sustained random updates force device-managed FTLs to move data.
    assert (
        conventional["gc_programs"] > 0 or conventional["gc_runs"] > 0
    ), "the CCDB phase never pressured the baseline's GC"

    # -- Predictability (Figure 8): the SDF's write tail is tighter
    # than the conventional baseline's, whose GC smears write latency.
    assert sdf["p99_over_p50"] < conventional["p99_over_p50"], (
        f"SDF write p99/p50 {sdf['p99_over_p50']:.2f} should beat "
        f"conventional {conventional['p99_over_p50']:.2f}"
    )

    # -- The boundary: device-managed mapping wins small random
    # updates.  DFTL's warm cache remaps one 8 KB page; the SDF
    # read-modify-writes 8 MB.
    assert results["dftl"]["small_update_ms"] < sdf["small_update_ms"], (
        "DFTL should beat the SDF on small random in-place updates"
    )
    assert results["dftl"]["map_cache_hit_rate"] > 0.0

    # The fleet slice completed work on every backend.
    for kind, row in results.items():
        assert row["fleet_good"] > 0, f"{kind}: fleet slice did no work"
        assert row["host_programs"] > 0, f"{kind}: KV phase wrote nothing"
