"""Perf-regression harness for the simulation core.

Runs the paper-shaped hot scenarios and reports wall-clock, processed
events, events/sec, simulated throughput, and what each run left the
cyclic collector: ``gc_found`` (objects only it could free; the request
paths are meant to leave none) and ``tracked_growth`` (tracked objects
the finished system keeps).  Results land in ``BENCH_perf.json`` for
the CI perf-smoke job (see ``check_regression.py``).

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py [--out BENCH_perf.json]

Scenarios:

* ``fig7_read_44``  -- 44-channel sequential-read sweep point (Figure 7)
* ``fig7_write_44`` -- 44-channel sequential-write sweep point (Figure 7)
* ``kv_write_compaction`` -- LSM put stream with flushes + compactions
  over a 4-channel SDF server (Figures 12-14 regime, scaled down)
* ``conv_gc_write`` -- 1 MiB random writes, then drain, on a full,
  GC-primed 8-channel conventional SSD (the Figure 8 baseline's regime):
  the conventional family's request path, page-mapped FTL and GC
* ``fleet_day_qos`` -- a fleet-day scenario with observability, fault
  bursts, channel QoS admission and an active policy rule (the whole
  production stack on the extended analytic path)
* ``fleet_day_sharded`` -- the static-control-plane fleet day run
  in-process versus sharded across worker processes (byte-identical
  reports; wall-clock ratio is hardware-dependent so only event counts
  are gated)
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import sys
import time
from pathlib import Path

import numpy as np

import repro

# Every module now, not lazily inside the first scenario that needs it:
# importing leaves garbage of its own (the stdlib's enum conversions),
# which is not a run's ``gc_found``.
for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(_module.name)


def _fig7_point(direction: str):
    from repro.devices import build_device
    from repro.sim import MIB, MS, Simulator
    from repro.workloads import drive_sdf_reads, drive_sdf_writes

    sim = Simulator()
    sdf = build_device("sdf", sim, capacity_scale=0.004)
    if direction == "read":
        sdf.prefill(1.0)
        wall0 = time.perf_counter()
        drive_sdf_reads(
            sim,
            sdf,
            request_bytes=2 * MIB,
            duration_ns=400 * MS,
            channels=range(44),
            sequential=True,
            rng=np.random.default_rng(0),
            warmup_ns=60 * MS,
        )
        wall = time.perf_counter() - wall0
        mbps = sdf.link.read_meter.mb_per_s(60 * MS, 400 * MS)
    else:
        wall0 = time.perf_counter()
        drive_sdf_writes(
            sim,
            sdf,
            duration_ns=1100 * MS,
            channels=range(44),
            warmup_ns=360 * MS,
        )
        wall = time.perf_counter() - wall0
        mbps = sdf.link.write_meter.mb_per_s(360 * MS, 1100 * MS)
    return {
        "wall_s": wall,
        "events": sim._seq,
        "sim_end_ns": sim.now,
        "mb_per_s": mbps,
        "system": sdf,
    }


def fig7_read_44():
    return _fig7_point("read")


def fig7_write_44():
    return _fig7_point("write")


def kv_write_compaction():
    from repro.cluster import build_sdf_server
    from repro.kv.lsm import LSMTree
    from repro.kv.slice import KeyRange, Slice
    from repro.sim import MS, Simulator

    sim = Simulator()
    lsm = LSMTree(memtable_bytes=256 * 1024)
    server = build_sdf_server(
        sim,
        [Slice(0, KeyRange(0, 1_000_000), lsm=lsm)],
        capacity_scale=0.01,
        n_channels=4,
    )
    value = b"v" * 4096
    wall0 = time.perf_counter()

    def put_stream():
        for key in range(1500):
            yield from server.handle_put(key % 500, value)

    sim.run(until=sim.process(put_stream()))
    sim.run(until=sim.now + 200 * MS)  # drain flushes + compactions
    wall = time.perf_counter() - wall0
    device = server.system.device
    return {
        "wall_s": wall,
        "events": sim._seq,
        "sim_end_ns": sim.now,
        "mb_per_s": device.stats.write_meter.mb_per_s(0, sim.now),
        "system": server,
    }


def conv_gc_write():
    from dataclasses import replace

    from repro.devices import HUAWEI_GEN3_SPEC, build_device
    from repro.sim import MIB, Simulator

    sim = Simulator()
    spec = replace(
        HUAWEI_GEN3_SPEC,
        n_channels=8,
        dram_buffer_bytes=16 * MIB,
        parity_group_size=None,
    )
    device = build_device("conventional", sim, spec=spec, capacity_scale=0.006)
    device.prefill(1.0)
    rng = np.random.default_rng(0)
    ftl = device.ftl
    # Prime every channel to its GC threshold so the timed writes contend.
    while max(
        ftl.free_blocks(channel) for channel in range(spec.n_channels)
    ) > ftl.gc_free_blocks:
        ftl.write(int(rng.integers(device.user_pages)), None)
    pages = MIB // device.page_size
    starts = [int(rng.integers(device.user_pages - pages)) for _ in range(64)]

    def submitter():
        for start in starts:
            yield from device.write(start, pages)
        yield from device.drain()

    wall0 = time.perf_counter()
    sim.run(until=sim.process(submitter()))
    wall = time.perf_counter() - wall0
    nbytes = len(starts) * pages * device.page_size
    return {
        "wall_s": wall,
        "events": sim._seq,
        "sim_end_ns": sim.now,
        "mb_per_s": nbytes / 1e6 / (sim.now / 1e9),
        "system": device,
    }


def _fleet_scenario(static_control_plane: bool):
    """A fleet-day-shaped scenario: three tenants, crash + brownout."""
    from repro.sim.units import MS
    from repro.workloads import (
        DiurnalWave,
        FaultBurst,
        RateSchedule,
        Scenario,
        SizeDistribution,
        SloSpec,
        Spike,
        TenantSpec,
        UniformKeyModel,
        YCSB_A,
        YCSB_B,
        ZipfianKeyModel,
    )

    duration = 400 * MS
    tenants = (
        TenantSpec(
            name="web",
            mix=YCSB_B,
            keys=ZipfianKeyModel(0, 20_000, theta=0.99),
            sizes=SizeDistribution(fixed=16 * 1024),
            arrivals=RateSchedule(
                base_rps=400.0,
                wave=DiurnalWave(amplitude=0.4, period_ns=duration),
            ),
            slo=SloSpec(deadline_ns=40 * MS),
        ),
        TenantSpec(
            name="bulk",
            mix=YCSB_A,
            keys=UniformKeyModel(0, 60_000),
            sizes=SizeDistribution(lo=32 * 1024, hi=256 * 1024),
            arrivals=RateSchedule(
                base_rps=240.0,
                spikes=(
                    Spike(
                        at_ns=duration * 2 // 5,
                        duration_ns=duration // 5,
                        multiplier=3.0,
                    ),
                ),
            ),
            slo=SloSpec(deadline_ns=80 * MS),
        ),
    )
    return Scenario(
        name="fleet-day-perf",
        tenants=tenants,
        duration_ns=duration,
        n_nodes=3,
        n_slices=6,
        key_span=60_000,
        seed=29,
        faults=(
            FaultBurst(
                node=1,
                at_ns=duration * 2 // 5,
                duration_ns=duration // 6,
                kind="crash",
            ),
            FaultBurst(
                node=2,
                at_ns=duration // 2,
                duration_ns=duration // 6,
                kind="brownout",
                multiplier=10.0,
            ),
        ),
        rebalance_every_ns=None if static_control_plane else duration // 4,
    )


def _fleet_qos():
    from repro.qos import (
        AdmissionConfig,
        BreakerConfig,
        ChannelQosConfig,
        QosPlan,
        WriteStallConfig,
    )
    from repro.sim.units import MS

    return QosPlan(
        channel=ChannelQosConfig(max_inflight_ops=8),
        admission=AdmissionConfig(max_reads=64, max_writes=32, max_scans=16),
        write_stall=WriteStallConfig(),
        breaker=BreakerConfig(failure_threshold=5, reset_ns=50 * MS),
    )


def _fleet_policy():
    from repro.policy import Hysteresis, MetricSignal, PolicyPlan, Rule
    from repro.policy.actions import SetAdmission
    from repro.sim.units import MS

    return PolicyPlan(
        rules=(
            Rule(
                name="tighten-on-shed",
                signal=MetricSignal("tenant.web.shed"),
                hysteresis=Hysteresis(upper=50.0, lower=10.0),
                action=SetAdmission(max_reads=32, max_writes=16),
                cooldown_ns=50 * MS,
            ),
        ),
        period_ns=20 * MS,
    )


def fleet_day_qos():
    """Fleet day with every plane attached (obs, faults, QoS, policy)."""
    from repro.obs import Observability
    from repro.workloads.scenarios import ScenarioRunner

    runner = ScenarioRunner(
        _fleet_scenario(static_control_plane=False),
        qos=_fleet_qos(),
        obs=Observability(),
        policy=_fleet_policy(),
    )
    wall0 = time.perf_counter()
    runner.run()
    wall = time.perf_counter() - wall0
    return {
        "wall_s": wall,
        "events": int(runner.sim._seq),
        "sim_end_ns": int(runner.sim.now),
        "system": runner,
    }


def fleet_day_sharded(mode: str):
    """Static-control-plane fleet day, in-process vs sharded workers."""
    from repro.obs import Observability
    from repro.workloads.scenarios import ScenarioRunner, run_scenario_sharded

    scenario = _fleet_scenario(static_control_plane=True)
    runner = None  # sharded: the systems live and die in the workers
    if mode == "inprocess":
        # Cluster build + preload count in both modes: the sharded run
        # necessarily rebuilds per shard, so the in-process side must
        # pay for its build too for the ratio to mean anything.
        wall0 = time.perf_counter()
        runner = ScenarioRunner(
            scenario, qos=_fleet_qos(), obs=Observability()
        )
        result = runner.run()
        wall = time.perf_counter() - wall0
        events = int(runner.sim._seq)
    else:
        wall0 = time.perf_counter()
        result = run_scenario_sharded(scenario, workers=3, qos=_fleet_qos())
        wall = time.perf_counter() - wall0
        events = int(result.snapshot["shard.events"])
    return {
        "wall_s": wall,
        "events": events,
        "sim_end_ns": int(result.sim_end_ns),
        "digest": result.to_json(),
        "system": runner,
    }


#: name -> (scenario callable, mode pair or None).  A scenario returns
#: its measurements and, under ``"system"``, what it built -- still
#: whole, so the collector ledger counts the run and not the teardown.
#: A scenario with a
#: ``(slow mode, fast mode)`` pair runs once per mode and the two must
#: agree byte-for-byte on the simulated outcome.  The fleet scenarios
#: run first: the big fig7 sweeps leave tens of millions of live
#: objects behind, which taxes every allocation made after them.
SCENARIOS = {
    "fleet_day_qos": (fleet_day_qos, None),
    "fleet_day_sharded": (fleet_day_sharded, ("inprocess", "sharded")),
    "fig7_read_44": (fig7_read_44, None),
    "fig7_write_44": (fig7_write_44, None),
    "kv_write_compaction": (kv_write_compaction, None),
    "conv_gc_write": (conv_gc_write, None),
}


def _measure(label: str, scenario, *args) -> dict:
    from repro.analysis.profile import CollectorLedger

    with CollectorLedger() as ledger:
        result = scenario(*args)
    del result["system"]
    result["gc_found"] = ledger.found
    result["tracked_growth"] = ledger.tracked_growth
    result["events_per_s"] = (
        result["events"] / result["wall_s"] if result["wall_s"] else 0.0
    )
    throughput = (
        f"sim={result['mb_per_s'] / 1000:5.2f} GB/s"
        if "mb_per_s" in result
        else ""
    )
    print(
        f"{label:>32}: wall={result['wall_s']:6.2f}s "
        f"events={result['events']:>8} "
        f"({result['events_per_s'] / 1e3:7.1f}k ev/s) "
        f"gc_found={result['gc_found']} {throughput}"
    )
    return result


def run_all():
    report = {}
    for name, (scenario, modes) in SCENARIOS.items():
        if modes is None:
            report[name] = _measure(name, scenario)
            continue
        entry = {"modes": list(modes)}
        for mode in modes:
            entry[mode] = _measure(f"{name} {mode}", scenario, mode)
        slow, fast = entry[modes[0]], entry[modes[1]]
        # The modes must agree on the *simulated* outcome exactly.
        if slow["sim_end_ns"] != fast["sim_end_ns"]:
            raise SystemExit(
                f"{name}: modes diverged "
                f"(end {slow['sim_end_ns']} != {fast['sim_end_ns']})"
            )
        for key in ("mb_per_s", "digest"):
            if key in slow and slow[key] != fast[key]:
                raise SystemExit(f"{name}: modes diverged on {key}")
        # Digests proved byte-identity; don't bloat the report with them.
        for mode_entry in (slow, fast):
            mode_entry.pop("digest", None)
        entry["speedup"] = slow["wall_s"] / fast["wall_s"]
        print(f"{name:>22}   speedup: {entry['speedup']:.2f}x")
        report[name] = entry
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parents[2] / "BENCH_perf.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    report = run_all()
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
