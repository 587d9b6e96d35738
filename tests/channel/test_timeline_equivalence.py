"""No-drift suite for the timeline scheduler.

Every scenario here was run at the last commit that still had the
process-per-op generator scheduler, in both scheduling modes; the two
agreed byte for byte -- same end-of-run clock, same throughput-meter
samples at the same instants, same latency samples, same per-engine
op/wait/busy accounting, same NAND wear -- and the SHA-256 of each
signature was recorded in ``golden_schedule.json``.  The timeline
reservations are now the only scheduler; these tests replay the same
scenarios and compare with ``==`` (see ``tests/channel/golden.py``).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.channel.engine import build_engines
from repro.devices import HUAWEI_GEN3_SPEC, INTEL_320_SPEC, build_device
from repro.faults import FaultPlan
from repro.ftl.ops import FlashOp, OpKind
from repro.interfaces.link import LinkDropError
from repro.nand.array import PhysicalAddress
from repro.nand.catalog import MICRON_25NM_MLC, SDF_CHIP_GEOMETRY
from repro.obs import Observability, attach_device
from repro.qos import ChannelQosConfig, QosPlan
from repro.sim import MIB, MS, Event, Simulator
from repro.workloads import (
    drive_conventional_reads,
    drive_conventional_writes,
    drive_sdf_reads,
    drive_sdf_writes,
)
from tests.channel.golden import check_golden
from tests.channel.reference_engine import execute_all, execute_batch

N_CHANNELS = 4
SCALE = 0.004


def sdf_signature(sim, sdf):
    """Everything observable about a finished SDF run."""
    end = sim.now
    return {
        "end": end,
        "link_read": tuple(sdf.link.read_meter.samples),
        "link_write": tuple(sdf.link.write_meter.samples),
        "engines": tuple(
            (
                engine.ops_executed.value,
                engine.wait_ns.value,
                engine.busy_value(end),
            )
            for engine in sdf.engines
        ),
        "read_latency": tuple(sdf.stats.read_latency.samples),
        "write_latency": tuple(sdf.stats.write_latency.samples),
        "erase_latency": tuple(sdf.stats.erase_latency.samples),
        "wear": (
            sdf.array.total_reads,
            sdf.array.total_programs,
            sdf.array.total_erases,
        ),
    }


def small_sdf(sim, n_channels=N_CHANNELS):
    return build_device("sdf", sim, capacity_scale=SCALE, n_channels=n_channels)


def sequential_reads(sim, sdf, duration_ns=15 * MS, seed=0):
    sdf.prefill(1.0)
    drive_sdf_reads(
        sim,
        sdf,
        request_bytes=2 * MIB,
        duration_ns=duration_ns,
        channels=range(N_CHANNELS),
        sequential=True,
        rng=np.random.default_rng(seed),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("sequential", [True, False])
def test_sdf_reads_byte_identical(seed, sequential):
    sim = Simulator()
    sdf = small_sdf(sim)
    sdf.prefill(1.0)
    drive_sdf_reads(
        sim,
        sdf,
        request_bytes=2 * MIB,
        duration_ns=20 * MS,
        channels=range(N_CHANNELS),
        sequential=sequential,
        rng=np.random.default_rng(seed),
        warmup_ns=0,
    )
    check_golden(f"sdf_reads[{sequential}-{seed}]", sdf_signature(sim, sdf))


@pytest.mark.parametrize("seed", [0, 7])
def test_sdf_writes_byte_identical(seed):
    sim = Simulator()
    sdf = small_sdf(sim)
    drive_sdf_writes(
        sim,
        sdf,
        duration_ns=40 * MS,
        channels=range(N_CHANNELS),
        warmup_ns=0,
    )
    check_golden(f"sdf_writes[{seed}]", sdf_signature(sim, sdf))


def test_sdf_mixed_ops_byte_identical():
    """Reads, writes and erases interleaved on overlapping channels."""
    sim = Simulator()
    sdf = small_sdf(sim, n_channels=2)
    sdf.prefill(0.5)

    def reader(dev):
        for _ in range(8):
            yield from dev.read(0, 0, n_pages=32)

    def writer(dev, block):
        for _ in range(2):
            yield from dev.write_fresh(block)

    procs = [
        sim.process(reader(sdf.channels[0])),
        sim.process(writer(sdf.channels[0],
                           sdf.channels[0].n_logical_blocks - 1)),
        sim.process(reader(sdf.channels[1])),
        sim.process(writer(sdf.channels[1], 0)),
    ]
    sim.run(until=sim.all_of(procs))
    check_golden("sdf_mixed_ops", sdf_signature(sim, sdf))


@pytest.mark.parametrize("seed", [3, 4])
def test_stall_faults_stay_fast_and_match(seed):
    """Channel STALL faults defer an op's reservations by the stall; the
    schedule and the fault log must match the recorded ones."""
    sim = Simulator()
    sdf = small_sdf(sim)
    plan = FaultPlan(seed=seed)
    for channel in range(N_CHANNELS):
        plan.add(f"ch{channel}", "stall", rate=0.05, delay_ns=1_000_000)
    plan.bind_clock(sim)
    for engine in sdf.engines:
        engine.faults = plan.injector(f"ch{engine.channel}")
    sequential_reads(sim, sdf, duration_ns=20 * MS)
    faults = tuple(plan.signatures())
    assert faults  # the plan actually fired
    check_golden(f"stall_faults[{seed}]", (sdf_signature(sim, sdf), faults))


def test_full_fault_plan_forces_link_fallback_and_matches():
    """Link DELAY faults (which used to force the process-per-transfer
    link path) defer the lane reservation by the delay; schedule and
    fault log must match the recorded ones."""
    sim = Simulator()
    sdf = small_sdf(sim)
    plan = FaultPlan(seed=5)
    plan.add("link", "delay", rate=0.1, delay_ns=50_000)
    plan.attach(sdf)
    sequential_reads(sim, sdf)
    faults = tuple(plan.signatures())
    assert faults
    check_golden("link_delay_plan", (sdf_signature(sim, sdf), faults))


@pytest.mark.parametrize("direction", ["read", "write"])
def test_link_drop_fails_the_request_once_and_matches(direction):
    """A dropped page DMA fails its request at the submission instant of
    that DMA; the issuer sees one ``LinkDropError`` and carries on while
    the request's other pages keep their reservations."""
    sim = Simulator()
    sdf = small_sdf(sim)
    plan = FaultPlan(seed=9)
    # Spaced so that no request loses two pages (the old AllOf-based
    # request path crashed the simulation on the second failed worker).
    for at_op in (5, 150, 700) if direction == "read" else (5, 5000, 11000):
        plan.add("link", "drop", at_op=at_op)
    plan.attach(sdf)
    if direction == "read":
        sdf.prefill(1.0)
    dropped = []

    def issuer(dev):
        for block in range(6):
            try:
                if direction == "read":
                    yield from dev.read(block, 0, n_pages=32)
                else:
                    yield from dev.write_fresh(block)
            except LinkDropError:
                dropped.append((dev.channel, block, sim.now))

    procs = [sim.process(issuer(dev)) for dev in sdf.channels]
    sim.run(until=sim.all_of(procs))
    sim.run()  # the failed requests' surviving pages drain
    assert len(dropped) == 3
    check_golden(
        f"link_drop[{direction}]",
        (sdf_signature(sim, sdf), tuple(dropped), tuple(plan.signatures())),
    )


def test_multi_chunk_transfer_races_page_dmas():
    """A host transfer larger than one link chunk re-queues for the lane
    per chunk, interleaving FIFO with the page DMAs of running reads."""
    sim = Simulator()
    sdf = small_sdf(sim)
    plan = FaultPlan(seed=2)
    # Never fires; at the recording commit an active link rule kept the
    # timeline mode's page DMAs on the same lane model as a bulk DMA.
    plan.add("link", "delay", rate=1e-12, delay_ns=1)
    plan.attach(sdf)
    finished = []

    def bulk(direction, nbytes, start_ns):
        yield sim.timeout(start_ns)
        for _ in range(3):
            done = Event(sim)
            sdf.link.reserve_call(direction, nbytes, done.succeed)
            yield done
            link = sdf.link
            meter = link.read_meter if direction == "read" else link.write_meter
            meter.record(sim.now, nbytes)
            finished.append((direction, nbytes, sim.now))

    sim.process(bulk("read", 1 * MIB + 4096, 137_000))
    sim.process(bulk("read", 300 * 1024, 1_000_001))
    sim.process(bulk("write", 2 * MIB, 0))
    sequential_reads(sim, sdf, duration_ns=10 * MS)
    sim.run()
    assert len(finished) == 9
    check_golden(
        "multi_chunk_race", (sdf_signature(sim, sdf), tuple(finished))
    )


@pytest.mark.parametrize("max_inflight", [1, 2, 8])
def test_qos_plan_stays_fast_and_matches(max_inflight):
    """QoS admission slots are reservation-path slot counts; the
    schedule plus every throttle counter must match the recorded ones."""
    sim = Simulator()
    sdf = small_sdf(sim)
    plan = QosPlan(channel=ChannelQosConfig(max_inflight_ops=max_inflight))
    plan.attach(sdf)
    sequential_reads(sim, sdf)
    qos_counters = tuple(
        (engine.qos.throttled.value, engine.qos.throttle_wait_ns.value)
        for engine in sdf.engines
    )
    if max_inflight == 1:
        # The bound actually bit, or the counters prove nothing.
        assert any(throttled for throttled, _ in qos_counters)
    check_golden(
        f"qos_plan[{max_inflight}]", (sdf_signature(sim, sdf), qos_counters)
    )


def span_signature(obs):
    return tuple(
        (s.track, s.name, s.start_ns, s.end_ns, tuple(sorted(s.args.items())))
        for s in obs.trace.spans
    )


def test_tracing_stays_fast_and_matches():
    """Spans are emitted from reservation intervals and must match the
    recorded ones -- same tracks, same instants, same wait args.  An op
    reserved ahead emits its phases' spans at its end, so emission
    order carries no meaning: the spans are compared as a sorted
    multiset (recorded from the per-phase hops, which a trace no longer
    forces)."""
    sim = Simulator()
    sdf = small_sdf(sim)
    obs = Observability(trace=True)
    attach_device(obs, sdf)
    sequential_reads(sim, sdf)
    spans = tuple(sorted(span_signature(obs)))
    assert spans  # tracing actually recorded something
    check_golden(
        "tracing",
        (sdf_signature(sim, sdf), spans, obs.metrics.snapshot()),
    )


def ops_soup(geometry, n, kinds):
    planes = geometry.planes_per_chip
    ops = []
    for index in range(n):
        address = PhysicalAddress(0, index % 2, index % planes, 0, index % 8)
        kind = kinds[index % 3]
        nbytes = geometry.page_size if kind is not OpKind.ERASE else 0
        ops.append(FlashOp(kind, address, nbytes))
    return ops


def test_quiet_link_fault_plan_stays_fast():
    """A fault plan with no link rules (the fleet-day shape: node
    crashes only) makes no link RNG draw and injects nothing."""
    sim = Simulator()
    sdf = small_sdf(sim)
    plan = FaultPlan(seed=11)
    plan.add("nand", "read_uncorrectable", rate=1e-9)
    plan.attach(sdf)
    sequential_reads(sim, sdf)
    check_golden("quiet_link_plan", sdf_signature(sim, sdf))


def test_qos_tracing_and_faults_combined_match():
    """The fleet-day configuration in miniature: QoS + tracing + a
    quiet-link fault plan with channel stalls."""
    sim = Simulator()
    sdf = small_sdf(sim)
    obs = Observability(trace=True)
    attach_device(obs, sdf)
    qos = QosPlan(channel=ChannelQosConfig(max_inflight_ops=4))
    qos.attach(sdf)
    plan = FaultPlan(seed=13)
    for channel in range(N_CHANNELS):
        plan.add(f"ch{channel}", "stall", rate=0.05, delay_ns=500_000)
    plan.attach(sdf)
    sequential_reads(sim, sdf)
    faults = tuple(plan.signatures())
    assert faults  # stalls actually fired
    check_golden(
        "qos_tracing_faults",
        (
            sdf_signature(sim, sdf),
            span_signature(obs),
            faults,
            obs.metrics.snapshot(),
        ),
    )


def test_metrics_only_observability_matches():
    """Metrics-only observability (no tracing): queue-depth/utilization
    series must match the recorded ones."""
    sim = Simulator()
    sdf = small_sdf(sim)
    obs = Observability()
    attach_device(obs, sdf)
    sequential_reads(sim, sdf)
    check_golden(
        "metrics_only", (sdf_signature(sim, sdf), obs.metrics.snapshot())
    )


def conventional_signature(sim, device):
    end = sim.now
    return {
        "end": end,
        "link_read": tuple(device.link.read_meter.samples),
        "link_write": tuple(device.link.write_meter.samples),
        "flush": tuple(device.flush_meter.samples),
        "engines": tuple(
            (
                engine.ops_executed.value,
                engine.wait_ns.value,
                engine.busy_value(end),
            )
            for engine in device.engines
        ),
        "read_latency": tuple(device.stats.read_latency.samples),
        "write_latency": tuple(device.stats.write_latency.samples),
    }


@pytest.mark.parametrize("seed", [0, 1])
def test_conventional_reads_byte_identical(seed):
    sim = Simulator()
    device = build_device("conventional", sim, capacity_scale=0.01)
    device.prefill(0.2)
    drive_conventional_reads(
        sim,
        device,
        request_bytes=64 * 1024,
        duration_ns=10 * MS,
        queue_depth=8,
        rng=np.random.default_rng(seed),
    )
    check_golden(
        f"conventional_reads[{seed}]", conventional_signature(sim, device)
    )


def test_conventional_writes_byte_identical():
    sim = Simulator()
    device = build_device("conventional", sim, capacity_scale=0.01)
    drive_conventional_writes(
        sim,
        device,
        request_bytes=128 * 1024,
        duration_ns=10 * MS,
        queue_depth=8,
    )
    check_golden("conventional_writes", conventional_signature(sim, device))


def test_conventional_gc_writes_with_blocking_buffer_byte_identical():
    """The ``conv_gc_write`` regime: a full, GC-primed 8-channel device
    whose DRAM buffer is smaller than one request, so submitters park
    on it and are released page by page as the flushers free space."""
    sim = Simulator()
    spec = replace(
        HUAWEI_GEN3_SPEC,
        n_channels=8,
        dram_buffer_bytes=MIB // 2,
        parity_group_size=None,
    )
    device = build_device("conventional", sim, spec=spec, capacity_scale=0.006)
    device.prefill(1.0)
    rng = np.random.default_rng(11)
    ftl = device.ftl
    while max(
        ftl.free_blocks(channel) for channel in range(spec.n_channels)
    ) > ftl.gc_free_blocks:
        ftl.write(int(rng.integers(device.user_pages)), None)
    gc_runs_before = ftl.gc_runs
    pages = MIB // device.page_size
    peak_level = [0]

    def submitter(starts):
        for start in starts:
            yield from device.write(start, pages)
            peak_level[0] = max(peak_level[0], device.buffer_level)

    submitters = [
        sim.process(
            submitter(
                [int(rng.integers(device.user_pages - pages)) for _ in range(6)]
            )
        )
        for _ in range(2)
    ]
    sim.run(until=sim.all_of(submitters))
    sim.run(until=sim.process(device.drain()))
    assert peak_level[0] == spec.dram_buffer_bytes  # submitters did block
    assert ftl.gc_runs > gc_runs_before
    assert device.buffer_level == 0
    check_golden(
        "conventional_gc_writes_blocking_buffer",
        conventional_signature(sim, device),
    )


def test_conventional_unbuffered_parity_writes_byte_identical():
    """No DRAM buffer: each page's program (plus the parity program it
    triggers on another channel) completes before the next page's DMA."""
    sim = Simulator()
    spec = replace(
        HUAWEI_GEN3_SPEC,
        n_channels=8,
        dram_buffer_bytes=0,
        parity_group_size=4,
    )
    device = build_device("conventional", sim, spec=spec, capacity_scale=0.006)
    device.prefill(0.5)
    drive_conventional_writes(
        sim,
        device,
        request_bytes=64 * 1024,
        duration_ns=10 * MS,
        queue_depth=4,
        sequential=False,
    )
    assert device.ftl.parity_programs > 0
    check_golden(
        "conventional_unbuffered_parity_writes",
        conventional_signature(sim, device),
    )


def test_mqftl_concurrent_streams_byte_identical():
    """Per-channel controller queues under concurrency: reads and
    buffered writes at queue depth 8 on the ``mqftl`` backend."""
    sim = Simulator()
    device = build_device("mqftl", sim, capacity_scale=0.01)
    device.prefill(0.2)
    drive_conventional_reads(
        sim,
        device,
        request_bytes=64 * 1024,
        duration_ns=5 * MS,
        queue_depth=8,
        rng=np.random.default_rng(2),
    )
    drive_conventional_writes(
        sim,
        device,
        request_bytes=128 * 1024,
        duration_ns=5 * MS,
        queue_depth=8,
    )
    check_golden("mqftl_concurrent_streams", conventional_signature(sim, device))


#: Mixed read/write request streams whose recorded schedule hangs on a
#: same-instant tie for the host-link lane (found by differential
#: fuzzing against the process-per-page request path):
#: kind, base spec, channels, parity group, buffer pages, prefill, workers.
TIE_SCENARIOS = {
    "sata_shared_lane": ("conventional", INTEL_320_SPEC, 10, None, 16, 0.8, 2),
    "mqftl_two_writers": ("mqftl", HUAWEI_GEN3_SPEC, 2, 2, 64, 0.3, 2),
}


@pytest.mark.parametrize("name", sorted(TIE_SCENARIOS))
def test_conventional_family_link_lane_ties_byte_identical(name):
    """A write's next-page DMA and another request's first-page DMA (or,
    on a half-duplex link, a read page's) can ask for the lane at the
    same nanosecond; the order the old request processes gave them is
    part of the recorded schedule."""
    kind, base, n_channels, parity, buffer_pages, fill, n_workers = (
        TIE_SCENARIOS[name]
    )
    spec = replace(
        base,
        n_channels=n_channels,
        parity_group_size=parity,
        dram_buffer_bytes=buffer_pages * base.geometry.page_size,
    )
    sim = Simulator()
    device = build_device(kind, sim, spec=spec, capacity_scale=0.004)
    device.prefill(fill)
    span = device.user_pages - 64

    def worker(seed):
        rng = np.random.default_rng(seed)
        n_pages = int(rng.choice([1, 2, 8, 16]))
        for _ in range(12):
            lpn = int(rng.integers(span))
            if rng.random() < 0.5:
                yield from device.read(lpn, n_pages)
            else:
                yield from device.write(lpn, n_pages)

    # Seeds at which these streams do hit the tie (the digest changes
    # if the next-page DMA is requested without its hop).
    workers = [sim.process(worker(10 + index)) for index in range(n_workers)]
    sim.run(until=sim.all_of(workers))
    sim.run(until=sim.process(device.drain()))
    check_golden(
        f"conventional_link_lane_ties[{name}]",
        conventional_signature(sim, device),
    )


def test_conventional_unmapped_and_mapped_pages_share_the_read_lane():
    """Table 4's 8 KiB column: 32 outstanding single-page reads over a
    device that is 20 % unmapped.  An unmapped page has no flash work,
    so its DMA is requested the instant its controller cost ends --
    ahead of a mapped page whose flash read completes at that instant."""
    sim = Simulator()
    device = build_device("conventional", sim, capacity_scale=0.002)
    device.prefill(0.8)
    drive_conventional_reads(
        sim,
        device,
        request_bytes=8 * 1024,
        duration_ns=10 * MS,
        queue_depth=32,
        rng=np.random.default_rng(2),
    )
    check_golden(
        "conventional_reads_unmapped_ties", conventional_signature(sim, device)
    )


def test_execute_batch_matches_execute_all():
    """The batched completion event must finish at the same instant,
    with the same counters, as one process per op (the reference
    module's ``execute_all``) -- and both at the recorded schedule."""
    geometry = SDF_CHIP_GEOMETRY.scaled(0.01)
    kinds = (OpKind.READ, OpKind.PROGRAM, OpKind.ERASE)

    def run(execute):
        sim = Simulator()
        engine = build_engines(sim, 1, geometry, MICRON_25NM_MLC, 2)[0]
        done = {}

        def scenario():
            yield from execute(engine, ops_soup(geometry, 24, kinds))
            done["at"] = sim.now

        sim.run(until=sim.process(scenario()))
        return (
            done["at"],
            engine.ops_executed.value,
            engine.wait_ns.value,
            engine.busy_value(sim.now),
        )

    batched = run(execute_batch)
    assert batched == run(execute_all)
    check_golden("execute_batch", batched)
