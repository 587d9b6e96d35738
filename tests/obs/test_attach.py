"""End-to-end tests: observability attached to real systems.

These check the acceptance properties of the subsystem: snapshot keys
exist for every channel, utilisation is a true fraction, attachment
causes zero behavioural drift, and the exported trace is well-formed.
"""

import json

import numpy as np
import pytest

from repro import build_sdf_system
from repro.devices.sdf import SDFDevice
from repro.ecc.model import EccModel, ReadStatus
from repro.nand import SDF_CHIP_GEOMETRY
from repro.obs import Observability, attach_device
from repro.devices import build_device
from repro.sim import MIB, MS, Simulator
from repro.workloads.generators import drive_sdf_reads, drive_sdf_writes


def run_workload(obs=None, n_channels=4):
    system = build_sdf_system(capacity_scale=0.004, n_channels=n_channels)
    if obs is not None:
        obs.attach(system)
    ids = [system.put(b"payload-%d" % index) for index in range(2 * n_channels)]
    for block_id in ids[: n_channels]:
        system.get(block_id, 0, 4096)
    system.put(b"rewrite", block_id=ids[0])
    system.delete(ids[1])
    system.sim.run(until=system.sim.now + 50 * MS)
    return system


def test_snapshot_has_keys_for_every_channel():
    obs = Observability()
    system = run_workload(obs)
    snapshot = obs.snapshot(system.sim.now)
    for channel in range(system.device.n_channels):
        for key in (
            f"channel{channel}.utilization",
            f"channel{channel}.busy_ns",
            f"channel{channel}.wait_ns",
            f"channel{channel}.ops",
            f"ftl.ch{channel}.host_programs",
            f"ftl.ch{channel}.erases",
            f"wear.ch{channel}.spread",
            f"blk.ch{channel}.erase_backlog",
        ):
            assert key in snapshot, key


def test_utilization_is_a_fraction_and_wait_is_split_out():
    obs = Observability()
    system = run_workload(obs)
    snapshot = obs.snapshot(system.sim.now)
    for channel in range(system.device.n_channels):
        utilization = snapshot[f"channel{channel}.utilization"]
        assert 0.0 <= utilization <= 1.0
    # Channel 0 streamed multiple 8 MB blocks: it was busy, and its ops
    # queued (1024 pages contend for 4 planes), so wait accumulated
    # separately instead of inflating busy time.
    assert snapshot["channel0.utilization"] > 0.1
    assert snapshot["channel0.wait_ns"] > snapshot["channel0.busy_ns"]


def test_block_layer_counters_track_rewrites_and_frees():
    obs = Observability()
    system = run_workload(obs)
    snapshot = obs.snapshot(system.sim.now)
    assert snapshot["blk.writes"] == 9
    assert snapshot["blk.rewrites"] == 1
    assert snapshot["blk.frees"] == 2  # explicit delete + rewrite-free
    assert snapshot["blk.reads"] == 4
    assert snapshot["blk.background_erases"] == 2
    assert snapshot["blk.stored_blocks"] == system.block_layer.stored_blocks


def test_attachment_causes_no_behavioural_drift():
    plain = run_workload(None)
    traced = run_workload(Observability(trace=True))
    assert plain.sim.now == traced.sim.now
    assert (
        plain.device.stats.write_latency.samples
        == traced.device.stats.write_latency.samples
    )


def test_trace_round_trip_has_op_and_resource_spans(tmp_path):
    obs = Observability(trace=True)
    run_workload(obs)
    path = tmp_path / "run.trace.json"
    obs.trace.write(path)
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    tracks = {e["cat"] for e in spans}
    # Engine op spans, named-resource hold spans and block-layer spans.
    assert "ch0/ops" in tracks
    assert "ch0/bus" in tracks
    assert any(track.startswith("ch0/chip") for track in tracks)
    assert "blk/write" in tracks and "blk/read" in tracks
    names = {e["name"] for e in spans}
    assert {"read", "program", "erase", "hold", "write"} <= names
    # Every op span carries its queue wait, split from service time.
    op_spans = [e for e in spans if e["cat"] == "ch0/ops"]
    assert op_spans and all("wait_ns" in e["args"] for e in op_spans)


def test_metrics_only_attachment_records_no_spans():
    obs = Observability()  # tracing off by default
    run_workload(obs)
    assert len(obs.trace) == 0
    assert obs.trace.enabled is False


def drive(kind, observed):
    """``kind`` ("reads": 2 MiB sequential, "writes": 8 MiB blocks) on
    an 8-channel SDF; returns the MB/s, the events, and the snapshots
    at the end and at the horizon (None unobserved)."""
    sim = Simulator()
    sdf = build_device("sdf", sim, capacity_scale=0.004, n_channels=8)
    if kind == "reads":
        sdf.prefill(0.5)
    obs = Observability()
    if observed:
        attach_device(obs, sdf)
    if kind == "reads":
        mb_per_s = drive_sdf_reads(
            sim, sdf, 2 * MIB, 200 * MS, sequential=True, warmup_ns=20 * MS,
            rng=np.random.default_rng(0),
        )
    else:
        mb_per_s = drive_sdf_writes(sim, sdf, 400 * MS, warmup_ns=50 * MS)
    return mb_per_s, sim._seq, obs.snapshot(sim.now), obs.snapshot()


@pytest.mark.parametrize(
    "kind,events,depth,depth_at_horizon",
    [
        ("reads", 8_561, 127.2733259051381, 127.42421992283285),
        ("writes", 16_465, 11.274217454547593, 11.306801482288268),
    ],
)
def test_metrics_only_observation_leaves_the_schedule_alone(
    kind, events, depth, depth_at_horizon
):
    """Observed, the drive costs the events it costs plain, and the
    queue depth reads what it did when a probe put every op on the
    per-phase hops (24,721 and 49,233 events)."""
    mb_per_s, plain_events, _, _ = drive(kind, observed=False)
    observed = drive(kind, observed=True)
    assert (mb_per_s, plain_events) == observed[:2] == (observed[0], events)
    assert observed[2]["channel0.queue_depth"] == depth
    assert observed[3]["channel0.queue_depth"] == depth_at_horizon


@pytest.mark.parametrize("ran_before", [False, True])
def test_tracing_enabled_through_another_device_reaches_every_engine(ran_before):
    """Two devices on one simulator, tracing attached through ``a``:
    ``b``'s engine has no ``obs`` of its own and keeps reserving ahead,
    but its hold spans go to ``sim.obs`` -- from its next op, whether or
    not it ran ops while nothing was tracing."""
    sim = Simulator()
    geometry = SDF_CHIP_GEOMETRY.scaled(0.004)
    a, b = (SDFDevice(sim, n_channels=1, geometry=geometry) for _ in "ab")
    b.prefill()
    channel = b.channels[0]
    if ran_before:
        sim.run(until=sim.process(channel.read(0, 0, 2)))
    obs = Observability(trace=True)
    attach_device(obs, a)
    assert channel.engine.can_reserve_ahead()
    sim.run(until=sim.process(channel.read(0, 2, 2)))
    # Off the reservations: a sense and a bus hold for each of the two
    # pages.
    holds = [span.track for span in obs.trace.spans if span.name == "hold"]
    assert sorted(holds) == ["ch0/bus"] * 2 + ["ch0/chip0.plane0"] * 2


def test_server_attach_exposes_request_metrics():
    from repro.cluster import build_sdf_server
    from repro.kv.common import PlaceholderValue
    from repro.kv.slice import Slice, partition_key_space

    sim = Simulator()
    slices = [
        Slice(index, key_range)
        for index, key_range in enumerate(partition_key_space(2, 0, 1000))
    ]
    server = build_sdf_server(
        sim, slices, capacity_scale=0.004, n_channels=4
    )
    obs = Observability(trace=True)
    obs.attach(server)

    def workload():
        yield from server.handle_put(5, PlaceholderValue(1024))
        yield from server.handle_put(600, PlaceholderValue(2048))
        value = yield from server.handle_get(5)
        assert value is not None
        missing = yield from server.handle_get(7)
        assert missing is None

    sim.run(until=sim.process(workload()))
    snapshot = obs.snapshot(sim.now)
    assert snapshot["server.gets"] == 2
    assert snapshot["server.puts"] == 2
    assert snapshot["slice0.reads"] == 2
    assert snapshot["slice0.writes"] == 1
    assert snapshot["slice1.writes"] == 1
    assert snapshot["server.get_ns"]["count"] == 2
    assert snapshot["server.put_ns"]["count"] == 2
    get_spans = [s for s in obs.trace.spans if s.name == "get"]
    assert len(get_spans) == 2
    assert all("wait_ns" in span.args for span in get_spans)


def test_ecc_attach_exposes_read_outcome_counters():
    # Deterministic-optimistic model (rng=None): every read is CLEAN.
    obs = Observability()
    ecc = EccModel()
    obs.attach(ecc)
    for _ in range(5):
        assert ecc.read_outcome(8192, 1000) is ReadStatus.CLEAN
    snap = obs.snapshot()
    assert snap["ecc.reads_clean"] == 5
    assert snap["ecc.reads_corrected"] == 0
    assert snap["ecc.reads_uncorrectable"] == 0


def test_ecc_attach_counts_corrections_and_failures_at_high_wear():
    # A seeded RNG across two wear levels drives all three outcomes
    # (rated endurance: mostly corrected; 2x: uncorrectable); the pull
    # metrics must always agree with the model's own tallies.
    obs = Observability()
    ecc = EccModel(rng=np.random.default_rng(42))
    obs.attach(ecc)
    n = 400
    for index in range(n):
        ecc.read_outcome(8192, 3_000 if index % 2 == 0 else 6_000)
    snap = obs.snapshot()
    assert snap["ecc.reads_clean"] == ecc.clean_reads
    assert snap["ecc.reads_corrected"] == ecc.corrected_reads
    assert snap["ecc.reads_uncorrectable"] == ecc.uncorrectable_reads
    total = (
        snap["ecc.reads_clean"]
        + snap["ecc.reads_corrected"]
        + snap["ecc.reads_uncorrectable"]
    )
    assert total == n
    assert snap["ecc.reads_corrected"] > 0
    assert snap["ecc.reads_uncorrectable"] > 0


def test_ecc_attach_is_pull_only_no_hot_path_cost():
    # The model never calls into obs on a read -- attaching registers
    # callbacks over the plain attribute tallies, so an unattached model
    # has no obs coupling at all.
    ecc = EccModel()
    assert ecc.obs is None
    ecc.read_outcome(8192, 100)
    obs = Observability()
    obs.attach(ecc)
    assert ecc.obs is obs
    # Reads made *before* attachment are still visible (pull semantics).
    assert obs.snapshot()["ecc.reads_clean"] == 1
