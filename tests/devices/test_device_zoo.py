"""The pluggable device zoo: one protocol, one factory, six backends.

Locks the API-redesign contract:

* every kind satisfies :class:`~repro.devices.DeviceModel`
  and reports the full ``DEVICE_METRIC_KEYS`` family;
* same seed -> byte-identical DeviceStats and obs counters, per kind;
* backend-specific semantics: DFTL's bounded map cache, the hybrid
  FTL's merges, the zoned state machine, MQ parallelism.
"""

import random

import pytest

from repro.devices import (
    DEVICE_METRIC_KEYS,
    HUAWEI_GEN3_SPEC,
    DeviceModel,
    ZoneStateError,
    build_device,
    device_kinds,
)
from repro.errors import ConfigError
from repro.obs import Observability
from repro.obs.attach import attach_device
from repro.sim import Simulator
from tests.channel.golden import check_golden
from tests.channel.reference_engine import per_phase

ALL_KINDS = ("conventional", "dftl", "hybrid", "mqftl", "sdf", "zoned")
SCALE = 0.01


def _stats_tuple(stats):
    """The byte-comparable projection of a DeviceStats."""
    return (
        len(stats.read_latency),
        len(stats.write_latency),
        len(stats.erase_latency),
        stats.read_meter.total_bytes,
        stats.write_meter.total_bytes,
        stats.requests.value,
    )


def small_device(kind, sim=None, **params):
    params.setdefault("capacity_scale", SCALE)
    if kind in ("sdf", "zoned"):
        params.setdefault("n_channels", 4)
    return build_device(kind, sim, **params)


# ---------------------------------------------------------------------------
# Kinds and protocol.
# ---------------------------------------------------------------------------


def test_registry_lists_all_six_kinds():
    assert device_kinds() == ALL_KINDS


def test_unknown_kind_raises_config_error_naming_known_kinds():
    with pytest.raises(ConfigError, match="sdf"):
        build_device("nvme-of", Simulator())


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_kind_satisfies_the_device_protocol(kind):
    device = small_device(kind)
    assert isinstance(device, DeviceModel)
    assert device.kind == kind
    assert device.page_size > 0
    assert 0 < device.user_bytes <= device.raw_bytes
    assert 0 < device.capacity_utilization <= 1.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_kind_reports_the_full_metric_family(kind):
    metrics = small_device(kind).device_metrics()
    assert set(metrics) == set(DEVICE_METRIC_KEYS)
    assert metrics["write_amplification"] >= 1.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_attach_registers_device_metrics_under_kind_prefix(kind):
    sim = Simulator()
    device = small_device(kind, sim)
    obs = Observability()
    attach_device(obs, device)
    names = set(obs.metrics.names())
    for key in DEVICE_METRIC_KEYS:
        assert f"device.{kind}.{key}" in names
    snap = obs.snapshot(sim.now)
    assert snap[f"device.{kind}.write_amplification"] == pytest.approx(1.0)


@pytest.mark.parametrize("kind", device_kinds())
def test_every_kind_takes_capacity_scale_and_n_channels(kind):
    """The one door: every kind's builder takes the same two sizing
    keys, and the rest of a kind's keys reach its device."""
    device = build_device(kind, Simulator(), capacity_scale=SCALE, n_channels=4)
    assert device.kind == kind
    assert device.array.n_channels == len(device.engines) == 4
    if kind == "dftl":
        dftl = build_device(kind, capacity_scale=SCALE, n_channels=4,
                            cmt_pages=8)
        assert dftl.ftl.cmt_pages == 8


@pytest.mark.parametrize("kind", ("conventional", "dftl", "hybrid", "mqftl"))
def test_conventional_family_defaults_to_gen3(kind):
    """With no spec the family builds the Huawei Gen3 (capacity-scaled),
    and at 4 channels its 11-channel parity group clamps to 4."""
    device = build_device(kind, capacity_scale=0.004)
    assert device.spec.name == HUAWEI_GEN3_SPEC.name
    assert device.spec.n_channels == HUAWEI_GEN3_SPEC.n_channels
    assert device.sim.now == 0
    narrow = build_device(kind, capacity_scale=SCALE, n_channels=4)
    assert narrow.spec.parity_group_size == 4


@pytest.mark.parametrize("kind", device_kinds())
def test_stale_spec_key_is_a_config_error_naming_the_vocabulary(kind):
    """A leftover key (here the retired scheduling ``mode``) fails at
    parse time with the offending key and the kind's accepted keys --
    not as a bare TypeError from deep inside a constructor."""
    with pytest.raises(ConfigError, match="does not accept 'mode'") as err:
        build_device(kind, mode="generator")
    assert "accepted keys: " in str(err.value)
    assert "capacity_scale" in str(err.value)
    # So does the retired channel-queue ``priorities`` knob.
    with pytest.raises(ConfigError, match="does not accept 'priorities'"):
        build_device(kind, priorities={})
    # Keys forwarded through ``**overrides`` to the device constructor
    # stay accepted.
    if kind in ("sdf", "zoned"):
        assert small_device(kind, reserve_fraction=0.02).kind == kind


# ---------------------------------------------------------------------------
# Determinism: same seed -> byte-identical stats and obs counters.
# ---------------------------------------------------------------------------


def run_cast(kind, seed, observed=True, pinned=False):
    """Drive the zoo's mixed cast on one small device of ``kind`` --
    ``pinned`` to its engines' per-phase hops or not; returns ``(sim,
    device, obs)``, the finished system still whole
    (``tests/sim/test_gc_hygiene.py`` collects over it)."""
    sim = Simulator()
    device = small_device(kind, sim)
    obs = Observability()
    if observed:
        attach_device(obs, device)
    if pinned:
        per_phase(*getattr(device, "engines", ()))
    rng = random.Random(seed)

    if kind in ("sdf", "zoned"):

        def drive():
            if kind == "zoned":
                for _ in range(8):
                    zone = rng.randrange(device.n_zones)
                    yield from device.reset_zone(zone)
                    yield from device.write_zone(zone)
                    yield from device.read_zone(zone, 0, 4)
            else:
                for _ in range(8):
                    channel = device.channels[rng.randrange(4)]
                    block = rng.randrange(4)
                    if channel.ftl.is_mapped(block):
                        yield from channel.erase(block)
                    yield from channel.write(block)
                    yield from channel.read(block, 0, 4)

    else:

        def drive():
            span = device.user_pages // 2
            for _ in range(64):
                yield from device.write(rng.randrange(span), 1)
            for _ in range(32):
                yield from device.read(rng.randrange(span), 1)
            yield from device.drain()

    sim.run(until=sim.process(drive()))
    return sim, device, obs


def _exercise(kind, seed):
    sim, device, obs = run_cast(kind, seed)
    snap = obs.snapshot(sim.now)
    scalar_counters = tuple(
        sorted((k, v) for k, v in snap.items() if not isinstance(v, dict))
    )
    return (
        (sim.now,)
        + _stats_tuple(device.stats)
        + (tuple(sorted(device.device_metrics().items())), scalar_counters)
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_same_seed_runs_are_byte_identical(kind):
    assert _exercise(kind, seed=3) == _exercise(kind, seed=3)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_generator_and_timeline_modes_agree(kind):
    """Every kind must still tell the story recorded for it (see
    ``tests/channel/golden.py``): ``sdf``/``zoned`` at the commit where
    both schedulers agreed, the conventional family at the last commit
    whose request level was simulator processes."""
    check_golden(f"device_zoo[{kind}]", _exercise(kind, seed=5))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_empty_config_does_not_drift(kind):
    """Building + attaching obs with zero I/O must leave every counter
    at zero -- construction itself must not fabricate traffic."""
    sim = Simulator()
    device = small_device(kind, sim)
    obs = Observability()
    attach_device(obs, device)
    sim.run()
    assert sim.now == 0
    stats = device.stats
    assert stats.requests.value == 0
    assert _stats_tuple(stats) == (0, 0, 0, 0, 0, 0)
    metrics = device.device_metrics()
    assert metrics["host_programs"] == 0
    assert metrics["gc_programs"] == 0
    assert metrics["erases"] == 0
    assert metrics["write_amplification"] == 1.0
    assert metrics["map_cache_hit_rate"] == 1.0


# ---------------------------------------------------------------------------
# Backend semantics.
# ---------------------------------------------------------------------------


def test_dftl_cache_misses_cost_translation_reads():
    sim = Simulator()
    device = small_device("dftl", sim, cmt_pages=2)
    rng = random.Random(0)

    def drive():
        for _ in range(200):
            yield from device.write(rng.randrange(device.user_pages), 1)
        yield from device.drain()

    sim.run(until=sim.process(drive()))
    m = device.device_metrics()
    assert m["map_cache_misses"] > 0
    assert m["map_cache_hit_rate"] < 1.0
    # Translation traffic folds into WA: misses imply WA > 1 even
    # before GC kicks in.
    assert m["write_amplification"] > 1.0
    assert device.ftl.translation_reads == m["map_cache_misses"]


def test_dftl_hot_working_set_hits_the_cache():
    sim = Simulator()
    device = small_device("dftl", sim, cmt_pages=64)

    def drive():
        for rep in range(4):
            for lpn in range(64):  # one translation page's span
                yield from device.write(lpn, 1)
        yield from device.drain()

    sim.run(until=sim.process(drive()))
    m = device.device_metrics()
    assert m["map_cache_hit_rate"] > 0.99
    assert m["map_cache_misses"] == 1  # the single cold fill


def test_hybrid_updates_flow_through_log_blocks_and_merge():
    from dataclasses import replace

    spec = replace(HUAWEI_GEN3_SPEC, n_channels=2, parity_group_size=2)
    sim = Simulator()
    device = build_device(
        "hybrid", sim, spec=spec, capacity_scale=0.002,
        store_data=True, log_blocks_per_channel=2,
    )
    ppb = device.array.geometry.pages_per_block
    span = 4 * ppb
    expected = {}
    rng = random.Random(7)

    def drive():
        for lpn in range(span):
            expected[lpn] = ("v0", lpn)
            yield from device.write(lpn, 1, data=expected[lpn])
        for i in range(3 * span):
            lpn = rng.randrange(span)
            expected[lpn] = ("v", i)
            yield from device.write(lpn, 1, data=expected[lpn])
        yield from device.drain()

    sim.run(until=sim.process(drive()))
    ftl = device.ftl
    assert ftl.merges > 0
    assert ftl.write_amplification > 1.0
    # Merge cost shows up in the uniform metric family.
    m = device.device_metrics()
    assert m["merges"] == ftl.merges
    assert m["gc_programs"] == ftl.merge_programs
    # Data survives the merges.
    for lpn, want in expected.items():
        got, _ = ftl.read(lpn)
        assert got == want


def test_hybrid_sequential_streams_switch_merge_cheaply():
    from dataclasses import replace

    spec = replace(HUAWEI_GEN3_SPEC, n_channels=2, parity_group_size=2)
    sim = Simulator()
    device = build_device(
        "hybrid", sim, spec=spec, capacity_scale=0.002,
        log_blocks_per_channel=1,
    )
    span = 4 * device.array.geometry.pages_per_block

    def drive():
        for rep in range(2):
            for lpn in range(span):
                yield from device.write(lpn, 1)
        yield from device.drain()

    sim.run(until=sim.process(drive()))
    ftl = device.ftl
    assert ftl.switch_merges > 0
    assert ftl.full_merges == 0  # sequential never pays the full merge
    assert ftl.write_amplification == pytest.approx(1.0)


def test_zoned_state_machine_enforces_reset_before_rewrite():
    sim = Simulator()
    device = small_device("zoned", sim)

    def drive():
        yield from device.write_zone(1)
        assert device.zone_is_full(1)
        with pytest.raises(ZoneStateError):
            yield from device.write_zone(1)
        yield from device.reset_zone(1)
        assert not device.zone_is_full(1)
        yield from device.write_zone(1)
        payload = yield from device.read_zone(1, 0, 1)
        assert len(payload) == 1

    sim.run(until=sim.process(drive()))
    assert device.zone_resets == 1
    assert device.device_metrics()["write_amplification"] == 1.0


def test_zoned_device_has_no_device_side_gc():
    """The defining property: device metrics can never show GC."""
    sim = Simulator()
    device = small_device("zoned", sim)

    def drive():
        for zone in range(8):
            yield from device.write_zone(zone)
        for zone in range(8):
            yield from device.reset_zone(zone)
            yield from device.write_zone(zone)

    sim.run(until=sim.process(drive()))
    m = device.device_metrics()
    assert m["gc_programs"] == 0
    assert m["gc_runs"] == 0
    assert m["write_amplification"] == 1.0
    assert device.zone_resets == 8  # every erase was host-commanded
    assert m["erases"] > 0
    # A zone spans several physical blocks; resets account for them all.
    assert m["erases"] % device.zone_resets == 0


def test_mqftl_parallel_streams_beat_the_single_controller():
    """Four LPN streams on four different channels: the per-channel
    queues overlap controller work the shared controller serializes."""

    def run(kind):
        sim = Simulator()
        device = small_device(kind)
        sim = device.sim
        stripe = device.ftl.stripe_pages * device.spec.n_channels

        def stream(channel):
            # Consecutive writes within one channel's stripe column.
            for i in range(64):
                yield from device.write(channel + i * stripe, 1)

        for channel in range(4):
            sim.process(stream(channel))
        sim.run()
        return sim.now

    assert run("mqftl") < run("conventional")


def test_mqftl_single_stream_matches_baseline_ftl_state():
    """With no concurrency the MQ split changes timing only; the FTL
    underneath is the byte-identical page-mapped baseline."""
    results = {}
    for kind in ("mqftl", "conventional"):
        sim = Simulator()
        device = small_device(kind)
        sim = device.sim

        def drive():
            for lpn in range(128):
                yield from device.write(lpn, 1)
            yield from device.drain()

        sim.run(until=sim.process(drive()))
        ftl = device.ftl
        results[kind] = (ftl.user_programs, ftl.gc_programs, ftl.erases)
    assert results["mqftl"] == results["conventional"]
