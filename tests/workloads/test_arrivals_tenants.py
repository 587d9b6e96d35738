"""Unit tests for arrival schedules and tenant declarations."""

from collections import Counter

import numpy as np
import pytest

from repro.sim.units import MS
from repro.workloads import (
    DiurnalWave,
    OpenLoopArrivals,
    OpMix,
    RateSchedule,
    SizeDistribution,
    SloSpec,
    Spike,
    TenantSpec,
    UniformKeyModel,
    YCSB_A,
    YCSB_B,
    YCSB_C,
    YCSB_E,
)

SECOND = 1_000_000_000


# --- rate schedules --------------------------------------------------------


def test_diurnal_wave_swings_around_base():
    wave = DiurnalWave(amplitude=0.5, period_ns=SECOND)
    assert wave.multiplier(0) == pytest.approx(1.0)
    assert wave.multiplier(SECOND // 4) == pytest.approx(1.5)
    assert wave.multiplier(3 * SECOND // 4) == pytest.approx(0.5)


def test_spike_window():
    spike = Spike(at_ns=100, duration_ns=50, multiplier=4.0)
    assert not spike.active(99)
    assert spike.active(100) and spike.active(149)
    assert not spike.active(150)


def test_rate_at_composes_wave_and_spike():
    schedule = RateSchedule(
        base_rps=100.0,
        wave=DiurnalWave(amplitude=0.5, period_ns=SECOND),
        spikes=(Spike(at_ns=0, duration_ns=SECOND, multiplier=2.0),),
    )
    assert schedule.rate_at(SECOND // 4) == pytest.approx(300.0)
    assert schedule.peak_rate() >= max(
        schedule.rate_at(t) for t in range(0, SECOND, SECOND // 50)
    )


def test_rate_schedule_validation():
    with pytest.raises(ValueError):
        RateSchedule(base_rps=0.0)
    with pytest.raises(ValueError):
        DiurnalWave(amplitude=1.5)
    with pytest.raises(ValueError):
        Spike(at_ns=-1, duration_ns=10)
    with pytest.raises(ValueError):
        Spike(at_ns=0, duration_ns=0)


# --- open-loop arrivals ----------------------------------------------------


def test_poisson_arrivals_are_ascending_and_bounded():
    schedule = RateSchedule(base_rps=500.0)
    arrivals = OpenLoopArrivals(schedule)
    times = list(arrivals.times(np.random.default_rng(1), 0, SECOND))
    assert times == sorted(times)
    assert all(0 <= t < SECOND for t in times)
    # ~500 expected; Poisson keeps it well within +-40%.
    assert 300 < len(times) < 700


def test_poisson_arrivals_deterministic_per_seed():
    schedule = RateSchedule(
        base_rps=200.0, wave=DiurnalWave(amplitude=0.3, period_ns=SECOND)
    )
    arrivals = OpenLoopArrivals(schedule)
    first = list(arrivals.times(np.random.default_rng(7), 0, SECOND))
    second = list(arrivals.times(np.random.default_rng(7), 0, SECOND))
    third = list(arrivals.times(np.random.default_rng(8), 0, SECOND))
    assert first == second
    assert first != third


def test_spike_visibly_raises_arrival_density():
    spike = Spike(
        at_ns=SECOND // 2, duration_ns=SECOND // 4, multiplier=5.0
    )
    schedule = RateSchedule(base_rps=200.0, spikes=(spike,))
    arrivals = OpenLoopArrivals(schedule)
    counts = Counter(
        t // (SECOND // 4)
        for t in arrivals.times(np.random.default_rng(3), 0, SECOND)
    )
    # Bucket 2 holds the flash crowd: ~5x the surrounding buckets.
    assert counts[2] > 2.5 * max(counts[0], counts[1])


def test_paced_arrivals_are_exact():
    schedule = RateSchedule(base_rps=1000.0)  # 1 ms apart
    arrivals = OpenLoopArrivals(schedule, poisson=False)
    times = list(arrivals.times(np.random.default_rng(0), 0, 10 * MS))
    assert times == [i * MS for i in range(10)]


def test_empty_window_yields_nothing():
    arrivals = OpenLoopArrivals(RateSchedule(base_rps=100.0))
    assert list(arrivals.times(np.random.default_rng(0), 50, 50)) == []


# --- op mixes and tenants --------------------------------------------------


def test_op_mix_normalises():
    mix = OpMix(read=2.0, write=1.0, scan=1.0)
    assert mix.read == pytest.approx(0.5)
    assert mix.write == pytest.approx(0.25)
    assert mix.scan == pytest.approx(0.25)
    assert mix.ratio("read") == mix.read


def test_op_mix_sample_ratios_within_tolerance():
    mix = OpMix(read=0.7, write=0.2, scan=0.1)
    rng = np.random.default_rng(11)
    draws = [mix.sample(rng) for _ in range(5_000)]
    for kind in ("read", "write", "scan"):
        fraction = draws.count(kind) / len(draws)
        assert abs(fraction - mix.ratio(kind)) < 0.03


def test_ycsb_presets():
    assert YCSB_A.read == pytest.approx(0.5)
    assert YCSB_B.read == pytest.approx(0.95)
    assert YCSB_C.read == pytest.approx(1.0)
    assert YCSB_E.scan == pytest.approx(0.95)


def test_op_mix_validation():
    with pytest.raises(ValueError):
        OpMix(read=0.0, write=0.0, scan=0.0)
    with pytest.raises(ValueError):
        OpMix(read=-1.0, write=2.0)
    with pytest.raises(ValueError):
        OpMix().ratio("delete")


def test_slo_and_tenant_validation():
    with pytest.raises(ValueError):
        SloSpec(deadline_ns=0)
    with pytest.raises(ValueError):
        SloSpec(target_p99_ns=0)
    with pytest.raises(ValueError):
        SloSpec(min_goodput_rps=0.0)
    good = dict(
        mix=YCSB_B,
        keys=UniformKeyModel(0, 100),
        sizes=SizeDistribution(fixed=1024),
        arrivals=RateSchedule(base_rps=10.0),
    )
    tenant = TenantSpec(name="web", **good)
    assert tenant.slo.deadline_ns > 0
    with pytest.raises(ValueError):
        TenantSpec(name="", **good)
    with pytest.raises(ValueError):
        TenantSpec(name="a.b", **good)
    with pytest.raises(ValueError):
        TenantSpec(name="a/b", **good)
    with pytest.raises(ValueError):
        TenantSpec(name="web", scan_span=0, **good)
