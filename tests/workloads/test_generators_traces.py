"""Tests for the device drivers."""

import numpy as np
import pytest

from repro.devices import build_device, HUAWEI_GEN3_SPEC
from repro.sim import MS, Simulator
from repro.workloads import (
    drive_conventional_reads,
    drive_sdf_reads,
    drive_sdf_writes,
)


def test_sdf_read_driver_reports_per_channel_bandwidth():
    sim = Simulator()
    sdf = build_device("sdf", sim, capacity_scale=0.004, n_channels=2)
    sdf.prefill(1.0)
    mb_s = drive_sdf_reads(
        sim, sdf, request_bytes=8192, duration_ns=100 * MS,
        rng=np.random.default_rng(0),
    )
    # Two channels of ~28 MB/s each (the Table 4 arithmetic).
    assert mb_s == pytest.approx(2 * 28.0, rel=0.15)


def test_sdf_read_driver_requires_prefill():
    sim = Simulator()
    sdf = build_device("sdf", sim, capacity_scale=0.004, n_channels=1)
    with pytest.raises(RuntimeError, match="prefill"):
        drive_sdf_reads(sim, sdf, 8192, duration_ns=10 * MS)


def test_sdf_write_driver_cycles_blocks():
    sim = Simulator()
    sdf = build_device("sdf", sim, capacity_scale=0.004, n_channels=1)
    mb_s = drive_sdf_writes(sim, sdf, duration_ns=800 * MS)
    assert mb_s == pytest.approx(22.0, rel=0.15)  # erase+write ~ 22 MB/s


def test_conventional_read_driver():
    sim = Simulator()
    device = build_device("conventional", sim, spec=HUAWEI_GEN3_SPEC, capacity_scale=0.004)
    device.prefill(0.5)
    mb_s = drive_conventional_reads(
        sim, device, request_bytes=64 * 1024, duration_ns=50 * MS,
        queue_depth=16,
    )
    assert 800 < mb_s < 1400  # near the 1.15-1.2 GB/s envelope
