"""Overload sweep: offered load vs goodput with and without admission.

The paper serves "heavy traffic from millions of users" where read tail
latency is the contract (S2.4 prioritises on-demand reads precisely to
protect it).  This sweep drives one slice with an *open-loop* read
arrival process at multiples of its saturation rate and measures

* **goodput** -- requests completed within their deadline, and
* **read p99** -- tail latency over every request that completed,

once with the QoS plane's admission control attached (bounded inflight
reads + deadline shedding) and once without any protection.

Expected shape: without admission, offered load past saturation only
grows the slice queue -- every request eventually completes, but none
within its deadline, so goodput collapses toward zero and p99 grows
with the run length.  With admission, excess arrivals are shed on
arrival, the queue stays short enough that admitted requests finish in
time, and goodput plateaus at the service capacity.
"""

from __future__ import annotations

import os

import numpy as np

from _bench_common import build_server, emit, preload_keys, run_once

from repro.faults.errors import TransientFault
from repro.qos import AdmissionConfig, QosPlan
from repro.sim import AllOf, Simulator
from repro.sim.units import MS

VALUE_BYTES = 64 * 1024
DEADLINE_NS = 10 * MS
#: Offered load as multiples of the slice's measured saturation rate.
MULTIPLIERS = (0.5, 1.0, 2.0, 3.0)
#: CI smoke runs shrink the sweep via this env var.
N_REQUESTS = int(os.environ.get("OVERLOAD_SWEEP_REQUESTS", "400"))


def _build():
    sim = Simulator()
    server = build_server(sim, "sdf", 1, capacity_scale=0.02, n_channels=8)
    keys = preload_keys(server, 512, VALUE_BYTES)[0]
    return sim, server, keys


def calibrate_capacity_rps(n_workers: int = 16, per_worker: int = 25) -> float:
    """Measured closed-loop read capacity of one slice, in requests/s.

    The offered-load multipliers key off this rather than an analytic
    service time: the bottleneck mixes the serialised slice CPU with
    device reads whose channel spread depends on where compaction left
    the values, so measuring is the only honest baseline.
    """
    sim, server, keys = _build()
    rng = np.random.default_rng(17)

    def worker():
        for _ in range(per_worker):
            key = keys[int(rng.integers(0, len(keys)))]
            yield from server.handle_get(key)

    start = sim.now
    procs = [sim.process(worker()) for _ in range(n_workers)]
    sim.run(until=AllOf(sim, procs))
    return n_workers * per_worker / ((sim.now - start) / 1e9)


def run_at_rate(
    capacity_rps: float,
    multiplier: float,
    admission: bool,
    n_requests: int,
):
    """One fresh system driven open-loop at ``multiplier`` x saturation.

    Returns ``(offered_rps, goodput_rps, shed, p99_ms)``.
    """
    sim, server, keys = _build()
    # Bound inflight reads so everything admitted can finish within the
    # deadline: by Little's law the residence time at capacity is
    # inflight / capacity, held to ~45% of the deadline so that queue
    # wait plus one full service time still lands inside it.
    max_reads = max(4, int(capacity_rps * 0.45 * DEADLINE_NS / 1e9))
    if admission:
        plan = QosPlan(admission=AdmissionConfig(max_reads=max_reads))
        plan.attach(server, "node")
    interarrival_ns = max(1, int(1e9 / (capacity_rps * multiplier)))
    rng = np.random.default_rng(23)

    outcomes = {"good": 0, "late": 0, "shed": 0}
    latencies = []

    def one_request(key, deadline):
        start = sim.now
        try:
            yield from server.handle_get(
                key, deadline_ns=deadline if admission else None
            )
        except TransientFault:  # shed on arrival or while queued
            outcomes["shed"] += 1
            return
        latencies.append(sim.now - start)
        if sim.now <= deadline:
            outcomes["good"] += 1
        else:
            outcomes["late"] += 1

    def arrivals():
        for _ in range(n_requests):
            key = keys[int(rng.integers(0, len(keys)))]
            sim.process(one_request(key, sim.now + DEADLINE_NS))
            yield sim.timeout(interarrival_ns)

    sim.process(arrivals())
    start_ns = sim.now
    sim.run()
    assert sum(outcomes.values()) == n_requests, "stranded requests"
    elapsed_s = (sim.now - start_ns) / 1e9
    offered_rps = n_requests / (n_requests * interarrival_ns / 1e9)
    goodput_rps = outcomes["good"] / elapsed_s if elapsed_s > 0 else 0.0
    p99_ms = (
        float(np.percentile(latencies, 99)) / 1e6 if latencies else float("inf")
    )
    return offered_rps, goodput_rps, outcomes["shed"], p99_ms


def sweep(n_requests: int):
    capacity_rps = calibrate_capacity_rps()
    results = {"capacity_rps": capacity_rps}
    for admission in (True, False):
        for multiplier in MULTIPLIERS:
            results[(admission, multiplier)] = run_at_rate(
                capacity_rps, multiplier, admission, n_requests
            )
    return results


def test_overload_graceful_degradation(benchmark):
    results = run_once(benchmark, lambda: sweep(N_REQUESTS))

    rows = []
    for admission in (True, False):
        for multiplier in MULTIPLIERS:
            offered, goodput, shed, p99 = results[(admission, multiplier)]
            rows.append([
                "on" if admission else "off",
                f"{multiplier:.1f}x",
                f"{offered:.0f}",
                f"{goodput:.0f}",
                shed,
                f"{p99:.2f}",
            ])
    emit(
        benchmark,
        "Overload sweep: offered load vs goodput (single slice, "
        f"{VALUE_BYTES // 1024} KB reads, {DEADLINE_NS / 1e6:.0f} ms deadline)",
        ["admission", "offered", "offered rps", "goodput rps", "shed",
         "p99 ms"],
        rows,
        n_requests=N_REQUESTS,
        deadline_ms=DEADLINE_NS / 1e6,
        capacity_rps=results["capacity_rps"],
    )

    on = {m: results[(True, m)] for m in MULTIPLIERS}
    off = {m: results[(False, m)] for m in MULTIPLIERS}

    # With admission: goodput plateaus -- at >= 2x saturation it stays
    # within 10% of its peak, and the read tail stays within the
    # deadline (admitted requests were chosen to be able to finish).
    peak_on = max(goodput for _, goodput, _, _ in on.values())
    for multiplier in (2.0, 3.0):
        _, goodput, shed, p99 = on[multiplier]
        assert goodput >= 0.9 * peak_on, (
            f"admission-on goodput collapsed at {multiplier}x: "
            f"{goodput:.0f} rps vs peak {peak_on:.0f}"
        )
        assert p99 <= DEADLINE_NS / 1e6, (
            f"admission-on p99 unbounded at {multiplier}x: {p99:.2f} ms"
        )
        assert shed > 0, f"no shedding at {multiplier}x saturation?"

    # Without admission: past saturation the queue grows without bound,
    # within-deadline completions collapse and the tail explodes.
    peak_off = max(goodput for _, goodput, _, _ in off.values())
    _, goodput_3x, _, p99_3x = off[3.0]
    assert goodput_3x < 0.5 * peak_off, (
        f"admission-off goodput did not collapse at 3x: "
        f"{goodput_3x:.0f} rps vs peak {peak_off:.0f}"
    )
    assert p99_3x > 2 * DEADLINE_NS / 1e6, (
        f"admission-off tail did not grow at 3x: {p99_3x:.2f} ms"
    )
