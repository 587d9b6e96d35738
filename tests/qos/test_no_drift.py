"""No-drift regression for the QoS plane: attaching an *empty*
:class:`~repro.qos.QosPlan` must leave a run byte-identical to one with
no plan at all -- same simulated timeline, same metrics snapshot, same
Chrome trace JSON.  Mirrors ``tests/faults/test_no_drift.py``; this is
the contract that lets overload protection ride along in every build
unconfigured.
"""

import json

from repro.cluster import Network, Nic, build_sdf_server
from repro.kv.lsm import LSMTree
from repro.kv.slice import KeyRange, Slice
from repro.obs import Observability
from repro.qos import ChannelQosConfig, QosPlan, WriteStallConfig
from repro.sim import MS, Simulator


def run_workload(with_empty_plan: bool):
    sim = Simulator()
    obs = Observability(trace=True)
    lsm = LSMTree(memtable_bytes=128 * 1024, durable_wal=True)
    server = build_sdf_server(
        sim,
        [Slice(0, KeyRange(0, 1_000_000), lsm=lsm)],
        capacity_scale=0.01,
        n_channels=4,
    )
    network = Network(sim)
    obs.attach(server.system).attach(server)
    plan = None
    if with_empty_plan:
        # Sub-configs whose every knob is None count as empty too.
        plan = QosPlan(
            channel=ChannelQosConfig(),
            write_stall=WriteStallConfig(),
        )
        assert plan.empty
        plan.attach(server, "node0")
        plan.attach(server.system)
        obs.attach(plan)
    client = Nic(sim, name="client")
    value = b"drift" * 1024  # 5 KB

    def scenario():
        for key in range(30):
            yield from network.send(client, server.nic, 4096)
            yield from server.handle_put(key, value)
        for key in range(30):
            got = yield from server.handle_get(key)
            assert got == value
            yield from network.send(server.nic, client, len(value))

    sim.run(until=sim.process(scenario()))
    sim.run(until=sim.now + 100 * MS)  # drain background flushes
    trace_json = json.dumps(obs.trace.chrome_trace(), sort_keys=True)
    snapshot = obs.snapshot(sim.now)
    return sim.now, trace_json, snapshot, (plan, server)


def test_empty_plan_run_is_byte_identical_to_no_plan_run():
    bare_now, bare_trace, bare_snap, _ = run_workload(False)
    plan_now, plan_trace, plan_snap, (plan, server) = run_workload(True)
    # The empty plan wired nothing: no live states, no server hook, no
    # engine/block-layer hooks.
    assert plan._states == []
    assert server.qos is None
    assert server.storage.block_layer.qos is None
    assert all(
        engine.qos is None
        for engine in server.storage.block_layer.device.engines
    )
    assert plan_now == bare_now
    assert plan_snap == bare_snap
    assert plan_trace == bare_trace  # byte-identical Chrome trace


def test_empty_plan_registers_no_metrics():
    # Even a late Observability attach on an empty plan must not touch the
    # registry -- there are no states to bind.
    obs = Observability()
    plan = QosPlan()
    obs.attach(plan)
    assert obs.metrics.names() == []
