"""No-drift regression: attaching an *empty* FaultPlan must leave a run
byte-identical to one with no plan at all -- same simulated timeline,
same metrics snapshot, same Chrome trace JSON.  This is the contract
that lets the fault plane ride along in every build unconfigured.
"""

import json

from repro.cluster import Network, Nic, build_sdf_server
from repro.devices.sdf import SDFDevice
from repro.faults import (
    PROGRAM_FAIL,
    READ_UNCORRECTABLE,
    FaultPlan,
    FaultRunner,
    attach_network_faults,
    attach_server_faults,
)
from repro.kv.lsm import LSMTree
from repro.kv.slice import KeyRange, Slice
from repro.nand.geometry import FlashGeometry
from repro.obs import Observability
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
    server.system.attach(obs)
    server.attach(obs)
    plan = None
    if with_empty_plan:
        plan = FaultPlan(seed=2024)
        attach_server_faults(plan, server, site="node0")
        attach_network_faults(plan, network)
        plan.attach_obs(obs)
        FaultRunner(sim, plan).start()  # empty schedule: spawns nothing
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
    return sim.now, trace_json, snapshot, plan


def test_empty_plan_run_is_byte_identical_to_no_plan_run():
    bare_now, bare_trace, bare_snap, _ = run_workload(False)
    plan_now, plan_trace, plan_snap, plan = run_workload(True)
    assert plan.log == []  # the empty plan never fired anything
    assert plan_now == bare_now
    assert plan_snap == bare_snap
    assert plan_trace == bare_trace  # byte-identical Chrome trace


def test_empty_plan_makes_no_rng_draws():
    # An empty plan has no rule states at all, so no generator is ever
    # instantiated -- the determinism guarantee cannot be eroded by
    # rule-table misses.
    plan = FaultPlan(seed=5)
    inj = plan.injector("anywhere")
    for _ in range(100):
        assert inj.fires("anything", key=1) is None
        assert inj.delay_ns("anything") == 0
    assert plan._states == {} and plan.log == []


def run_raw_device(wired: bool, rules: bool = True):
    """Writes, reads and erases on two raw SDF channels; with ``wired``
    every chip holds an injector -- whose only rules, one a site, can
    never match, which puts the block FTL's writes on the page-by-page
    path (a ``PROGRAM_FAIL`` draw a page) and the chips' reads too (a
    ``READ_UNCORRECTABLE`` draw a page) where they otherwise program
    and read plane runs; or, without ``rules``, none at all, which is
    no injector."""
    sim = Simulator()
    geometry = FlashGeometry(page_size=512, pages_per_block=8, blocks_per_plane=6)
    sdf = SDFDevice(sim, n_channels=2, geometry=geometry)
    plan = FaultPlan(seed=7)
    page_reads = []
    if wired:
        if rules:
            plan.add("nand", PROGRAM_FAIL, rate=1.0, where={"chip": -1})
            plan.add("nand", READ_UNCORRECTABLE, rate=1.0, where={"chip": -1})
        for row in sdf.array.chips:
            for chip in row:
                chip.faults = plan.injector("nand")
                read_page = chip.read_page

                def counted(*args, _read_page=read_page):
                    page_reads.append(args)
                    return _read_page(*args)

                chip.read_page = counted
    ops_seen = []
    write_shapes = set()
    for ftl in sdf.ftls:
        for name in ("write", "read", "erase"):
            call = getattr(ftl, name)

            def recorded(*args, _call=call, _name=name, _channel=ftl.channel):
                result = _call(*args)
                ops = result[1] if _name == "read" else result
                ops_seen.append((_channel, _name, list(ops)))
                if _name == "write":
                    write_shapes.add(type(ops).__name__)
                return result

            setattr(ftl, name, recorded)
    pages = sdf.channels[0].pages_per_logical_block
    instants = []
    payloads_read = []

    def host(channel, tag):
        for block in (0, 1):
            yield from channel.write(
                block, [(tag, block, page) for page in range(pages)]
            )
            instants.append(sim.now)
        yield from channel.write(2)  # placeholders
        for offset, n_pages in ((0, pages), (5, 9), (pages - 1, 1)):
            payloads_read.append(
                (yield from channel.read(1, offset, n_pages))
            )
            instants.append(sim.now)
        yield from channel.erase(0)
        yield from channel.write_fresh(1, [tag] * pages)
        payloads_read.append((yield from channel.read(1, 3, 6)))
        payloads_read.append((yield from channel.read(2, 0, pages)))
        payloads_read.append((yield from channel.read(0, 0, 2)))
        instants.append(sim.now)

    for channel, tag in zip(sdf.channels, "ab"):
        sim.process(host(channel, tag))
    sim.run()
    chips = [chip for row in sdf.array.chips for chip in row]
    return {
        "ops": ops_seen,
        "instants": instants,
        "payloads": payloads_read,
        "chip_counters": [(c.reads, c.programs, c.erases) for c in chips],
        "ftl_counters": [
            (f.host_reads, f.host_programs, f.erase_count) for f in sdf.ftls
        ],
        "write_pointers": [
            sorted(
                (plane.index, block.index, block.write_pointer, block.erase_count)
                for plane in chip.planes
                for block in plane._blocks.values()
            )
            for chip in chips
        ],
        "link": (
            tuple(sdf.link.read_meter.samples),
            tuple(sdf.link.write_meter.samples),
        ),
        "end": (sim.now, sim._seq),
    }, plan, write_shapes, len(page_reads)


def test_plane_runs_and_page_by_page_programs_are_the_same_device():
    bare, _, bare_shapes, _ = run_raw_device(False)
    wired, plan, wired_shapes, page_reads = run_raw_device(True)
    assert plan.log == []
    assert (bare_shapes, wired_shapes) == ({"OpRuns"}, {"list"})
    assert page_reads == sum(reads for reads, _, _ in bare["chip_counters"])
    assert bare == wired
    assert bare["payloads"][0][:2] == [("a", 1, 0), ("a", 1, 1)]
    assert len(bare["ops"]) == 2 * 12


def test_a_chip_plan_with_no_rule_is_no_injector():
    """A wired plan holding no ``PROGRAM_FAIL``/``READ_UNCORRECTABLE``
    rule leaves the chips on plane runs: an ``OpRuns`` from every
    write, no page read one call at a time, and the same device."""
    bare, _, _, _ = run_raw_device(False)
    quiet, plan, shapes, page_reads = run_raw_device(True, rules=False)
    assert plan.log == []
    assert shapes == {"OpRuns"} and page_reads == 0
    assert quiet == bare
