"""The one door into a component: each plane's own ``attach``.

The planes (observability, faults, QoS, policy) instrument the lower
layers; the lower layers never reach back for them.  These tests pin
that layering, the error every plane raises for a target it does not
know, the rule that observing a server leaves its device on the
reserve-ahead path, and that the two planes that act over simulated
time run themselves once attached (``start``).  A channel engine alone
picks an op's path: a device neither reads the engine's QoS gate nor
asks whether it can reserve ahead, and takes the engine's four doors
only (``execute_fast``, ``execute_batch_call``, ``read_ahead``,
``program_page_ahead``).  Observation picks no path: the engine's
path choice reads no ``obs`` and no trace; only a STALL rule does.
"""

import ast
from pathlib import Path

import pytest

from repro.channel.engine import ChannelEngine
from repro.cluster import Network, build_sdf_server
from repro.faults import CRASH, PARTITION, STALL, FaultPlan
from repro.nand.catalog import MICRON_25NM_MLC, SDF_CHIP_GEOMETRY
from repro.obs import Observability
from repro.policy import Hysteresis, PolicyPlan, Rule
from repro.qos import QosPlan
from repro.sim import MS, Simulator

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The plane modules that wire a component, and the plane classes.
PLANE_MODULES = {
    "repro.obs.attach",
    "repro.faults.plan",
    "repro.faults.wire",
    "repro.qos.config",
    "repro.qos.wire",
    "repro.policy.engine",
}
PLANE_CLASSES = {"Observability", "FaultPlan", "QosPlan", "PolicyPlan"}


def plane_imports(path: Path):
    """``(line, what)`` for every import of a plane module or class."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in PLANE_MODULES:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if (
                    node.module in PLANE_MODULES
                    or f"{node.module}.{alias.name}" in PLANE_MODULES
                    or alias.name in PLANE_CLASSES
                ):
                    yield node.lineno, f"{node.module}.{alias.name}"


@pytest.mark.parametrize("package", ["core", "cluster"])
def test_lower_layers_import_no_plane_wiring(package):
    found = [
        f"{path.relative_to(SRC)}:{line} imports {what}"
        for path in sorted((SRC / package).rglob("*.py"))
        for line, what in plane_imports(path)
    ]
    assert found == []


def attributes(path: Path, names, calls=False):
    """``(line, name)`` for every attribute in ``names`` that ``path``
    reads -- or, with ``calls``, calls."""
    for node in ast.walk(ast.parse(path.read_text())):
        if calls:
            if not isinstance(node, ast.Call):
                continue
            node = node.func
        if isinstance(node, ast.Attribute) and node.attr in names:
            yield node.lineno, node.attr


def test_devices_leave_the_path_choice_to_the_engine():
    found = [
        f"{path.relative_to(SRC)}:{line} reads .{name}"
        for path in sorted((SRC / "devices").rglob("*.py"))
        for line, name in attributes(path, {"qos", "can_reserve_ahead"})
    ]
    assert found == []


def test_nothing_calls_an_engine_door_that_is_gone():
    found = [
        f"{path.relative_to(SRC)}:{line} calls .{name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in attributes(
            path, {"execute", "execute_batch", "execute_program"}, calls=True
        )
    ]
    assert found == []


def test_metrics_pick_no_channel_path():
    """``_phased``, ``can_reserve_ahead`` and ``can_program_ahead`` read
    no ``obs`` and no trace: an engine and a simulator carrying a
    metrics-only probe, or a trace, reserve ahead; a STALL rule at the
    site still does not."""
    tree = ast.parse((SRC / "channel" / "engine.py").read_text())
    (engine_class,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ChannelEngine"
    ]
    choosers = [
        node
        for node in engine_class.body
        if isinstance(node, ast.FunctionDef)
        and node.name in ("_phased", "can_reserve_ahead", "can_program_ahead")
    ]
    assert len(choosers) == 3
    found = [
        f"{chooser.name}:{node.lineno} reads .{node.attr}"
        for chooser in choosers
        for node in ast.walk(chooser)
        if isinstance(node, ast.Attribute)
        and node.attr in ("obs", "_obs", "trace")
    ]
    assert found == []
    sim = Simulator()
    engine = ChannelEngine(sim, 0, SDF_CHIP_GEOMETRY, MICRON_25NM_MLC)
    sim.obs = engine.obs = Observability()
    assert engine.can_reserve_ahead() and engine.can_program_ahead()
    engine.obs = Observability(trace=True)
    assert engine.can_reserve_ahead()
    plan = FaultPlan().add("ch0", STALL, rate=0.5, delay_ns=1 * MS)
    plan.bind_clock(sim)
    engine.faults = plan.injector("ch0")
    assert not engine.can_reserve_ahead() and not engine.can_program_ahead()


PLANES = pytest.mark.parametrize(
    "plane",
    [Observability(), FaultPlan(), QosPlan(), PolicyPlan()],
    ids=lambda plane: type(plane).__name__,
)


@PLANES
def test_every_plane_attaches_to_a_server_and_returns_itself(plane):
    server = build_sdf_server(
        Simulator(), [], capacity_scale=0.004, n_channels=4
    )
    assert plane.attach(server) is plane


@PLANES
def test_every_plane_rejects_an_unknown_target(plane):
    name = type(plane).__name__
    with pytest.raises(TypeError, match=f"^{name} cannot attach to object$"):
        plane.attach(object())


def test_observing_a_server_leaves_its_device_reserving_ahead():
    sim = Simulator()
    server = build_sdf_server(sim, [], capacity_scale=0.004, n_channels=4)
    obs = Observability(trace=True)
    assert obs.attach(server) is obs
    assert server.obs is obs
    engines = server.device.engines
    assert len(engines) == 4
    for engine in engines:
        assert engine.obs is None
        assert engine.can_reserve_ahead()


def test_an_attached_fault_plan_starts_its_crash_and_partition():
    sim = Simulator()
    server = build_sdf_server(sim, [], capacity_scale=0.004, n_channels=4)
    network = Network(sim)
    plan = FaultPlan()
    plan.schedule("n0", CRASH, at_ns=1 * MS, duration_ns=2 * MS)
    plan.schedule("net", PARTITION, at_ns=2 * MS, duration_ns=2 * MS,
                  a="x", b="y")
    plan.attach(server, "n0").attach(network).start()
    sim.run(until=2 * MS + 1)
    assert not server.up and network._cuts
    sim.run()
    assert server.up and not network._cuts
    assert [(e.site, e.kind, e.at_ns) for e in plan.log] == [
        ("n0", CRASH, 1 * MS),
        ("net", PARTITION, 2 * MS),
        ("n0", "restart", 3 * MS),
        ("net", "partition_heal", 4 * MS),
    ]


def test_a_started_policy_plan_fires_its_rule():
    sim = Simulator()
    obs = Observability()
    fired = []
    plan = PolicyPlan(
        rules=(
            Rule(
                name="hot",
                signal=lambda ctx: 1.0,
                hysteresis=Hysteresis(upper=0.5, lower=0.1),
                action=lambda ctx, rng: fired.append(ctx.now),
            ),
        ),
        period_ns=1 * MS,
    )
    obs.attach(plan)
    plan.start(sim, until_ns=3 * MS)
    sim.run()
    assert fired == [1 * MS]
    assert plan.fire_log == [(1 * MS, "hot")]
    assert plan.evaluations == 3
    assert obs.snapshot(sim.now)["policy.hot.fired"] == 1
