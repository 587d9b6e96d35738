"""The one door into a component: each plane's own ``attach``.

The planes (observability, faults, QoS, policy) instrument the lower
layers; the lower layers never reach back for them.  These tests pin
that layering, the error every plane raises for a target it does not
know, and the rule that observing a server leaves its device on the
reserve-ahead path.
"""

import ast
from pathlib import Path

import pytest

from repro.cluster import build_sdf_server
from repro.faults import FaultPlan
from repro.obs import Observability
from repro.policy import PolicyPlan
from repro.qos import QosPlan
from repro.sim import Simulator

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
