"""Coverage for the public :class:`~repro.core.api.SDFSystem` facade:
synchronous conveniences, planes attached to a system and builder
kwargs.
"""

import pytest

from repro import SDFSystem, build_sdf_system
from repro.core.block_layer import BlockNotFoundError
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.obs import Observability
from repro.qos import QosPlan
from repro.sim import Simulator


def small_system(**kwargs):
    kwargs.setdefault("capacity_scale", 0.004)
    kwargs.setdefault("n_channels", 4)
    return build_sdf_system(**kwargs)


# -- facade conveniences -----------------------------------------------------------------


def test_put_get_delete_roundtrip():
    system = small_system()
    data = b"eight megabytes of web pages..." * 10
    block_id = system.put(data)
    assert system.get(block_id, 0, len(data)) == data
    assert system.get(block_id, 7, 9) == data[7:16]
    before = system.sim.now
    system.delete(block_id)
    assert system.sim.now >= before  # delete consumed simulated time
    with pytest.raises(BlockNotFoundError):
        system.get(block_id, 0, 1)


def test_put_with_explicit_block_id_reuses_it():
    system = small_system()
    block_id = system.block_layer.allocate_id()
    assert system.put(b"x" * 100, block_id=block_id) == block_id
    assert system.get(block_id, 0, 100) == b"x" * 100


def test_run_drives_a_generator_to_completion():
    system = small_system()

    def op():
        block_id = system.block_layer.allocate_id()
        yield from system.block_layer.write(block_id, b"y" * 64)
        return block_id

    block_id = system.run(op())
    assert system.get(block_id, 0, 64) == b"y" * 64


def test_repr_mentions_channels_and_clock():
    system = small_system()
    text = repr(system)
    assert "channels=4" in text and "now=" in text


# -- builder -----------------------------------------------------------------------------


def test_build_reuses_a_caller_simulator():
    sim = Simulator()
    system = small_system(sim=sim)
    assert system.sim is sim
    assert isinstance(system, SDFSystem)


# -- planes attached to a system --------------------------------------------------------


def test_attach_observability_registers_device_metrics():
    system = small_system()
    obs = Observability().attach(system)
    system.put(b"z" * 4096)
    snapshot = obs.snapshot(system.sim.now)
    assert snapshot["blk.writes"] == 1
    assert any(key.startswith("channel") for key in snapshot)


def test_attach_returns_self_and_chains():
    system = small_system()
    obs = Observability()
    plan = FaultPlan(seed=1)
    assert obs.attach(system).attach(plan) is obs
    assert plan.attach(system) is plan
    assert plan.obs is obs


def test_attach_qos_plan():
    from repro.qos.config import ChannelQosConfig

    system = small_system()
    QosPlan(channel=ChannelQosConfig(max_inflight_ops=4)).attach(system)
    data = b"q" * 4096
    block_id = system.put(data)  # bounded admission still serves
    assert system.get(block_id, 0, len(data)) == data


@pytest.mark.parametrize("keyword", ["obs", "faults", "qos"])
def test_build_takes_no_plane_keyword(keyword):
    with pytest.raises(ConfigError, match=keyword):
        small_system(**{keyword: Observability()})
