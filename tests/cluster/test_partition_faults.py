"""The PARTITION fault kind: scheduled link cuts in the network model.

Covers the fault-plane wiring (``FaultPlan.schedule`` + ``FaultPlan.start``
driving ``Network.begin_partition``/``end_partition``), symmetric and
asymmetric cuts, group cuts, overlapping cuts composing by count, and
the no-drift guarantee that an un-partitioned network is untouched.
"""

import pytest

from repro.cluster.network import (
    Network,
    NetworkPartitionedError,
    Nic,
    TEN_GBE_MB_S,
)
from repro.errors import TransientFault
from repro.faults import PARTITION, FaultInjectionError, FaultPlan
from repro.sim import MS, Simulator


def make_net(*names):
    sim = Simulator()
    net = Network(sim)
    nics = {name: Nic(sim, TEN_GBE_MB_S, name=name) for name in names}
    return sim, net, nics


def send_ok(sim, net, src, dst, nbytes=1024):
    """Run one send; returns True if it was delivered."""

    def _send():
        try:
            yield from net.send(src, dst, nbytes)
            return True
        except NetworkPartitionedError:
            return False

    return sim.run(until=sim.process(_send()))


def test_partition_cuts_and_heals_symmetrically():
    sim, net, nics = make_net("a", "b")
    assert send_ok(sim, net, nics["a"], nics["b"])
    net.begin_partition("a", "b")
    assert not send_ok(sim, net, nics["a"], nics["b"])
    assert not send_ok(sim, net, nics["b"], nics["a"])
    assert net.partition_drops == 2
    net.end_partition("a", "b")
    assert send_ok(sim, net, nics["a"], nics["b"])
    assert not net._cuts


def test_partition_error_is_a_transient_message_drop():
    # Retry stacks built on MessageDroppedError/TransientFault must
    # absorb a partition without new handling.
    from repro.cluster.network import MessageDroppedError

    assert issubclass(NetworkPartitionedError, MessageDroppedError)
    assert issubclass(NetworkPartitionedError, TransientFault)


def test_asymmetric_partition_cuts_one_direction():
    sim, net, nics = make_net("a", "b")
    net.begin_partition("a", "b", symmetric=False)
    assert not send_ok(sim, net, nics["a"], nics["b"])
    assert send_ok(sim, net, nics["b"], nics["a"])
    net.end_partition("a", "b", symmetric=False)
    assert send_ok(sim, net, nics["a"], nics["b"])


def test_group_partition_cuts_every_cross_pair():
    sim, net, nics = make_net("a", "b", "c", "d")
    net.begin_partition(("a", "b"), ("c", "d"))
    for src, dst in (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")):
        assert not send_ok(sim, net, nics[src], nics[dst])
        assert not send_ok(sim, net, nics[dst], nics[src])
    # Links inside each side are untouched.
    assert send_ok(sim, net, nics["a"], nics["b"])
    assert send_ok(sim, net, nics["c"], nics["d"])
    net.end_partition(("a", "b"), ("c", "d"))
    assert send_ok(sim, net, nics["a"], nics["c"])


def test_overlapping_partitions_compose_by_count():
    sim, net, nics = make_net("a", "b", "c")
    net.begin_partition("a", ("b", "c"))
    net.begin_partition("a", "b")
    net.end_partition("a", ("b", "c"))
    # a<->b is still covered by the second cut; a<->c has healed.
    assert not send_ok(sim, net, nics["a"], nics["b"])
    assert send_ok(sim, net, nics["a"], nics["c"])
    net.end_partition("a", "b")
    assert send_ok(sim, net, nics["a"], nics["b"])


def test_partitioned_accepts_objects_with_nics():
    sim, net, nics = make_net("a", "b")

    class Boxed:
        def __init__(self, nic):
            self.nic = nic

    net.begin_partition(Boxed(nics["a"]), Boxed(nics["b"]))
    assert net.partitioned(nics["a"], nics["b"])
    assert net.partitioned(nics["b"], nics["a"])


def test_fault_runner_drives_scheduled_partition():
    sim, net, nics = make_net("a", "b")
    plan = FaultPlan(seed=3).schedule(
        "net", PARTITION, at_ns=10 * MS, duration_ns=20 * MS, a="a", b="b"
    )
    plan.attach(net).start()
    outcomes = []

    def probe():
        for _ in range(4):
            try:
                yield from net.send(nics["a"], nics["b"], 256)
                outcomes.append((sim.now, True))
            except NetworkPartitionedError:
                outcomes.append((sim.now, False))
            yield sim.timeout(10 * MS)

    sim.run(until=sim.process(probe()))
    sim.run()
    delivered = [ok for _at, ok in outcomes]
    assert delivered == [True, False, False, True]
    kinds = [event.kind for event in plan.log]
    assert PARTITION in kinds and "partition_heal" in kinds
    assert not net._cuts


def test_fault_runner_partition_groups_split_on_comma():
    sim, net, nics = make_net("a", "b", "c")
    plan = FaultPlan(seed=3).schedule(
        "net", PARTITION, at_ns=0, duration_ns=10 * MS, a="a", b="b,c"
    )
    plan.attach(net).start()

    def probe():
        yield sim.timeout(1 * MS)
        assert net.partitioned(nics["a"], nics["b"])
        assert net.partitioned(nics["a"], nics["c"])
        assert not net.partitioned(nics["b"], nics["c"])

    sim.run(until=sim.process(probe()))
    sim.run()
    assert not net._cuts


def test_fault_runner_partition_requires_endpoints():
    sim, net, _nics = make_net("a", "b")
    plan = FaultPlan(seed=3).schedule(
        "net", PARTITION, at_ns=0, duration_ns=MS, a="a"  # missing b=
    )
    plan.attach(net)
    with pytest.raises(FaultInjectionError, match="a= and b="):
        plan.start()
    assert sim._seq == 0  # before any event


def test_unpartitioned_network_sends_are_untouched():
    # The no-drift guard: the cut check is one falsy-dict test.
    sim, net, nics = make_net("a", "b")
    net.begin_partition("a", "b")
    net.end_partition("a", "b")
    assert net._cuts == {}
    assert send_ok(sim, net, nics["a"], nics["b"])
    assert net.partition_drops == 0
