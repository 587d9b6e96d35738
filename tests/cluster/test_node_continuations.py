"""A get, a put and a patch read are continuations (``handle_get_call``,
``handle_put_call``, ``handle_patch_read_call``); ``handle_get``/
``handle_put``/``handle_patch_read`` are their generator form through
``repro.sim.process.bridged``.  Driven from processes or called
directly, the same script must settle every request at the same instant
with the same value or exception type -- on a flash read, a memtable
hit, a shed, a crash while queued, an epoch move and a dropped link
DMA.
"""

import pytest

from repro.cluster import build_sdf_server
from repro.faults import FaultPlan
from repro.kv import Patch, PlaceholderValue
from repro.kv.slice import KeyRange, Slice
from repro.qos import AdmissionConfig, QosPlan
from repro.sim import US, Simulator


def _server(sim):
    server = build_sdf_server(
        sim, [Slice(0, KeyRange(0, 10_000))], capacity_scale=0.01, n_channels=4
    )
    server.preload(server.slices[0], range(64), 16 * 1024)
    QosPlan(admission=AdmissionConfig(max_reads=2, max_scans=2)).attach(
        server, "n0"
    )
    plan = FaultPlan(seed=3)
    # The 9th read DMA: the last page of the third value read (a 16 KiB
    # value spans three pages).
    plan.add("n0.link", "drop", at_op=9, where={"direction": "read"})
    # The 4th from 3 ms on: a page of the first patch read.
    plan.add(
        "n0.link", "drop", at_op=4, after_ns=3_000 * US,
        where={"direction": "read"},
    )
    plan.attach(server, "n0")
    return server


#: (at_us, what, key, extra): the requests, and the faults between them.
SCRIPT = [
    (0, "get", 5, None),  # flash read
    (1, "put", 9_000, 4096),
    (2, "get", 6, None),  # flash read, queued behind the first
    (3, "get", 7, None),  # two reads admitted already: shed
    (2_000, "get", 9_000, None),  # memtable hit
    (2_001, "get", 8, None),  # flash read, its last page dropped
    (4_000, "get", 10, "epoch"),  # epoch moves while it queues
    (4_001, "epoch", None, None),
    (3_000, "get", 12, None),  # flash read
    (3_001, "patch", None, None),  # queued behind it, a page dropped
    (3_002, "patch", None, None),  # queued behind both
    (3_003, "patch", None, None),  # two scans admitted already: shed
    (6_000, "get", 11, None),  # flash read
    (8_000, "get", 13, None),
    (8_001, "put", 14, 1024),
    (8_001, "patch", None, None),  # a crash while queued: read all the same
    (8_002, "crash", None, None),  # both queued: NodeDownError
    (8_010, "get", 15, None),  # down at submission
]


def play(via_process):
    """The script's ``(tag, settled at, value or exception type)`` in
    settling order, and the server (kept whole for the collector)."""
    sim = Simulator()
    server = _server(sim)
    seen = []

    def record(tag):
        def settle(value):
            if isinstance(value, BaseException):
                value = type(value).__name__
            elif isinstance(value, PlaceholderValue):
                value = value.size
            elif isinstance(value, Patch):
                value = ("patch", value.nbytes)
            seen.append((tag, sim.now, value))

        return settle

    slice_ = server.slices[0]
    ((_, _, runs),) = server.scan_plan(0, 10_000)
    handlers = {
        "get": (server.handle_get, server.handle_get_call),
        "put": (server.handle_put, server.handle_put_call),
        "patch": (server.handle_patch_read, server.handle_patch_read_call),
    }

    def issue(index, what, key, extra):
        settle = record(index)
        epoch = slice_.epoch if extra == "epoch" else None
        if what == "get":
            args = (key, None, epoch, "t")
        elif what == "put":
            args = (key, PlaceholderValue(extra), None, None, "t")
        else:
            args = (runs[0].handle, slice_, None, "t")
        handler, call = handlers[what]
        if via_process:

            def client():
                try:
                    value = yield from handler(*args)
                except Exception as exc:
                    settle(exc)
                    return
                settle(value)

            sim.process(client())
            return
        try:
            call(*args, settle, settle)
        except Exception as exc:
            settle(exc)

    def at(index, what, key, extra):
        if what == "crash":
            server.crash()
        elif what == "epoch":
            slice_.epoch += 1
        else:
            issue(index, what, key, extra)

    for index, (at_us, what, key, extra) in enumerate(SCRIPT):
        sim._schedule_call(
            lambda index=index, what=what, key=key, extra=extra: at(
                index, what, key, extra
            ),
            at_us * US,
        )
    sim.run()
    return seen, server


def test_generator_form_and_continuation_settle_alike():
    bridged, _ = play(via_process=True)
    called, _ = play(via_process=False)
    # A process starts one event after its issuer: same instants, same
    # outcomes, in the same order.
    assert bridged == called
    outcomes = {tag: value for tag, _, value in called}
    patch = ("patch", runs_bytes())
    assert outcomes == {
        0: 16 * 1024,
        1: None,
        2: 16 * 1024,
        3: "RequestSheddedError",
        4: 4096,
        5: "LinkDropError",
        6: "WrongEpochError",
        8: 16 * 1024,
        9: "LinkDropError",
        10: patch,
        11: "RequestSheddedError",
        12: 16 * 1024,
        13: "NodeDownError",
        14: "NodeDownError",
        15: patch,
        17: "NodeDownError",
    }


@pytest.mark.xfail(
    strict=True,
    reason="a patch read does not look at its node again after its "
    "handler-thread turn",
)
def test_a_patch_read_queued_across_a_crash_fails_like_a_get_and_a_put():
    """The patch read issued at 8,001 us queues beside a get and a put;
    the node crashes at 8,002 us.  The get and the put fail with
    ``NodeDownError`` and the patch read should too, but it still reads
    its patch and answers from the crashed node.  Kept so for now:
    ``fleet_day``'s scan and migration schedule depends on it."""
    called, _ = play(via_process=False)
    outcomes = {tag: value for tag, _, value in called}
    assert outcomes[13] == outcomes[14] == "NodeDownError"
    assert outcomes[15] == "NodeDownError"


def runs_bytes():
    """The bytes of the one patch the preload leaves."""
    server = _server(Simulator())
    ((_, _, runs),) = server.scan_plan(0, 10_000)
    return server.storage.functional_load(runs[0].handle).nbytes
