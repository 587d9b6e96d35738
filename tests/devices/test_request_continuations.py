"""A conventional drive's ``read``/``write`` and a zoned drive's
``read_zone`` are continuations (``read_call``, ``write_call``,
``read_zone_call``) with a generator form through
``repro.sim.process.bridged``.  Driven from processes or called
directly, one script must settle every request at the same instant with
the same value or exception type -- on buffered and flash reads,
overlapping writes, a dropped link DMA and an argument raised at
submission.
"""

import pytest

from repro.devices import HUAWEI_GEN3_SPEC, build_device
from repro.faults import FaultPlan
from repro.sim import US, Simulator

SCALE = 0.004


def play(build, script, via_process):
    """``(tag, settled at, value or exception type)`` in settling order
    for ``script``'s ``(at_us, name, args)`` requests on ``build(sim)``'s
    device: ``name(*args)`` from a process, or
    ``name_call(*args, then, fail)``."""
    sim = Simulator()
    device = build(sim)
    seen = []

    def record(tag):
        def settle(value):
            if isinstance(value, BaseException):
                value = type(value).__name__
            seen.append((tag, sim.now, value))

        return settle

    def issue(tag, name, args):
        settle = record(tag)
        if via_process:

            def client():
                try:
                    value = yield from getattr(device, name)(*args)
                except Exception as exc:
                    settle(exc)
                    return
                settle(value)

            sim.process(client())
            return
        try:
            getattr(device, f"{name}_call")(*args, settle, settle)
        except Exception as exc:
            settle(exc)

    for tag, (at_us, name, args) in enumerate(script):
        sim._schedule_call(
            lambda tag=tag, name=name, args=args: issue(tag, name, args),
            at_us * US,
        )
    sim.run()
    return seen


def conventional(sim):
    device = build_device(
        "conventional", sim, spec=HUAWEI_GEN3_SPEC, capacity_scale=SCALE,
        store_data=True,
    )
    device.prefill(0.1, payload="old")
    plan = FaultPlan(seed=0)
    plan.add("link", "drop", at_op=4, where={"direction": "write"})
    plan.add("link", "drop", at_op=6, where={"direction": "read"})
    plan.attach(device)
    return device


CONVENTIONAL = [
    (0, "write", (0, 4, "a")),
    (1, "read", (0, 2)),  # the buffered copies
    (2, "write", (2, 4, "b")),  # a page dropped: none lands
    (3, "read", (100, 3)),  # flash
    (3, "read", (0, 0)),  # raises at submission
    (50, "read", (200, 4)),  # a page dropped
    (400, "write", (0, 2, "c")),
    (400, "read", (0, 3)),
]


def zoned(sim):
    device = build_device("zoned", sim, capacity_scale=SCALE, n_channels=4)
    device.prefill(0.5, payload="z")
    plan = FaultPlan(seed=0)
    plan.add("link", "drop", at_op=5, where={"direction": "read"})
    plan.attach(device)
    return device


ZONED = [
    (0, "read_zone", (0, 0, 4)),
    (0, "read_zone", (4, 2, 2)),  # the same channel, behind it
    (1, "read_zone", (1, 0, 3)),  # a page dropped
    (2, "read_zone", (10**6, 0, 1)),  # raises at submission
    (3, "read_zone", (2, 0, 1)),
]


@pytest.mark.parametrize(
    "build, script, outcomes",
    [
        (
            conventional,
            CONVENTIONAL,
            {
                0: None,
                1: ["a", "a"],
                2: "LinkDropError",
                3: ["old"] * 3,
                4: "ValueError",
                5: "LinkDropError",
                6: None,
                7: ["c", "c", "a"],
            },
        ),
        (
            zoned,
            ZONED,
            {
                0: ["z"] * 4,
                1: ["z"] * 2,
                2: "LinkDropError",
                3: "IndexError",
                4: ["z"],
            },
        ),
    ],
)
def test_generator_form_and_continuation_settle_alike(build, script, outcomes):
    bridged = play(build, script, via_process=True)
    called = play(build, script, via_process=False)
    assert bridged == called
    assert {tag: value for tag, _, value in called} == outcomes
