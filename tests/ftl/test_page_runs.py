"""The page-mapped FTL's fills and GC relocations as runs.

``PageFTL.fill`` is defined as ``write(lpn, data)`` for each lpn, and a
GC relocation as the page-by-page move; the runs must leave every piece
of state those loops leave, and a relocation must return the same ops.
The reference here is the loop itself: ``write`` per lpn, and
:class:`PerPageFTL`, whose chips never count as quiet, so it takes the
per-LPN fill and the per-page relocation everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.dftl import DFTLPageFTL
from repro.faults.injector import PROGRAM_FAIL, STALL
from repro.faults.plan import FaultPlan
from repro.ftl import OutOfSpaceError, PageFTL
from repro.ftl.mapping import PageMapping
from repro.nand import FlashArray, FlashGeometry, NandTiming
from repro.nand.chip import ProgramFailError


class PerPageFTL(PageFTL):
    """The definition: every fill a per-LPN loop, every relocation page
    by page."""

    def _quiet(self, channel, *kinds):
        return False


class Spy:
    """Counts which path :class:`PageFTL` took."""

    def __init__(self, monkeypatch):
        self.fills = []
        self.relocations = 0
        fill_by_runs = PageFTL._fill_by_runs
        relocate_runs = PageFTL._relocate_runs

        def spy_fill(ftl, n_lpns, data):
            self.fills.append(fill_by_runs(ftl, n_lpns, data))
            return self.fills[-1]

        def spy_relocate(ftl, *args):
            self.relocations += 1
            return relocate_runs(ftl, *args)

        monkeypatch.setattr(PageFTL, "_fill_by_runs", spy_fill)
        monkeypatch.setattr(PageFTL, "_relocate_runs", spy_relocate)


def build(cls=PageFTL, channels=2, chips=1, planes=2, pages_per_block=4,
          blocks_per_plane=12, **kwargs):
    geometry = FlashGeometry(
        page_size=512,
        pages_per_block=pages_per_block,
        blocks_per_plane=blocks_per_plane,
        planes_per_chip=planes,
    )
    array = FlashArray(
        channels=channels, chips_per_channel=chips, geometry=geometry,
        timing=NandTiming(),
    )
    return cls(array, **kwargs)


def twins(**kwargs):
    """The FTL under test and its per-page reference, same config."""
    return build(**kwargs), build(PerPageFTL, **kwargs)


def state(ftl):
    """Every piece of state a fill or a relocation touches."""
    mapping = ftl.mapping
    chips = []
    for row in ftl.array.chips:
        for chip in row:
            planes = [
                [
                    (index, block._write_ptr, dict(block._data),
                     block.erase_count, block.is_bad)
                    for index, block in plane._blocks.items()
                ]
                for plane in chip.planes
            ]
            chips.append((chip.reads, chip.programs, chip.erases, planes))
    pools = {
        key: (list(pool._heap), sorted(pool._free), dict(pool._erase_counts))
        for key, pool in ftl._pools.items()
    }
    return dict(
        l2p=mapping._l2p.tolist(),
        p2l=mapping._p2l.tolist(),
        valid=mapping._valid_per_block.tolist(),
        pools=pools,
        free=list(ftl._free),
        frontiers={key: list(value) for key, value in ftl._frontiers.items()},
        plane_rr=dict(ftl._plane_rr),
        sealed={channel: list(blocks) for channel, blocks in ftl._sealed.items()},
        chips=chips,
        parity_pending=list(ftl._parity_pending.items()),
        counters=(
            ftl.user_programs, ftl.gc_programs, ftl.parity_programs,
            ftl.gc_reads, ftl.erases, ftl.gc_runs,
            ftl.gc_policy.victims_selected,
        ),
    )


def assert_consistent(ftl):
    """The cached free counts are the pools' sizes."""
    for channel in range(ftl.array.n_channels):
        assert ftl.free_blocks(channel) == sum(
            len(ftl._pools[(channel, plane)])
            for plane in range(ftl.array.planes_per_channel)
        )


configs = st.fixed_dictionaries(
    dict(
        channels=st.integers(1, 5),
        chips=st.integers(1, 2),
        planes=st.integers(1, 2),
        pages_per_block=st.integers(2, 6),
        blocks_per_plane=st.integers(8, 16),
        stripe_pages=st.integers(1, 3),
        op_ratio=st.sampled_from([0.2, 0.3, 0.5]),
        parity_group_size=st.one_of(st.none(), st.integers(2, 4)),
        store_data=st.booleans(),
    )
)


def loop_fill(ftl, n_lpns, data):
    """The definition of ``fill``."""
    for lpn in range(n_lpns):
        ftl.write(lpn, data)


def outcome(call, *args):
    """What ``call(*args)`` returns, or the message of the
    ``OutOfSpaceError`` a tight configuration ends in (no GC headroom,
    or a parity channel that two groups share)."""
    try:
        return call(*args)
    except OutOfSpaceError as exc:
        return str(exc)


def make_or_none(cls=PageFTL, **config):
    """The FTL, or None for a parity group wider than the array (it has
    no parity channel to write to)."""
    group = config["parity_group_size"]
    if group is not None and group > config["channels"]:
        return None
    return build(cls, **config)


# -- (a) fill == the per-LPN loop ------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(config=configs, fraction=st.floats(0.0, 1.0))
def test_fill_equals_the_loop(config, fraction):
    ftl = make_or_none(**config)
    if ftl is None:
        return
    reference = build(**config)
    n_lpns = int(ftl.user_pages * fraction)
    assert outcome(ftl.fill, n_lpns, b"payload") == outcome(
        loop_fill, reference, n_lpns, b"payload"
    )
    assert state(ftl) == state(reference)
    assert_consistent(ftl)


@settings(max_examples=40, deadline=None)
@given(config=configs, first=st.floats(0.0, 0.5), second=st.floats(0.0, 1.0))
def test_fill_after_trims_and_writes_equals_the_loop(config, first, second):
    """A fill on an FTL that has written and trimmed before: frontiers
    part-full, the round-robin mid-way, parity counters mid-group."""
    ftl = make_or_none(**config)
    if ftl is None:
        return
    reference = build(**config)
    top = ftl.user_pages - 1
    early = int(ftl.user_pages * first)

    def write_then_trim(subject):
        for lpn in range(early):
            subject.write(top - lpn, ("early", lpn))
        for lpn in range(early):
            subject.trim(top - lpn)

    if outcome(write_then_trim, ftl) == outcome(write_then_trim, reference) is None:
        n_lpns = int(ftl.user_pages * second)
        assert outcome(ftl.fill, n_lpns, "late") == outcome(
            loop_fill, reference, n_lpns, "late"
        )
    assert state(ftl) == state(reference)
    assert_consistent(ftl)


def test_fill_takes_block_runs_with_parity_and_stripes(monkeypatch):
    spy = Spy(monkeypatch)
    config = dict(channels=4, chips=2, planes=2, pages_per_block=4,
                  blocks_per_plane=16, stripe_pages=2, parity_group_size=4,
                  op_ratio=0.3)
    ftl, reference = build(**config), build(**config)
    n_lpns = ftl.user_pages - 3  # a part-full last stripe
    ftl.fill(n_lpns, "x")
    for lpn in range(n_lpns):
        reference.write(lpn, "x")
    assert spy.fills == [True]
    assert ftl.parity_programs > 0
    assert state(ftl) == state(reference)
    for lpn in (0, n_lpns // 2, n_lpns - 1):
        assert ftl.read(lpn)[0] == "x"


# -- (b) fill falling back --------------------------------------------------------


def test_fill_over_a_mapped_lpn_is_the_loop(monkeypatch):
    spy = Spy(monkeypatch)
    ftl, reference = build(), build()
    for subject in (ftl, reference):
        subject.write(5, "old")
    ftl.fill(40, "new")
    for lpn in range(40):
        reference.write(lpn, "new")
    assert spy.fills == [False]
    assert state(ftl) == state(reference)


def test_fill_that_would_trigger_gc_is_the_loop(monkeypatch):
    spy = Spy(monkeypatch)
    config = dict(op_ratio=0.05, blocks_per_plane=10)
    ftl, reference = build(**config), build(**config)
    ftl.fill(ftl.user_pages, None)
    for lpn in range(reference.user_pages):
        reference.write(lpn, None)
    assert spy.fills == [False]
    assert reference.gc_policy.victims_selected > 0
    assert state(ftl) == state(reference)


def test_fill_that_would_steal_is_the_loop(monkeypatch):
    """A plane whose own pool the fill would empty: the loop steals from
    a sibling there, so the fill is the loop."""
    spy = Spy(monkeypatch)
    config = dict(blocks_per_plane=16, gc_free_blocks=1)
    ftl, reference = build(**config), build(**config)
    for subject in (ftl, reference):
        for _ in range(14):  # plane 0 of channel 0 lent out most of its blocks
            subject._pools[(0, 0)].allocate()
            subject._free[0] -= 1
    ftl.fill(60, "x")
    for lpn in range(60):
        reference.write(lpn, "x")
    assert spy.fills == [False]
    assert stolen(reference)
    assert state(ftl) == state(reference)


def test_fill_past_the_user_space_is_the_loop():
    ftl, reference = build(), build()
    with pytest.raises(IndexError):
        ftl.fill(ftl.user_pages + 1, None)
    with pytest.raises(IndexError):
        for lpn in range(reference.user_pages + 1):
            reference.write(lpn, None)
    assert state(ftl) == state(reference)


def wire(ftl, plan):
    nand = plan.injector("nand")
    for row in ftl.array.chips:
        for chip in row:
            chip.faults = nand


def test_fill_under_a_quiet_injector_takes_runs(monkeypatch):
    spy = Spy(monkeypatch)
    ftl, reference = build(), build()
    plans = []
    for subject in (ftl, reference):
        plan = FaultPlan(seed=3).add("ch0", STALL, rate=0.5, delay_ns=10)
        wire(subject, plan)
        plans.append(plan)
    ftl.fill(ftl.user_pages // 2, "x")
    for lpn in range(reference.user_pages // 2):
        reference.write(lpn, "x")
    assert spy.fills == [True]
    assert state(ftl) == state(reference)
    assert plans[0].signatures() == plans[1].signatures() == []


def test_fill_under_a_program_fail_rule_is_the_loop(monkeypatch):
    spy = Spy(monkeypatch)
    ftl, reference = build(), build()
    plans = []
    for subject in (ftl, reference):
        plan = FaultPlan(seed=3).add("nand", PROGRAM_FAIL, at_op=17)
        wire(subject, plan)
        plans.append(plan)
    with pytest.raises(ProgramFailError):
        ftl.fill(ftl.user_pages // 2, "x")
    with pytest.raises(ProgramFailError):
        for lpn in range(reference.user_pages // 2):
            reference.write(lpn, "x")
    assert spy.fills == [False]
    assert state(ftl) == state(reference)
    assert plans[0].signatures() == plans[1].signatures()
    assert len(plans[0].signatures()) == 1


# -- (c) relocation as plane runs == page by page ---------------------------------------


def drive(subject, reference, rng, n_writes, store_data):
    """The same random overwrites on both, until they run out of space;
    every write's ops (or error) equal."""
    for step in range(n_writes):
        lpn = int(rng.integers(subject.user_pages))
        payload = ("v", step) if store_data else None
        result = outcome(subject.write, lpn, payload)
        assert result == outcome(reference.write, lpn, payload)
        if isinstance(result, str):
            return


def stolen(ftl):
    """Frontiers living on a block stolen from a sibling plane."""
    planes_per_chip = ftl.array.geometry.planes_per_chip
    return [
        key
        for key, (flat_block, _page, chip, plane, _block) in ftl._frontiers.items()
        if chip * planes_per_chip + plane != key[1]
    ]


@settings(max_examples=40, deadline=None)
@given(config=configs, seed=st.integers(0, 2**16), overwrites=st.integers(1, 5))
def test_relocation_runs_equal_page_by_page(config, seed, overwrites):
    subject = make_or_none(**config)
    if subject is None:
        return
    reference = build(PerPageFTL, **config)
    filled = outcome(subject.fill, subject.user_pages, None)
    assert filled == outcome(reference.fill, reference.user_pages, None)
    if filled is None:
        drive(subject, reference, np.random.default_rng(seed),
              overwrites * subject.user_pages, config["store_data"])
    assert state(subject) == state(reference)
    assert_consistent(subject)


def test_relocation_under_heavy_gc_with_steals(monkeypatch):
    """WA > 4 on a tiny over-provisioning: pools run dry unevenly, so
    frontiers steal from siblings, inside relocations too."""
    spy = Spy(monkeypatch)
    config = dict(channels=2, chips=2, planes=2, pages_per_block=8,
                  blocks_per_plane=12, op_ratio=0.1, stripe_pages=2)
    subject, reference = build(**config), build(PerPageFTL, **config)
    subject.fill(subject.user_pages, None)
    reference.fill(reference.user_pages, None)
    programs, user = subject.total_programs, subject.user_programs
    rng = np.random.default_rng(7)
    steals = 0
    for step in range(6 * subject.user_pages):
        lpn = int(rng.integers(subject.user_pages))
        assert subject.write(lpn, None) == reference.write(lpn, None)
        steals += bool(stolen(subject))
    assert (subject.total_programs - programs) / (subject.user_programs - user) > 4
    assert steals > 0
    assert spy.relocations > 0
    assert state(subject) == state(reference)


def test_relocation_out_of_space_leaves_the_page_by_page_state():
    """With no GC headroom a relocation runs out of blocks part-way:
    the error, and what was moved before it, are the per-page loop's."""
    config = dict(planes=1, pages_per_block=4, blocks_per_plane=6,
                  op_ratio=0.1, gc_free_blocks=1)
    subject, reference = build(**config), build(PerPageFTL, **config)
    drive(subject, reference, np.random.default_rng(0), 20 * subject.user_pages,
          False)
    # The loop read a valid page off the victim and found no block for it.
    assert reference.gc_reads == reference.gc_programs + 1
    assert state(subject) == state(reference)


def test_relocation_keeps_payloads(monkeypatch):
    spy = Spy(monkeypatch)
    config = dict(channels=2, planes=2, pages_per_block=4, op_ratio=0.25,
                  store_data=True)
    subject, reference = build(**config), build(PerPageFTL, **config)
    rng = np.random.default_rng(13)
    shadow = {}
    for step in range(6 * subject.user_pages):
        lpn = int(rng.integers(subject.user_pages))
        assert subject.write(lpn, ("v", step)) == reference.write(lpn, ("v", step))
        shadow[lpn] = ("v", step)
    assert spy.relocations > 0
    assert state(subject) == state(reference)
    for lpn, expected in shadow.items():
        assert subject.read(lpn)[0] == expected


def test_relocation_under_a_read_fault_rule_is_page_by_page(monkeypatch):
    from repro.faults.injector import READ_UNCORRECTABLE

    spy = Spy(monkeypatch)
    subject, reference = build(), build()
    plans = []
    for ftl in (subject, reference):
        plan = FaultPlan(seed=1).add("nand", READ_UNCORRECTABLE, rate=1e-9)
        wire(ftl, plan)
        plans.append(plan)
        ftl.fill(ftl.user_pages, None)
    drive(subject, reference, np.random.default_rng(2), 3 * subject.user_pages,
          False)
    assert spy.relocations == 0
    assert subject.gc_runs > 0
    assert state(subject) == state(reference)


# -- (d) map_many ---------------------------------------------------------------------


def mapping_state(mapping):
    return (mapping._l2p.copy(), mapping._p2l.copy(),
            mapping._valid_per_block.copy())


def assert_unchanged(mapping, before):
    for array, saved in zip(mapping_state(mapping), before):
        assert np.array_equal(array, saved)


def test_map_many_rejects_a_valid_target_before_changing_anything():
    mapping = PageMapping(n_lpns=16, n_ppns=32, pages_per_block=4)
    mapping.map(0, 3)
    mapping.map(1, 9)
    before = mapping_state(mapping)
    with pytest.raises(ValueError, match="ppn 3 already holds valid lpn 0"):
        mapping.map_many([2, 1, 4], [12, 3, 13])
    assert_unchanged(mapping, before)
    with pytest.raises(ValueError, match="twice"):
        mapping.map_many([2, 4], [12, 12])
    assert_unchanged(mapping, before)


def test_map_many_rejects_a_negative_count_before_changing_anything():
    mapping = PageMapping(n_lpns=16, n_ppns=32, pages_per_block=4)
    mapping.map(0, 3)
    mapping._valid_per_block[0] = 0  # corrupt: block 0 claims no valid page
    before = mapping_state(mapping)
    with pytest.raises(AssertionError, match="block 0 went negative"):
        mapping.map_many([0], [12])
    assert_unchanged(mapping, before)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_map_many_equals_map_per_pair(data):
    n_lpns, n_ppns = 24, 48
    one, many = (PageMapping(n_lpns, n_ppns, pages_per_block=4) for _ in range(2))
    for lpn, ppn in data.draw(
        st.lists(st.tuples(st.integers(0, n_lpns - 1), st.integers(0, n_ppns - 1)),
                 max_size=20)
    ):
        if one.is_valid(ppn):
            continue
        one.map(lpn, ppn)
        many.map(lpn, ppn)
    free = [ppn for ppn in range(n_ppns) if not one.is_valid(ppn)]
    lpns = data.draw(st.lists(st.integers(0, n_lpns - 1), unique=True, max_size=12))
    ppns = data.draw(st.permutations(free))[: len(lpns)]
    lpns = lpns[: len(ppns)]
    for lpn, ppn in zip(lpns, ppns):
        one.map(lpn, ppn)
    many.map_many(lpns, ppns)
    for a, b in zip(mapping_state(one), mapping_state(many)):
        assert np.array_equal(a, b)


# -- (e) DFTL ---------------------------------------------------------------------------


@pytest.mark.parametrize("warm", [False, True])
def test_dftl_fill_charges_the_cache_like_the_loop(monkeypatch, warm):
    spy = Spy(monkeypatch)
    config = dict(channels=4, planes=2, pages_per_block=8, blocks_per_plane=16,
                  op_ratio=0.25, cmt_pages=3)
    subject, reference = build(DFTLPageFTL, **config), build(DFTLPageFTL, **config)
    assert subject.entries_per_tp == 64
    if warm:  # cached translation pages, one of them dirty
        for ftl in (subject, reference):
            ftl.read(70)
            ftl.read(300)
            ftl._translate(130, dirty=True)
    n_lpns = subject.user_pages - 5
    subject.fill(n_lpns, None)
    for lpn in range(n_lpns):
        reference.write(lpn, None)
    assert spy.fills == [True]
    assert list(subject._cmt.items()) == list(reference._cmt.items())
    for counter in ("map_cache_hits", "map_cache_misses",
                    "translation_reads", "translation_programs"):
        assert getattr(subject, counter) == getattr(reference, counter), counter
    assert state(subject) == state(reference)
