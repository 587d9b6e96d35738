"""The channel engine's searched differential (``differential.py``).

Tier 1 checks 264 seeded regions of the one strategy (``cases``), each
of ``REGION_EXAMPLES`` cases: ``test_batch_ahead``'s plain engines of
every drive and ``test_reference_differential``'s gated and stalled
ones.  Every case runs as is, pinned to the per-phase hops and op by op
on the reference model, and all three must agree.  The chaos tier
searches ten times as far from ``CHAOS_SEED``.  Pinned below, shrunk:
what the search found in mutated engines, and ties an engine that
reconstructed the kernel's event order got wrong.
"""

import os

import pytest

from repro.ftl.ops import erase_op, program_op, read_op
from repro.sim import US
from tests.channel.differential import (
    BUS_NS,
    DRIVES,
    PAGE,
    REGION_EXAMPLES,
    SENSE_NS,
    TIMING,
    Case,
    addr,
    against_reference,
    batch,
    cases,
    check,
    play,
    read,
    search,
    stream,
)

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
#: Cases the tier-1 regions check together.
TIER1_EXAMPLES = 264 * REGION_EXAMPLES


def erases(at, *planes):
    return batch(at, *[erase_op(addr(*key)) for key in planes])


def out_of_plane_order():
    """Reads queued behind one erase batch, submitted out of its plane
    order: found with a reconstructed tie order cut short."""
    return Case(
        (
            read(0, (0, 0)),
            read(0, (0, 0)),
            erases(0, (0, 0), (0, 1), (1, 0)),
            read(0, (1, 0)),
            read(0, (0, 1)),
            read(0, (0, 0)),
        ),
        observed=False,
    )


def later_run_first():
    """Two queued runs meeting, the later-started first: found likewise."""
    return Case(
        (erases(0, (0, 0)),)
        + (read(0, (0, 0)),) * 6
        + (erases(SENSE_NS, (0, 1)), read(SENSE_NS, (0, 1))),
        observed=False,
    )


def remade_behind_a_run():
    """Programs revoked by a sense run and an erase: found with revoked
    reservations never remade."""
    return Case(
        (
            erases(0, (0, 0)),
            stream(0, BUS_NS),
            read(0, (0, 0)),
            read(0, (0, 0)),
            erases(0, (0, 0)),
            read(0, (0, 0)),
            batch(0, program_op(addr(), PAGE)),
        ),
        observed=False,
    )


@pytest.mark.parametrize(
    "counterexample", [out_of_plane_order, later_run_first, remade_behind_a_run]
)
def test_what_the_search_found_in_mutated_engines(counterexample):
    """Shrunk counterexamples, built per run (an op kept alive at module
    level would count in the collector tests' census)."""
    check(counterexample())


@pytest.mark.chaos
def test_the_engine_agrees_with_its_hops_and_the_reference_at_length():
    search(cases(), CHAOS_SEED, 10 * TIER1_EXAMPLES)


def test_a_page_whose_dma_lands_as_a_read_submitted_with_it_senses():
    """A page asks the link for its DMA the instant a read is submitted
    on an idle plane and lands as the read's sense ends: the read
    continues, the page arrives, so the read's data goes first."""
    check(Case((read(SENSE_NS, (0, 0)), stream(SENSE_NS, 2 * SENSE_NS))))


def test_a_stalled_read_that_finds_its_plane_idle_as_a_queued_one_is_granted():
    """Gen3's engine, five reads on plane (0, 0) and one on (0, 1) at
    once, a STALL rule holding the fifth and sixth back 300 us: the
    fifth queues behind the fourth sense, the sixth finds its plane
    idle, both senses end together, and both models put them on the
    bus by submission id."""
    page = DRIVES["huawei-gen3"].geometry.page_size
    lead = DRIVES["huawei-gen3"].leads[1]
    reads = [read_op(addr(0, 0), page)] * 5 + [read_op(addr(0, 1), page)]
    case = Case(
        tuple(("batch", lead, lead, [op]) for op in reads),
        DRIVES["huawei-gen3"],
        stall={"rate": 0.3, "delay_ns": 300 * US},
        observed=False,
    )
    got, expected = against_reference(case)
    assert got == expected


def test_reads_tied_behind_erase_batches_queued_behind_others():
    """Found by the search, shrunk: an erase batch at 0 on three planes,
    programs and a read queued behind it, and at 450 us a second erase
    batch on two of those planes with a read queued behind each, one
    more read following at 675 us: reads on (0, 1) and (1, 0) tie behind
    queues that differ far back."""
    erase = [erase_op(addr(*key)) for key in ((1, 0), (0, 0), (0, 1))]
    check(
        Case(
            (
                batch(0, program_op(addr(), PAGE)),
                read(675 * US, (1, 0)),
                batch(0, program_op(addr(0, 1), PAGE), program_op(addr(1, 0), PAGE)),
                batch(0, *erase),
                read(0, (0, 1)),
                batch(450 * US, erase[2], erase[0]),
                read(450 * US, (0, 1)),
                read(450 * US, (1, 0)),
            ),
            observed=False,
        )
    )


def test_two_programs_ending_together_complete_in_another_order():
    """Two streamed pages end their programs on one nanosecond: the
    first waited for its plane (1, 0), busy with an earlier program
    until the instant the second's bus phase ends on an idle (1, 1).
    Both ways report them by submission id; ``check`` compares instants
    only, so this compares the order of the ``then`` callbacks."""
    tied = BUS_NS + TIMING.t_prog_ns  # the earlier program's end
    waited, idle = tied - 2 * BUS_NS, tied - BUS_NS
    case = Case(
        (
            stream(0, 0, chip=1, plane=0),
            stream(waited, waited, chip=1, plane=0),
            stream(idle, idle, chip=1, plane=1),
        ),
        observed=False,
    )
    ahead, hops = play(case), play(case, pinned=True)
    assert ahead.finished == hops.finished
    assert hops.finished[1] == hops.finished[2]
    # ``finished`` is filled as the ``then`` callbacks run.
    assert list(ahead.finished) == list(hops.finished)
