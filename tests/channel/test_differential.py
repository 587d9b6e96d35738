"""The channel engine's searched differential (``differential.py``).

Tier 1 checks 264 seeded regions of the one strategy (``cases``), each
of ``REGION_EXAMPLES`` cases: ``test_batch_ahead``'s plain engines of
every drive and ``test_reference_differential``'s gated and stalled
ones.  Every case runs as is, pinned to the per-phase hops and op by op
on the reference model, and all three must agree.  The chaos tier
searches ten times as far from ``CHAOS_SEED``.  The counterexamples
pinned below are what the search found, shrunk, in mutated engines;
the expected failures are the ties the strategy and the comparison
stay clear of.
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
    arrivals,
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
    order: found with the tie rule cut to submission order."""
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
    """Two queued runs meeting, the later-started first: found with the
    rule's run field dropped (rank kept)."""
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


@pytest.mark.xfail(strict=True, reason="DESIGN.md section 7, the tie rule")
def test_a_page_whose_dma_lands_as_a_read_submitted_with_it_senses():
    """A page asks the link for its DMA the instant a read is submitted
    on an idle plane, and the DMA lands as the read's sense ends.  Per
    phase the two bus requests run in submission order; ahead, the
    page stands before every read that found its plane idle (a stream's
    run is 0, the read's its submission instant).  Hence no stream in
    the strategy lands one sense after it asked."""
    check(Case((read(SENSE_NS, (0, 0)), stream(SENSE_NS, 2 * SENSE_NS))))


@pytest.mark.xfail(strict=True, reason="DESIGN.md section 7, the tie rule")
def test_a_stalled_read_that_finds_its_plane_idle_as_a_queued_one_is_granted():
    """Gen3's engine, five reads on plane (0, 0) and one on (0, 1) at
    once, a STALL rule holding the fifth and sixth back 300 us, four
    senses: both come back as the fourth sense ends.  The fifth queues
    behind it, the sixth finds its plane idle, and both senses end
    together.  The stalled reads asked from timers set 300 us before,
    which the tie rule cannot see: the engine puts the queued read on
    the bus first, the reference the one that found its plane idle.
    Hence a stalled case's ops reach the reference at scattered
    instants."""
    page = DRIVES["huawei-gen3"].geometry.page_size
    lead = DRIVES["huawei-gen3"].leads[1]
    reads = [read_op(addr(0, 0), page)] * 5 + [read_op(addr(0, 1), page)]
    case = Case(
        tuple(("batch", lead, lead, [op]) for op in reads),
        DRIVES["huawei-gen3"],
        stall={"rate": 0.3, "delay_ns": 300 * US},
        observed=False,
    )
    got, expected = against_reference(case, arrivals(case))
    assert got == expected


@pytest.mark.xfail(strict=True, reason="DESIGN.md section 7, the tie rule")
def test_reads_tied_behind_erase_batches_queued_behind_others():
    """Found by the search, shrunk: an erase batch at 0 on three planes,
    programs and a read queued behind it, and at 450 us a second erase
    batch on two of those planes with a read queued behind each, one
    more read following at 675 us.  The reads on (0, 1) and (1, 0) end
    their senses on one nanosecond behind queues that differ further
    back than the rule looks, and swap bus slots."""
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


@pytest.mark.xfail(strict=True, reason="DESIGN.md section 7, the tie rule")
def test_two_programs_ending_together_complete_in_another_order():
    """Two streamed pages end their programs on one nanosecond: the
    first waited for its plane (1, 0), busy with an earlier program
    until the instant the second's bus phase ends on an idle (1, 1).
    Per phase the page that waited completes first: its end event is
    scheduled from its plane predecessor's end, which comes before the
    other's bus end.  Ahead, the other page's end event is pushed when
    that page is reserved, so it runs first.  Every instant agrees, so
    ``check``, which compares instants, cannot see this; the gated
    device-level divergence (``test_ahead_differential::
    test_gated_writes_around_an_erase``) starts at such a tie."""
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
