"""Host link (PCIe / SATA) bandwidth models.

The paper treats the host links as throughput caps and reports the
*measured effective* limits it observed: PCIe 1.1 x8 moves 1.61 GB/s of
read data and 1.40 GB/s of write data; SATA 2.0 is a 300 MB/s line (S3.2,
Table 1).  We model each direction as a capacity-1 FIFO lane (a
:class:`~repro.sim.timeline.ResourceTimeline`) whose transfers are
chunked so concurrent DMAs interleave fairly, the way PCIe TLPs / SATA
frames do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.errors import TransientFault
from repro.faults.injector import DELAY, DROP, NULL_INJECTOR
from repro.sim import Event, Simulator
from repro.sim.stats import ThroughputMeter
from repro.sim.timeline import ResourceTimeline
from repro.sim.units import KIB, transfer_ns


class LinkDropError(TransientFault):
    """A host-link transfer was lost (aborted DMA, link reset)."""


def fail_dropped(done: Event, exc: LinkDropError) -> None:
    """Fail a request's completion event with a drop caught inside one
    of the request's own callbacks -- once, however many of its pages
    are dropped, and without the frames between the raise and the
    catch: the catching frame holds the request, the request the event
    and the event the exception, a reference cycle per failed request
    (the message already says what was dropped, and where)."""
    if not done.triggered:
        done.fail(exc.with_traceback(None))


@dataclass(frozen=True)
class LinkSpec:
    """Static description of a host link."""

    name: str
    read_mb_per_s: float
    write_mb_per_s: float
    full_duplex: bool = True
    chunk_bytes: int = 128 * KIB
    per_transfer_overhead_ns: int = 1_000

    def __post_init__(self):
        if self.read_mb_per_s <= 0 or self.write_mb_per_s <= 0:
            raise ValueError("link bandwidths must be positive")
        if self.chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        if self.per_transfer_overhead_ns < 0:
            raise ValueError("per_transfer_overhead_ns must be >= 0")


#: Paper S3.2: "maximum PCIe throughputs when used for data read and
#: write are 1.61 GB/s and 1.40 GB/s".  Per-transfer overhead is tiny:
#: scatter-gather descriptors amortize DMA setup across a whole request.
PCIE_1_1_X8 = LinkSpec("PCIe 1.1 x8", 1610.0, 1400.0,
                       per_transfer_overhead_ns=100)

#: SATA 2.0: 300 MB/s line rate, ~90% effective after 8b/10b + FIS
#: overheads; half duplex.
SATA_2_0 = LinkSpec("SATA 2.0", 270.0, 270.0, full_duplex=False)


class HostLink:
    """A timed host link shared by every requester on the device."""

    def __init__(self, sim: Simulator, spec: LinkSpec):
        self.sim = sim
        self.spec = spec
        #: One lane per direction (shared when half duplex).
        self._tl_read = ResourceTimeline()
        self._tl_write = (
            ResourceTimeline() if spec.full_duplex else self._tl_read
        )
        self.read_meter = ThroughputMeter(f"{spec.name}.read")
        self.write_meter = ThroughputMeter(f"{spec.name}.write")
        #: Memoized first-chunk cost (setup overhead included) per
        #: (direction, chunk size).
        self._cost_cache: dict = {}
        #: Fault-injection handle (``drop``/``delay``);
        #: :data:`~repro.faults.injector.NULL_INJECTOR` unless wired.
        self.faults = NULL_INJECTOR

    def reserve_call(self, direction: str, nbytes: int, fn) -> None:
        """Reserve the lane for an ``nbytes`` transfer submitted at
        sim-now; ``fn`` runs at the DMA's end instant.  'read' is
        device-to-host, 'write' is host-to-device; transfers are split
        into chunks so concurrent requests share the lane.

        A ``drop`` fault raises :class:`LinkDropError` here, at the
        submission instant; a ``delay`` fault defers the reservation.
        The caller records the direction's throughput meter inside
        ``fn``.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        faults = self.faults
        if faults is not NULL_INJECTOR and not faults.quiet(DROP, DELAY):
            if faults.fires(DROP, direction=direction, nbytes=nbytes) is not None:
                raise LinkDropError(
                    f"{self.spec.name}: {direction} transfer of {nbytes} B dropped"
                )
            extra_ns = faults.delay_ns(DELAY, direction=direction, nbytes=nbytes)
            if extra_ns > 0:
                self.sim._schedule_call(
                    lambda: self._reserve_chunks(direction, nbytes, fn), extra_ns
                )
                return
        self._reserve_chunks(direction, nbytes, fn)

    def reserve_ahead(self, direction: str, nbytes: int) -> Optional[int]:
        """Reserve the lane for a transfer submitted at sim-now and
        return its end instant, scheduling nothing -- for a caller that
        can act on the end ahead of time (it records the throughput
        meter with that timestamp).

        Returns None, reserving nothing, when the end is not known at
        submission: a ``drop`` or ``delay`` rule at this site may drop
        or delay the transfer (a wired injector holding neither is, at
        this instant, no injector), and a transfer longer than one
        chunk re-queues for the lane chunk by chunk.  Use
        :meth:`reserve_call` then.  A later ``reserve_call`` that
        queues behind this reservation has no end event to chain from
        and relays at its grant.
        """
        faults = self.faults
        if nbytes > self.spec.chunk_bytes or not (
            faults is NULL_INJECTOR or faults.quiet(DROP, DELAY)
        ):
            return None
        cost = self._cost_cache.get((direction, nbytes))
        if cost is None:
            if nbytes < 0:
                raise ValueError(f"negative transfer size {nbytes}")
            cost = self._first_chunk(direction, nbytes)[2]
        timeline = self._tl_write if direction == "write" else self._tl_read
        # ResourceTimeline.reserve inlined (one call per streamed page).
        now = self.sim._now
        free = timeline.free_at
        end = timeline.free_at = (free if free > now else now) + cost
        timeline._tail_hooks = None
        return end

    def _first_chunk(self, direction: str, first: int):
        """``(lane, MB/s, cost)`` of a transfer's first chunk of
        ``first`` bytes (the per-transfer setup is charged there)."""
        spec = self.spec
        if direction == "read":
            rate, timeline = spec.read_mb_per_s, self._tl_read
        elif direction == "write":
            rate, timeline = spec.write_mb_per_s, self._tl_write
        else:
            raise ValueError(
                f"direction must be 'read' or 'write', not {direction!r}"
            )
        key = (direction, first)
        cost = self._cost_cache.get(key)
        if cost is None:
            cost = self._cost_cache[key] = (
                transfer_ns(first, rate) + spec.per_transfer_overhead_ns
            )
        return timeline, rate, cost

    def _reserve_chunks(self, direction: str, nbytes: int, fn) -> None:
        """One lane reservation per ``chunk_bytes`` chunk, each made at
        its predecessor's end instant so concurrent transfers interleave
        FIFO chunk by chunk."""
        sim = self.sim
        chunk_bytes = self.spec.chunk_bytes
        first = nbytes if nbytes < chunk_bytes else chunk_bytes
        timeline, rate, cost = self._first_chunk(direction, first)
        remaining = nbytes - first
        if not remaining:
            timeline.reserve_and_call(sim, cost, fn)
            return
        timeline.reserve_and_call(
            sim, cost, lambda: self._next_chunk(timeline, rate, remaining, fn)
        )

    def _next_chunk(self, timeline, rate, remaining: int, fn) -> None:
        """Reserve the next chunk of a transfer with ``remaining`` bytes
        to go, at the end instant of the chunk before."""
        chunk_bytes = self.spec.chunk_bytes
        chunk = remaining if remaining < chunk_bytes else chunk_bytes
        remaining -= chunk
        timeline.reserve_and_call(
            self.sim,
            transfer_ns(chunk, rate),
            (lambda: self._next_chunk(timeline, rate, remaining, fn))
            if remaining
            else fn,
        )
