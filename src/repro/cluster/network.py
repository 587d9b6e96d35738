"""Datacenter network model.

Table 2 / S3.1: the server connects to the switch with two 10 Gbps
NICs, clients with one each.  We model each NIC as independent tx/rx
lanes with chunked transfers (so concurrent flows share fairly) plus a
small per-message switch latency.
"""

from __future__ import annotations

from repro.faults.errors import TransientFault
from repro.faults.injector import DELAY, DROP, NULL_INJECTOR
from repro.sim import Resource, Simulator
from repro.sim.units import KIB, transfer_ns

#: 10 Gbps Ethernet ~ 1250 MB/s line rate; ~1180 MB/s effective after
#: framing overheads.
TEN_GBE_MB_S = 1180.0


class MessageDroppedError(TransientFault):
    """A network message was lost in the fabric; the sender must retry."""


class NetworkPartitionedError(MessageDroppedError):
    """The link between two endpoints is cut by an active partition.

    Subclasses :class:`MessageDroppedError` so every existing retry /
    failover path treats a partitioned link exactly like sustained
    message loss -- which is all a partition *is* from the sender's
    point of view.
    """


class Nic:
    """One network interface: full-duplex tx/rx at a fixed rate.

    ``lanes`` models NIC bonding (the server has two 10 GbE ports).
    """

    def __init__(
        self,
        sim: Simulator,
        mb_per_s: float = TEN_GBE_MB_S,
        lanes: int = 1,
        chunk_bytes: int = 64 * KIB,
        name: str = "nic",
    ):
        if mb_per_s <= 0:
            raise ValueError("NIC rate must be positive")
        if lanes < 1:
            raise ValueError("need at least one lane")
        self.sim = sim
        self.mb_per_s = mb_per_s
        self.chunk_bytes = chunk_bytes
        self.name = name
        self.tx = Resource(sim, capacity=lanes)
        self.rx = Resource(sim, capacity=lanes)


class Network:
    """A single switch connecting NICs with fixed fabric latency."""

    def __init__(self, sim: Simulator, latency_ns: int = 50_000):
        if latency_ns < 0:
            raise ValueError("latency must be >= 0")
        self.sim = sim
        self.latency_ns = latency_ns
        self.messages = 0
        self.bytes_moved = 0
        self.drops = 0
        self.partition_drops = 0
        #: Fault-injection handle (``drop``/``delay``);
        #: :data:`~repro.faults.injector.NULL_INJECTOR` unless wired.
        self.faults = NULL_INJECTOR
        #: Active link cuts as (src NIC name, dst NIC name) -> cut count.
        #: Counted (not boolean) so overlapping scheduled partitions
        #: compose: a link heals when *every* cut covering it ends.
        self._cuts: dict = {}

    # -- partitions --------------------------------------------------------------------
    @staticmethod
    def _endpoint_names(group) -> tuple:
        """Normalise one side of a partition to a tuple of NIC names.

        Accepts a NIC name, an object with a ``nic`` (server/client) or
        ``name`` attribute, or an iterable of those -- so callers can cut
        single links or whole racks with one call.
        """
        if isinstance(group, str):
            return (group,)
        if hasattr(group, "nic"):
            return (group.nic.name,)
        if hasattr(group, "name"):
            return (group.name,)
        names = []
        for member in group:
            names.extend(Network._endpoint_names(member))
        return tuple(names)

    def _cut_pairs(self, a, b, symmetric: bool):
        pairs = []
        for src in self._endpoint_names(a):
            for dst in self._endpoint_names(b):
                if src == dst:
                    continue
                pairs.append((src, dst))
                if symmetric:
                    pairs.append((dst, src))
        return pairs

    def begin_partition(self, a, b, symmetric: bool = True) -> None:
        """Cut the links between endpoint groups ``a`` and ``b``.

        While cut, :meth:`send` between the groups raises
        :class:`NetworkPartitionedError` immediately (no bandwidth is
        consumed -- the frames die in the fabric).  ``symmetric=False``
        cuts only the ``a`` -> ``b`` direction, modelling asymmetric
        routing failures where acks still flow.
        """
        for pair in self._cut_pairs(a, b, symmetric):
            self._cuts[pair] = self._cuts.get(pair, 0) + 1

    def end_partition(self, a, b, symmetric: bool = True) -> None:
        """Heal a cut previously made by :meth:`begin_partition` with
        the same endpoints and direction."""
        for pair in self._cut_pairs(a, b, symmetric):
            count = self._cuts.get(pair, 0) - 1
            if count > 0:
                self._cuts[pair] = count
            else:
                self._cuts.pop(pair, None)

    def partitioned(self, src: "Nic", dst: "Nic") -> bool:
        """True when ``src`` -> ``dst`` traffic is currently cut."""
        return bool(self._cuts) and (src.name, dst.name) in self._cuts

    def send(self, src: Nic, dst: Nic, nbytes: int):
        """Generator: move one message from ``src`` to ``dst``.

        Each chunk occupies the source tx lane and the destination rx
        lane simultaneously (cut-through switching): a single flow runs
        at line rate and concurrent flows share the contended lane.

        Raises :class:`MessageDroppedError` when the fault plane drops
        the message (before any bandwidth is consumed, as a switch
        dropping a frame at ingress would).
        """
        if nbytes < 0:
            raise ValueError("negative message size")
        if self._cuts and (src.name, dst.name) in self._cuts:
            self.partition_drops += 1
            raise NetworkPartitionedError(
                f"link {src.name} -> {dst.name} is partitioned"
            )
        if self.faults.fires(DROP, src=src.name, dst=dst.name, nbytes=nbytes) is not None:
            self.drops += 1
            raise MessageDroppedError(
                f"message {src.name} -> {dst.name} ({nbytes} B) dropped"
            )
        extra_ns = self.faults.delay_ns(DELAY, src=src.name, dst=dst.name, nbytes=nbytes)
        yield self.sim.timeout(self.latency_ns + extra_ns)
        remaining = max(nbytes, 1)
        while remaining > 0:
            chunk = min(remaining, min(src.chunk_bytes, dst.chunk_bytes))
            with src.tx.request() as tx_hold:
                yield tx_hold
                with dst.rx.request() as rx_hold:
                    yield rx_hold
                    rate = min(src.mb_per_s, dst.mb_per_s)
                    yield self.sim.timeout(transfer_ns(chunk, rate))
            remaining -= chunk
        self.messages += 1
        self.bytes_moved += nbytes
