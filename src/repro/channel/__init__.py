"""Timed flash-channel engines.

A :class:`~repro.channel.engine.ChannelEngine` owns one channel's shared
bus and per-plane resources and charges simulated time for the
:class:`~repro.ftl.ops.FlashOp`\\ s that the (functional) FTLs emit.  The
overlap rules implement real NAND pipelining:

* READ: the plane is busy for tR, then the data moves over the shared
  channel bus (the plane is free again during the transfer, so the next
  page's tR overlaps the previous page's transfer).
* PROGRAM: the data moves over the bus into the chip register, then the
  plane is busy for tPROG (the bus is free during programming, so
  transfers to other planes overlap).
* ERASE: the plane is busy for tBERS; the bus is untouched.
"""

from repro.channel.engine import ChannelEngine, build_engines

__all__ = ["ChannelEngine", "build_engines"]
