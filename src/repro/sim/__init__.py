"""Discrete-event simulation kernel.

This package is a small, self-contained discrete-event simulation engine
(in the spirit of SimPy) used by every timed model in the repository:
NAND chips, channel buses, host links, FTLs, the CCDB KV store and the
cluster model.

Simulated time is kept in integer **nanoseconds** so that event ordering
is exact and runs are bit-for-bit reproducible.  Convenience constants
(:data:`~repro.sim.units.US`, :data:`~repro.sim.units.MS`, ...) are
provided by :mod:`repro.sim.units`.

The core abstractions:

* :class:`~repro.sim.engine.Simulator` -- the event loop.
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.Timeout` --
  one-shot occurrences that processes can wait on.
* :class:`~repro.sim.process.Process` -- a generator-based coroutine that
  ``yield``\\ s events.
* :class:`~repro.sim.resources.Resource`,
  :class:`~repro.sim.resources.Store` -- contention primitives.
* :mod:`~repro.sim.stats` -- throughput meters, latency recorders and
  time-weighted statistics used by the benchmark harness.
"""

from repro.sim.engine import Simulator
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Resource, Store
from repro.sim.stats import (
    Counter,
    LatencyRecorder,
    ThroughputMeter,
    TimeWeighted,
)
from repro.sim.units import GB, GIB, KB, KIB, MB, MIB, MS, NS, S, US

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "Resource",
    "Store",
    "ThroughputMeter",
    "LatencyRecorder",
    "TimeWeighted",
    "Counter",
    "NS",
    "US",
    "MS",
    "S",
    "KB",
    "MB",
    "GB",
    "KIB",
    "MIB",
    "GIB",
]
