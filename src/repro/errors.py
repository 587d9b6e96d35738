"""The common exception hierarchy for the whole package.

Every error the library raises on purpose derives from
:class:`ReproError`, split by what a caller can *do* about it:

* :class:`TransientFault` -- retry, failover or replica recovery can
  absorb it (uncorrectable reads, dropped messages, crashed nodes,
  shed requests).  Retry loops catch this one base class.
* :class:`PermanentFault` -- retrying cannot help: the data (or the
  capacity to serve it) is gone until an operator intervenes (every
  replica of a key failing, an exhausted write quorum).
* :class:`ClusterError` -- a cluster-coordination failure: routing,
  membership or migration state disagreeing with a request.  Cluster
  errors are independently transient or permanent, so concrete classes
  mix ``ClusterError`` with one of the two severities above.

This module sits at the very bottom of the dependency graph: every
layer imports it and it imports nothing from the package.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every deliberate error the library raises."""


class TransientFault(ReproError):
    """A failure that retry, failover or replica recovery can absorb."""


class PermanentFault(ReproError):
    """A failure no retry can fix: data or capacity is actually gone."""


class ClusterError(ReproError):
    """A cluster-coordination failure (routing, membership, migration)."""


class ConfigError(ReproError, ValueError):
    """Invalid static configuration (spec keys, env vars, plan parameters).

    Subclasses :class:`ValueError` so call sites that historically
    raised ``ValueError`` for bad configuration keep their contract
    while joining the :class:`ReproError` hierarchy.  Raised *eagerly*
    at parse/validation time -- a device spec key the kind does not
    accept must fail loudly, never be silently dropped.
    """


class WrongEpochError(TransientFault, ClusterError):
    """A request carried a stale routing epoch for its slice.

    Raised by a :class:`~repro.cluster.node.StorageServer` when the
    epoch a client routed with no longer matches the slice's epoch --
    the slice moved (or is frozen mid-cutover).  Clients refresh their
    routing-table snapshot and retry; it subclasses
    :class:`TransientFault` so generic retry loops also absorb it.
    """


class StorageFullError(PermanentFault, ClusterError):
    """No free write unit (block, zone, LPN extent) is left to claim.

    Raised where storage cannot wait for space to come back: a node's
    patch store claiming an extent off an empty free list, or a zero-time
    preload into a channel with no erased block.  Retrying cannot help
    until something frees a unit.
    """


__all__ = [
    "ReproError",
    "TransientFault",
    "PermanentFault",
    "ClusterError",
    "ConfigError",
    "WrongEpochError",
    "StorageFullError",
]
