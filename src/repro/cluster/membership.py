"""Fault-tolerant replicated control plane: SWIM membership, leader
election and leadership fencing.

The paper's host-side control software is a single point of failure the
moment it runs on real machines; this module makes the control plane
itself a fault domain.  A :class:`ControllerGroup` wraps the existing
:class:`~repro.cluster.control.ClusterController` state machine with a
set of :class:`ControllerReplica` processes:

* **SWIM failure detection** (:class:`SwimDetector`) -- every live
  replica probes one random member per period (direct ping, then
  ping-req through ``ping_req_fanout`` proxies), marks a silent member
  *suspect*, and confirms it *dead* after ``suspect_timeout_ns``.  All
  probing runs on simulated time with one RNG stream per member derived
  from ``(seed, crc32(member))``, so a run replays byte-identically.  A
  confirmed-dead member that answers again must stay reachable for
  ``rejoin_stable_ns`` before it is readmitted -- a link flapping faster
  than the suspicion window cannot oscillate membership.
* **Bully-with-quorum leader election** -- the lowest-rank live replica
  whose view has confirmed the leader dead campaigns with a fresh term
  (monotonic, ``max(term, voted_term) + 1``); each voter grants at most
  one vote per term, and winning requires a majority quorum, so a
  minority partition can never elect a second leader.
* **Leadership fencing** -- the winner installs its term on every
  reachable storage node (:meth:`~repro.cluster.node.StorageServer.
  fence_controller`, the controller-traffic extension of
  :class:`~repro.errors.WrongEpochError`), and every migration runs
  under a :class:`ControllerLease` checked on each data transfer and
  phase boundary: a deposed leader's commands die at the nodes, and its
  routing-table publish is rejected by :meth:`ControllerGroup.
  fence_publish` before the commit point.
* **Record replication** -- each migration phase boundary replicates a
  :class:`MigrationRecord` to the follower replicas and requires a
  majority of acks before the phase may proceed, so a leader that dies
  (or is partitioned) mid-migration leaves a quorum that knows exactly
  how far it got; the next leader resumes the bookkeeping via
  :meth:`ControllerGroup.resolve_inflight` -- adopting the migration if
  the routing table shows the cutover committed, safely aborting it
  (discard the importing twin, unfreeze the source) otherwise.

**No-drift contract**: the group is opt-in like every other plane.  A
group with ``n_replicas=1`` wires nothing -- no processes, no RNG
draws, no network traffic -- and the controller behaves exactly as the
historical immortal singleton.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from types import GeneratorType
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.network import (
    MessageDroppedError,
    Network,
    Nic,
    TEN_GBE_MB_S,
)
from repro.errors import ClusterError, TransientFault, WrongEpochError
from repro.faults.retry import race_with_timeout
from repro.sim import MS, Simulator
from repro.sim.stats import Counter

#: Wire sizes of the control-plane message types (headers + payload).
PING_BYTES = 128
ACK_BYTES = 128
VOTE_BYTES = 256
ANNOUNCE_BYTES = 256
COMMAND_BYTES = 256
RECORD_BYTES = 1024
FENCE_BYTES = 128

#: Per-observer member states.
MEMBER_ALIVE = "alive"
MEMBER_SUSPECT = "suspect"
MEMBER_DEAD = "dead"

#: Terminal phases a replicated migration record can reach.
RECORD_COMMITTED = "committed"
RECORD_ABORTED = "aborted"


class ControllerUnavailableError(TransientFault, ClusterError):
    """No live controller leader can accept the operation right now."""


class ControllerFencedError(WrongEpochError):
    """A deposed (or dead) controller leader tried to act.

    Subclasses :class:`~repro.errors.WrongEpochError`: leadership terms
    are routing epochs for controller traffic, and the same transient
    abort-and-retry machinery absorbs both.
    """


class ControllerReplicationError(TransientFault, ClusterError):
    """A migration record failed to reach a quorum of replicas."""


@dataclass(frozen=True)
class SwimConfig:
    """Timing knobs of the SWIM failure detector (all simulated ns)."""

    #: Probe period: each live replica pings one member per period.
    period_ns: int = 20 * MS
    #: Patience per ping round-trip before it counts as a miss.
    ping_timeout_ns: int = 5 * MS
    #: Indirect probes sent through other replicas after a direct miss.
    ping_req_fanout: int = 1
    #: Suspect -> confirmed-dead patience.
    suspect_timeout_ns: int = 100 * MS
    #: How long a confirmed-dead member must answer probes again before
    #: it is readmitted; ``None`` = one full suspicion window.  This is
    #: the anti-flap gate: a partition healing and re-cutting inside the
    #: window cannot toggle membership.
    rejoin_stable_ns: Optional[int] = None

    def __post_init__(self):
        if self.period_ns <= 0:
            raise ValueError("period_ns must be > 0")
        if self.ping_timeout_ns <= 0:
            raise ValueError("ping_timeout_ns must be > 0")
        if self.ping_req_fanout < 0:
            raise ValueError("ping_req_fanout must be >= 0")
        if self.suspect_timeout_ns <= 0:
            raise ValueError("suspect_timeout_ns must be > 0")

    def stable_ns(self) -> int:
        if self.rejoin_stable_ns is not None:
            return self.rejoin_stable_ns
        return self.suspect_timeout_ns


class ControllerReplica:
    """One member of the replicated controller group.

    Carries the fault-domain state (liveness, NIC, persistent term and
    vote) -- the *logic* lives in :class:`ControllerGroup`, which drives
    whichever replica currently leads.  ``crash()``/``restart()`` are
    what a fault plan's scheduled crash calls, so a plan attached to the
    group can kill a controller like any storage node.
    """

    def __init__(self, sim: Simulator, name: str, rank: int):
        self.sim = sim
        self.name = name
        self.rank = rank
        self.nic = Nic(sim, TEN_GBE_MB_S, lanes=1, name=name)
        self.up = True
        #: Highest leadership term this replica has adopted (persistent:
        #: survives crashes, like a Raft term on disk).
        self.term = 0
        #: Highest term this replica has granted a vote in.
        self.voted_term = 0
        self.crashes = 0
        self.restarts = 0

    def crash(self) -> None:
        """Fail-stop this replica (synchronous)."""
        if not self.up:
            raise RuntimeError(f"crash() on {self.name}, already down")
        self.up = False
        self.crashes += 1

    def restart(self):
        """Generator: bring the replica back (term and vote persist)."""
        if self.up:
            raise RuntimeError(f"restart() on {self.name}, already up")
        self.up = True
        self.restarts += 1
        return
        yield  # pragma: no cover -- keeps this a generator

    def __repr__(self):
        return (
            f"ControllerReplica({self.name}, rank={self.rank}, "
            f"term={self.term}, {'up' if self.up else 'DOWN'})"
        )


@dataclass(frozen=True)
class ControllerLease:
    """The leadership under which one migration runs.

    Captured at migration start and threaded through every transfer and
    phase barrier; the checks compare the lease against the *current*
    group state, so a leader crash or deposition mid-flight surfaces as
    a :class:`ControllerFencedError` at the next checkpoint.
    """

    slice_id: int
    replica: ControllerReplica
    term: int


@dataclass(frozen=True)
class MigrationRecord:
    """One replicated in-flight-migration bookkeeping entry."""

    slice_id: int
    phase: str
    src: str
    dst: str
    term: int


class _MemberView:
    """One observer's belief about one subject."""

    __slots__ = ("state", "since_ns", "rejoin_since_ns")

    def __init__(self):
        self.state = MEMBER_ALIVE
        self.since_ns = 0
        self.rejoin_since_ns: Optional[int] = None


class SwimDetector:
    """Deterministic SWIM-style failure detector over simulated time.

    Each live replica runs one probe loop: every ``period_ns`` it picks
    one random member (controller peers + watched storage nodes), sends
    a direct ping, and on a miss asks ``ping_req_fanout`` other live
    replicas to probe on its behalf.  State is per-observer (no gossip
    merge -- the simulator's shared clock makes dissemination timing a
    non-goal); transitions are alive -> suspect -> dead with refutation
    on any successful probe and stability-gated rejoin after death.
    """

    def __init__(self, sim: Simulator, group: "ControllerGroup",
                 config: SwimConfig, seed: int):
        self.sim = sim
        self.group = group
        self.config = config
        self.seed = seed
        #: observer name -> subject name -> view
        self._views: Dict[str, Dict[str, _MemberView]] = {}
        self._rngs: Dict[str, np.random.Generator] = {}

    # -- state access ------------------------------------------------------------------
    def _rng(self, member_name: str) -> np.random.Generator:
        rng = self._rngs.get(member_name)
        if rng is None:
            rng = np.random.default_rng(
                [self.seed, zlib.crc32(member_name.encode())]
            )
            self._rngs[member_name] = rng
        return rng

    def view(self, observer: str, subject: str) -> _MemberView:
        views = self._views.setdefault(observer, {})
        v = views.get(subject)
        if v is None:
            v = _MemberView()
            views[subject] = v
        return v

    def state(self, observer: str, subject: str) -> str:
        views = self._views.get(observer)
        if views is None or subject not in views:
            return MEMBER_ALIVE
        return views[subject].state

    # -- probe machinery ---------------------------------------------------------------
    def _probe_loop(self, replica: ControllerReplica,
                    until_ns: Optional[int]):
        cfg = self.config
        # Stagger the replicas' probe ticks across the period so the
        # group's probes interleave instead of bursting.
        offset = (replica.rank * cfg.period_ns) // max(
            1, len(self.group.replicas)
        )
        if offset > 0:
            yield self.sim.timeout(offset)
        while until_ns is None or self.sim.now < until_ns:
            yield self.sim.timeout(cfg.period_ns)
            if not replica.up:
                continue
            target_name = self._pick_target(replica)
            if target_name is not None:
                ok = yield from self._probe(replica, target_name)
                self._observe(replica.name, target_name, ok)
            self._sweep(replica)

    def _pick_target(self, replica: ControllerReplica) -> Optional[str]:
        # Recovery verification: while a confirmed-dead member is
        # inside its rejoin stability window, probe *it* every period
        # instead of sampling randomly.  The gate clock only keeps
        # running while every one of those probes succeeds, so a link
        # that re-cuts mid-window is observed (and resets the clock)
        # within one period -- without this, an unlucky random-sample
        # streak could miss a whole cut and readmit a flapping member.
        views = self._views.get(replica.name)
        if views:
            for subject in sorted(views):
                view = views[subject]
                if (
                    view.state == MEMBER_DEAD
                    and view.rejoin_since_ns is not None
                ):
                    return subject
        candidates = [
            name for name in self.group.member_names()
            if name != replica.name
        ]
        if not candidates:
            return None
        pick = int(self._rng(replica.name).integers(0, len(candidates)))
        return candidates[pick]

    def _ping_once(self, src_nic: Nic, subject) -> bool:
        """Generator -> bool: one ping round-trip, raced with the ping
        timeout; a cut link or a dead subject reads as a miss."""
        group = self.group
        ok = yield from group._timed(
            group._round_trip(src_nic, subject, PING_BYTES)
        )
        return bool(ok)

    def _probe(self, replica: ControllerReplica, target_name: str):
        """Generator -> bool: direct ping, then ping-req via proxies."""
        self.group.pings.add()
        subject = self.group.endpoint(target_name)
        ok = yield from self._ping_once(replica.nic, subject)
        if ok:
            return True
        proxies = [
            peer for peer in self.group.replicas
            if peer is not replica and peer.name != target_name and peer.up
        ]
        fanout = min(self.config.ping_req_fanout, len(proxies))
        for _ in range(fanout):
            pick = int(self._rng(replica.name).integers(0, len(proxies)))
            proxy = proxies.pop(pick)
            self.group.ping_reqs.add()
            # ping-req leg: observer -> proxy, proxy probes, answer
            # back.  Any cut link on the way reads as a miss.
            ok = yield from self.group._round_trip(
                replica.nic, proxy, PING_BYTES,
                act=lambda: self._ping_once(proxy.nic, subject),
            )
            if ok:
                return True
        return False

    # -- state transitions -------------------------------------------------------------
    def _observe(self, observer: str, subject: str, ok: bool) -> None:
        view = self.view(observer, subject)
        now = self.sim.now
        if ok:
            if view.state == MEMBER_SUSPECT:
                view.state = MEMBER_ALIVE
                view.since_ns = now
                self.group._note_membership(observer, subject, "refute")
            elif view.state == MEMBER_DEAD:
                # Stability gate: a dead member must keep answering for
                # a full window before readmission, so heal/re-cut flaps
                # inside the suspicion window cannot oscillate.
                if view.rejoin_since_ns is None:
                    view.rejoin_since_ns = now
                elif now - view.rejoin_since_ns >= self.config.stable_ns():
                    view.state = MEMBER_ALIVE
                    view.since_ns = now
                    view.rejoin_since_ns = None
                    self.group._note_membership(observer, subject, "rejoin")
        else:
            if view.state == MEMBER_ALIVE:
                view.state = MEMBER_SUSPECT
                view.since_ns = now
                self.group._note_membership(observer, subject, "suspect")
            elif view.state == MEMBER_DEAD:
                view.rejoin_since_ns = None

    def _sweep(self, replica: ControllerReplica) -> None:
        """Confirm long-suspected members dead (observer-local)."""
        views = self._views.get(replica.name)
        if not views:
            return
        now = self.sim.now
        for subject in sorted(views):
            view = views[subject]
            if (
                view.state == MEMBER_SUSPECT
                and now - view.since_ns >= self.config.suspect_timeout_ns
            ):
                view.state = MEMBER_DEAD
                view.since_ns = now
                view.rejoin_since_ns = None
                self.group._note_membership(replica.name, subject, "confirm")


class ControllerGroup:
    """A replicated controller: N replicas fronting one shared
    :class:`~repro.cluster.control.ClusterController` state machine.

    ``replicas[0]`` (rank 0, name ``ctl0``) leads at term 1 out of the
    box -- matching the historical world where the controller simply
    exists.  :meth:`start` spawns the failure-detector processes; an
    inactive group (``n_replicas=1``) spawns nothing and changes
    nothing (the no-drift contract).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        controller,
        n_replicas: int = 3,
        swim: Optional[SwimConfig] = None,
        seed: int = 0,
        quorum: Optional[int] = None,
    ):
        if n_replicas < 1:
            raise ValueError("need at least one controller replica")
        self.sim = sim
        self.network = network
        self.controller = controller
        self.swim = swim if swim is not None else SwimConfig()
        self.seed = seed
        self.replicas: List[ControllerReplica] = [
            ControllerReplica(sim, f"ctl{i}", i) for i in range(n_replicas)
        ]
        self._by_name = {r.name: r for r in self.replicas}
        self.quorum = quorum if quorum is not None else n_replicas // 2 + 1
        if not 1 <= self.quorum <= n_replicas:
            raise ValueError(
                f"quorum {self.quorum} outside [1, {n_replicas}]"
            )
        self.leader: ControllerReplica = self.replicas[0]
        self.term = 1
        for member in self.replicas:
            member.term = 1  # everyone knows the founding leadership
        #: Storage nodes the detector also probes (name -> server).
        self.watched: Dict[str, object] = {}
        #: slice_id -> latest replicated MigrationRecord.
        self.records: Dict[int, MigrationRecord] = {}
        self.detector = SwimDetector(sim, self, self.swim, seed)
        self._started = False
        self._until_ns: Optional[int] = None
        self._electing: Dict[str, bool] = {}
        self.obs = None
        # -- counters ------------------------------------------------------------------
        self.pings = Counter("cluster.membership.pings")
        self.ping_reqs = Counter("cluster.membership.ping_reqs")
        self.suspicions = Counter("cluster.membership.suspicions")
        self.refutes = Counter("cluster.membership.refutes")
        self.confirms = Counter("cluster.membership.confirms")
        self.rejoins = Counter("cluster.membership.rejoins")
        self.elections = Counter("cluster.election.elections")
        self.election_rounds = Counter("cluster.election.rounds")
        self.fences = Counter("cluster.election.fences")
        self.replications = Counter("cluster.replication.records")
        self.replication_failures = Counter("cluster.replication.failures")
        self.migrations_resolved = Counter(
            "cluster.election.migrations_resolved"
        )
        #: Audit log of (at_ns, observer, subject, event) tuples --
        #: suspect/refute/confirm/rejoin/elect -- for determinism tests.
        self.events: List[Tuple[int, str, str, str]] = []
        if self.active:
            controller.group = self

    # -- basic shape -------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """False for the degenerate single-replica group, which must
        leave runs byte-identical to no group at all."""
        return len(self.replicas) > 1

    def replica(self, name: str) -> ControllerReplica:
        return self._by_name[name]

    def member_names(self) -> List[str]:
        """Every probe subject, in deterministic sorted order."""
        return sorted(self._by_name) + sorted(self.watched)

    def endpoint(self, name: str):
        got = self._by_name.get(name)
        if got is not None:
            return got
        return self.watched[name]

    def watch(self, name: str, server) -> None:
        """Add a storage node to the probed membership (probe-only:
        nodes hold no controller state and cast no votes)."""
        if name in self._by_name or name in self.watched:
            raise ValueError(f"member {name!r} already tracked")
        self.watched[name] = server

    def watch_nodes(self) -> None:
        """Watch every node currently enrolled in the controller."""
        for name in sorted(self.controller.nodes):
            if name not in self.watched:
                self.watch(name, self.controller.nodes[name])

    def membership_counts(self) -> Tuple[int, int, int]:
        """(alive, suspect, dead) from the authoritative observer --
        the lowest-rank live replica (the leader's own view wherever
        possible, matching what its policy decisions would act on)."""
        observer = None
        if self.leader is not None and self.leader.up:
            observer = self.leader
        else:
            for candidate in self.replicas:
                if candidate.up:
                    observer = candidate
                    break
        if observer is None:
            return (0, 0, len(self.member_names()) - len(self.replicas))
        alive = suspect = dead = 0
        for subject in self.member_names():
            if subject == observer.name:
                alive += 1
                continue
            state = self.detector.state(observer.name, subject)
            if state == MEMBER_ALIVE:
                alive += 1
            elif state == MEMBER_SUSPECT:
                suspect += 1
            else:
                dead += 1
        return (alive, suspect, dead)

    # -- lifecycle ---------------------------------------------------------------------
    def start(self, until_ns: Optional[int] = None) -> None:
        """Spawn the failure-detector probe loops (one per replica).

        No-op for an inactive group.  ``until_ns`` bounds the loops so
        tests can run the simulator dry.
        """
        if self._started:
            raise RuntimeError("ControllerGroup.start() called twice")
        self._started = True
        self._until_ns = until_ns
        if not self.active:
            return
        for replica in self.replicas:
            self.sim.process(self.detector._probe_loop(replica, until_ns))

    # -- messaging ---------------------------------------------------------------------
    def _round_trip(self, src_nic: Nic, peer, nbytes: int, act=None,
                    reply_bytes: int = ACK_BYTES, dropped=None):
        """Generator: one request/ack exchange with ``peer``.

        Sends ``nbytes``; a peer that is down gets no further and the
        result is None.  Otherwise ``act()`` runs at the peer (an act
        that returns a generator -- a ping-req's own probe -- runs on
        simulated time) and its value, True when there is no act, comes
        back with the ``reply_bytes`` ack.  A message dropped on either
        leg returns ``dropped``: a cut link reads as a silent peer.
        """
        try:
            yield from self.network.send(src_nic, peer.nic, nbytes)
            if not peer.up:
                return None
            value = True if act is None else act()
            if isinstance(value, GeneratorType):
                value = yield from value
            yield from self.network.send(peer.nic, src_nic, reply_bytes)
            return value
        except MessageDroppedError:
            return dropped

    def _timed(self, exchange):
        """Generator -> ``exchange``'s value run as its own process, or
        None when the ping timeout passes first."""
        proc = self.sim.process(exchange)
        done, value = yield from race_with_timeout(
            self.sim, proc, self.swim.ping_timeout_ns
        )
        return value if done else None

    def _instant(self, track: str, name: str, **args) -> None:
        """A trace instant, when an attached trace is enabled."""
        if self.obs is not None and self.obs.trace.enabled:
            self.obs.trace.instant(track, name, self.sim.now, **args)

    # -- membership events -------------------------------------------------------------
    def _note_membership(self, observer: str, subject: str,
                         event: str) -> None:
        """Count, log and trace one observer's verdict; a confirmed-dead
        leader sends a live observer campaigning."""
        counter = {
            "suspect": self.suspicions,
            "refute": self.refutes,
            "rejoin": self.rejoins,
            "confirm": self.confirms,
        }[event]
        counter.add()
        self.events.append((self.sim.now, observer, subject, event))
        self._instant(
            "cluster/membership", f"{event}:{subject}", observer=observer
        )
        if event != "confirm":
            return
        watcher = self._by_name.get(observer)
        leader = self.leader
        if (
            watcher is not None
            and watcher.up
            and leader is not None
            and subject == leader.name
        ):
            self._campaign(watcher)

    # -- election ----------------------------------------------------------------------
    def _campaign(self, candidate: ControllerReplica) -> None:
        if self._electing.get(candidate.name):
            return
        self._electing[candidate.name] = True
        self.sim.process(self._election_loop(candidate))

    def _election_loop(self, candidate: ControllerReplica):
        def seen_alive(peer) -> bool:
            state = self.detector.state(candidate.name, peer.name)
            return state == MEMBER_ALIVE

        try:
            while candidate.up and (
                self._until_ns is None or self.sim.now < self._until_ns
            ):
                leader = self.leader
                if leader is candidate:
                    return
                if leader is not None and leader.up and seen_alive(leader):
                    return  # leadership recovered (new leader, or heal)
                # Pre-vote guard: a candidate whose own view shows
                # fewer than a quorum of live replicas (itself
                # included) cannot win -- campaigning anyway would only
                # inflate its term, and a partitioned minority replica
                # would then depose a healthy leader the moment the
                # link heals (Raft's "disruptive server" problem).  It
                # stands by until its view recovers.
                live = 1 + sum(
                    1 for peer in self.replicas
                    if peer is not candidate and seen_alive(peer)
                )
                if live >= self.quorum:
                    # Bully: defer to any better-ranked replica this
                    # candidate still believes alive -- it will campaign.
                    better = [
                        peer for peer in self.replicas
                        if peer.rank < candidate.rank
                        and peer is not leader
                        and seen_alive(peer)
                    ]
                    if not better:
                        won = yield from self._election_round(candidate)
                        if won:
                            return
                yield self.sim.timeout(self.swim.period_ns)
        finally:
            self._electing[candidate.name] = False

    def _request_vote(self, candidate: ControllerReplica,
                      voter: ControllerReplica, term: int):
        """Generator -> (granted, voter_term); unreachable = (False, 0)."""

        def grant():
            granted = term > voter.voted_term and term > voter.term
            if granted:
                voter.voted_term = term
            return (granted, voter.term)

        result = yield from self._timed(
            self._round_trip(
                candidate.nic, voter, VOTE_BYTES, act=grant,
                reply_bytes=VOTE_BYTES,
            )
        )
        return result or (False, 0)

    def _election_round(self, candidate: ControllerReplica):
        """Generator -> bool: one campaign round at a fresh term."""
        self.election_rounds.add()
        proposed = max(candidate.term, candidate.voted_term) + 1
        candidate.voted_term = proposed  # votes for itself
        votes = 1
        highest_seen = 0
        for voter in self.replicas:
            if voter is candidate:
                continue
            granted, seen = yield from self._request_vote(
                candidate, voter, proposed
            )
            if granted:
                votes += 1
            highest_seen = max(highest_seen, seen)
        if highest_seen >= proposed:
            # Another leader already holds this term or later: adopt
            # and stand down for this round.
            candidate.term = max(candidate.term, highest_seen)
            return False
        if votes < self.quorum or not candidate.up:
            return False
        yield from self._install_leader(candidate, proposed)
        return True

    def _install_leader(self, candidate: ControllerReplica, term: int):
        """Generator: adopt leadership, fence the cluster, resolve any
        replicated in-flight migrations."""
        candidate.term = term
        self.leader = candidate
        self.term = term
        self.elections.add()
        self.events.append(
            (self.sim.now, candidate.name, candidate.name, "elect")
        )
        self._instant(
            "cluster/election", f"elect:{candidate.name}", term=term
        )

        def adopt():
            peer.term = max(peer.term, term)

        def fence():
            if term > node.controller_term:
                node.controller_term = term
            self.fences.add()

        # Announce to every reachable peer so followers adopt the term.
        for peer in self.replicas:
            if peer is not candidate:
                yield from self._round_trip(
                    candidate.nic, peer, ANNOUNCE_BYTES, act=adopt
                )
        # Fence every reachable storage node: the deposed leader's
        # commands die there from now on.
        for name in sorted(self.controller.nodes):
            node = self.controller.nodes[name]
            yield from self._round_trip(
                candidate.nic, node, FENCE_BYTES, act=fence
            )
        self.resolve_inflight()

    # -- replicated migration records --------------------------------------------------
    def open_lease(self, slice_id: int) -> ControllerLease:
        """Start a migration under the current leadership."""
        leader = self.leader
        if leader is None or not leader.up:
            raise ControllerUnavailableError(
                "no live controller leader to drive the migration"
            )
        return ControllerLease(slice_id, leader, self.term)

    def lease_current(self, lease: ControllerLease) -> bool:
        """Does this lease still own its slice's migration flags?

        False once a *newer* leadership has replicated a record for the
        slice -- the old driver must then leave the slice's shared
        migration flags (write block, compaction hold) alone, because
        the new migration owns them now.
        """
        record = self.records.get(lease.slice_id)
        return record is None or record.term <= lease.term

    def check_lease(self, lease: ControllerLease, *nodes) -> None:
        """Fencing checkpoint on the migration data path (synchronous).

        The driver must still be alive, and every involved node must
        accept the lease's term -- a node already fenced by a newer
        leader rejects it with :class:`~repro.errors.WrongEpochError`.
        """
        if not lease.replica.up:
            raise ControllerFencedError(
                f"controller {lease.replica.name} died mid-migration "
                f"of slice {lease.slice_id}"
            )
        for node in nodes:
            node.fence_controller(lease.term)

    def phase_barrier(self, phase: str, lease: ControllerLease,
                      src_name: str, dst_name: str):
        """Generator: one replicated phase boundary.

        The driver round-trips a fenced command to both involved nodes,
        then replicates the :class:`MigrationRecord` to its follower
        replicas; a majority (driver included) must ack before the
        phase proceeds.  Any of: driver dead, either node fenced by a
        newer term, a follower holding a newer term, or quorum
        unreachable -- aborts the migration here, *before* any
        irreversible step of the phase.
        """
        driver = lease.replica
        self.check_lease(lease)
        ctrl = self.controller
        for node_name in (src_name, dst_name):
            node = ctrl.nodes[node_name]
            # A down node is left for the migration's own liveness
            # checks, which raise the historical NodeDownError.
            reached = yield from self._round_trip(
                driver.nic, node, COMMAND_BYTES,
                act=lambda: node.fence_controller(lease.term),
                dropped=False,
            )
            if reached is False:
                raise ControllerFencedError(
                    f"leader {driver.name} cut off from {node_name} "
                    f"at {phase} of slice {lease.slice_id}"
                )
        record = MigrationRecord(
            lease.slice_id, phase, src_name, dst_name, lease.term
        )
        acks = 1  # the driver's own copy
        stale = False

        def accept():
            nonlocal stale
            if peer.term > lease.term:
                stale = True  # follower already serves a new leader
                return False
            peer.term = max(peer.term, lease.term)
            return True

        for peer in self.replicas:
            if peer is not driver:
                acked = yield from self._round_trip(
                    driver.nic, peer, RECORD_BYTES, act=accept
                )
                acks += bool(acked)
        if stale:
            raise ControllerFencedError(
                f"a follower holds a term newer than {lease.term}; "
                f"leader {driver.name} is deposed"
            )
        if acks < self.quorum:
            self.replication_failures.add()
            raise ControllerReplicationError(
                f"{phase} record for slice {lease.slice_id} reached "
                f"{acks}/{self.quorum} replicas"
            )
        self.check_lease(lease)  # the driver may have died meanwhile
        existing = self.records.get(lease.slice_id)
        if not (
            existing is not None
            and existing.term == lease.term
            and existing.phase in (RECORD_COMMITTED, RECORD_ABORTED)
        ):
            # Never demote a terminal record (the cleanup barrier runs
            # *after* the commit has already been noted).
            self.records[lease.slice_id] = record
        self.replications.add()
        return record

    def fence_publish(self, lease: ControllerLease) -> None:
        """The synchronous guard immediately before a routing-table
        publish: only the current leader, at the quorum-agreed term,
        may flip routing.  This is what makes a double cutover
        impossible -- a deposed leader reaching its commit point dies
        here, inside the no-yield commit block.
        """
        self.check_lease(lease)
        if lease.term < self.term or self.leader is not lease.replica:
            raise ControllerFencedError(
                f"deposed leader {lease.replica.name} (term "
                f"{lease.term} < {self.term}) may not publish routing"
            )

    def _settle(self, owner, phase: str) -> None:
        """Move a slice's record to the terminal ``phase``.  ``owner``
        is the lease that drove the migration or the record itself;
        a record a newer term has since written is left alone."""
        record = self.records.get(owner.slice_id)
        if record is not None and record.term == owner.term:
            self.records[owner.slice_id] = replace(record, phase=phase)

    def resolve_inflight(self) -> List[Tuple[int, str]]:
        """Resume-or-abort every replicated mid-flight migration.

        Called by a freshly installed leader (synchronously -- no
        simulated time passes, so no new fault can interleave).  For
        each non-terminal record: if the routing table already shows
        the cutover (dst owns the slice), the migration committed and
        the record is marked so; otherwise the safe resolution is
        abort -- discard the importing twin on the destination and
        unfreeze the source, leaving it authoritative.  The units the
        twin's runs hold are its driver's to give back: a fenced driver
        always reaches its rollback at its next lease check.  Returns
        ``[(slice_id, resolution), ...]`` for reporting.
        """
        ctrl = self.controller
        resolutions: List[Tuple[int, str]] = []
        for slice_id in sorted(self.records):
            record = self.records[slice_id]
            if record.phase in (RECORD_COMMITTED, RECORD_ABORTED):
                continue
            try:
                entry = ctrl.table.entry(slice_id)
            except KeyError:
                continue
            committed = (
                record.dst in entry.replicas
                and record.src not in entry.replicas
            )
            if committed:
                self._settle(record, RECORD_COMMITTED)
                resolutions.append((slice_id, "adopted"))
            else:
                dst = ctrl.nodes.get(record.dst)
                if dst is not None:
                    for slice_ in list(dst.slices):
                        if slice_.slice_id == slice_id and slice_.importing:
                            dst.remove_slice(slice_)
                hosts = ctrl._replicas.get(slice_id, {})
                source_slice = hosts.get(record.src)
                if source_slice is not None:
                    source_slice.write_blocked = False
                self._settle(record, RECORD_ABORTED)
                resolutions.append((slice_id, "aborted"))
            self.migrations_resolved.add()
            self._instant(
                "cluster/election",
                f"resolve:{resolutions[-1][1]}:slice{slice_id}",
                phase=record.phase,
            )
        return resolutions

    def __repr__(self):
        return (
            f"ControllerGroup({len(self.replicas)} replicas, "
            f"leader={self.leader.name if self.leader else None}, "
            f"term={self.term})"
        )
