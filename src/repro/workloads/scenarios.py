"""Fleet-day scenarios: seeded, deterministic production workloads.

This is the production workload engine the roadmap asks for: a scenario
composes key-popularity models, YCSB-style per-tenant operation mixes,
open-loop arrival schedules (diurnal waves, flash crowds), value-size
distributions and per-tenant SLOs, and runs them against a multi-node
cluster with every plane attached at once -- observability, fault
injection, QoS admission/breakers and the control-plane rebalancer.

The contract matches the rest of the repo's planes:

* **Deterministic** -- a :class:`Scenario` plus its seed fully determines
  the simulated run; :meth:`ScenarioResult.to_json` is byte-identical
  across repeated runs.
* **Composable** -- tenants are independent declarations; planes are
  opt-in (``qos=None`` runs unprotected, ``faults`` empty runs clean).
* **Reported through repro.obs** -- per-tenant goodput/latency live in
  the metrics registry under ``tenant.{name}.*`` labels; the result
  object is assembled *from* the registry snapshot, so anything the
  report shows is also visible to metric-driven tooling.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, TransientFault
from repro.faults.injector import BROWNOUT, CRASH
from repro.faults.plan import FaultPlan
from repro.kv.common import PlaceholderValue
from repro.obs.attach import Observability
from repro.obs.metrics import Histogram
from repro.sim import Simulator
from repro.sim.shard import run_sharded
from repro.sim.units import MS, S
from repro.workloads.arrivals import OpenLoopArrivals
from repro.workloads.tenants import TenantSpec

#: Bounded per-request retry budget (shed/drop/redirect recovery).
MAX_ATTEMPTS = 6
RETRY_BACKOFF_NS = 2 * MS


@dataclass(frozen=True)
class FaultBurst:
    """One scheduled node fault inside a scenario.

    ``node`` indexes the scenario's nodes (``n0``, ``n1``, ...);
    ``kind`` is :data:`~repro.faults.injector.CRASH` or
    :data:`~repro.faults.injector.BROWNOUT` (``multiplier`` applies to
    brownouts only).
    """

    node: int
    at_ns: int
    duration_ns: int
    kind: str = CRASH
    multiplier: float = 10.0

    def __post_init__(self):
        if self.node < 0:
            raise ValueError("node index must be >= 0")
        if self.at_ns < 0 or self.duration_ns < 1:
            raise ValueError("need at_ns >= 0 and duration_ns >= 1")
        if self.kind not in (CRASH, BROWNOUT):
            raise ValueError(f"kind must be crash/brownout, got {self.kind!r}")


@dataclass(frozen=True)
class Scenario:
    """A declarative fleet-day: cluster shape + tenants + disruptions."""

    name: str
    tenants: Tuple[TenantSpec, ...]
    duration_ns: int = S
    n_nodes: int = 3
    n_slices: int = 6
    key_span: int = 60_000
    seed: int = 0
    faults: Tuple[FaultBurst, ...] = ()
    #: Period of control-plane rebalance passes (None = rebalancer off).
    rebalance_every_ns: Optional[int] = None
    rebalance_imbalance: float = 2.5
    #: Keys functionally preloaded per slice (read working set).
    preload_keys_per_slice: int = 48
    preload_value_bytes: int = 16 * 1024
    memtable_bytes: int = 256 * 1024
    #: Per-node device scale-down (see benchmarks/_bench_common.py).
    capacity_scale: float = 0.01
    n_channels: int = 4
    #: Storage backend per node -- any device kind
    #: (``repro.devices.device_kinds()``): "sdf", "conventional",
    #: "dftl", "hybrid", "mqftl", "zoned".
    device_kind: str = "sdf"

    def __post_init__(self):
        object.__setattr__(self, "tenants", tuple(self.tenants))
        object.__setattr__(self, "faults", tuple(self.faults))
        if not self.tenants:
            raise ValueError("a scenario needs at least one tenant")
        if len({t.name for t in self.tenants}) != len(self.tenants):
            raise ValueError("tenant names must be unique")
        if self.n_nodes < 1 or self.n_slices < 1:
            raise ValueError("need n_nodes >= 1 and n_slices >= 1")
        if self.key_span < self.n_slices:
            raise ValueError("key_span must cover at least one key per slice")
        if self.duration_ns < 1:
            raise ValueError("duration_ns must be >= 1")
        from repro.devices.catalog import device_kinds

        if self.device_kind not in device_kinds():
            raise ConfigError(
                f"unknown device kind {self.device_kind!r}; known kinds: "
                f"{', '.join(device_kinds())}"
            )
        for burst in self.faults:
            if burst.node >= self.n_nodes:
                raise ValueError(
                    f"fault burst targets node {burst.node} but the "
                    f"scenario has {self.n_nodes} nodes"
                )
        for tenant in self.tenants:
            if tenant.keys.lo < 0 or tenant.keys.hi > self.key_span:
                raise ValueError(
                    f"tenant {tenant.name!r} key model "
                    f"[{tenant.keys.lo}, {tenant.keys.hi}) outside the "
                    f"scenario keyspace [0, {self.key_span})"
                )


@dataclass
class TenantReport:
    """Per-tenant outcome summary (assembled from the obs registry)."""

    name: str
    offered: int = 0
    good: int = 0
    late: int = 0
    shed: int = 0
    retries: int = 0
    goodput_rps: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    deadline_ms: float = 0.0
    p99_slo_ok: Optional[bool] = None
    goodput_slo_ok: Optional[bool] = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "offered": self.offered,
            "good": self.good,
            "late": self.late,
            "shed": self.shed,
            "retries": self.retries,
            "goodput_rps": round(self.goodput_rps, 3),
            "p50_ms": round(self.p50_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "deadline_ms": round(self.deadline_ms, 4),
            "p99_slo_ok": self.p99_slo_ok,
            "goodput_slo_ok": self.goodput_slo_ok,
        }


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    scenario: str
    seed: int
    duration_ns: int
    sim_end_ns: int
    tenants: Dict[str, TenantReport] = field(default_factory=dict)
    faults_fired: int = 0
    migrations_completed: int = 0
    migrations_aborted: int = 0
    rebalance_moves: int = 0
    policy_fires: int = 0
    snapshot: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """A canonical (sorted, byte-stable) JSON report."""
        return json.dumps(
            {
                "scenario": self.scenario,
                "seed": self.seed,
                "duration_ns": self.duration_ns,
                "sim_end_ns": self.sim_end_ns,
                "tenants": {
                    name: report.as_dict()
                    for name, report in sorted(self.tenants.items())
                },
                "faults_fired": self.faults_fired,
                "migrations_completed": self.migrations_completed,
                "migrations_aborted": self.migrations_aborted,
                "rebalance_moves": self.rebalance_moves,
                "policy_fires": self.policy_fires,
            },
            sort_keys=True,
        )


class ScenarioRunner:
    """Builds the cluster, wires the planes, and drives one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        qos=None,
        obs: Optional[Observability] = None,
        policy=None,
        only_node: Optional[int] = None,
    ):
        from repro.cluster.control import ClusterController
        from repro.cluster.network import Network
        from repro.cluster.node import build_storage_server
        from repro.kv.slice import KeyRange

        self.scenario = scenario
        self.qos = qos
        #: Sharded mode: build and simulate only this node (plus the
        #: tenant drivers, which run everywhere so every shard draws the
        #: full arrival chronology and skips foreign-owned requests).
        self.only_node = only_node
        self._local_name = f"n{only_node}" if only_node is not None else None
        if only_node is not None and not (0 <= only_node < scenario.n_nodes):
            raise ConfigError(
                f"only_node {only_node} outside [0, {scenario.n_nodes})"
            )
        # An empty PolicyPlan must leave the run untouched (the no-drift
        # contract every plane honours), so it is simply not wired.
        self.policy = policy if policy is not None and policy.rules else None
        self.sim = Simulator()
        self.obs = obs if obs is not None else Observability()
        self.network = Network(self.sim)
        self.plan = FaultPlan(seed=scenario.seed)
        for burst in scenario.faults:
            if only_node is not None and burst.node != only_node:
                continue  # foreign node: its shard schedules it
            kwargs = (
                {"multiplier": burst.multiplier}
                if burst.kind == BROWNOUT
                else {}
            )
            self.plan.schedule(
                f"n{burst.node}",
                burst.kind,
                burst.at_ns,
                burst.duration_ns,
                **kwargs,
            )
        self.ctrl = ClusterController(self.sim, self.network)
        self.obs.attach(self.ctrl)
        self.plan.attach(self.ctrl)
        if qos is not None:
            qos.attach(self.ctrl)
            # Mirror shed/stall/breaker counters into the registry:
            # policy rules read them (``qos.{node}.shed_reads``), and
            # operators get them in the result snapshot for free.
            self.obs.attach(qos)
        if self.policy is not None:
            self.policy.attach(self.ctrl)
            self.obs.attach(self.policy)
        self.breakers: Dict[str, object] = {}
        #: Server -> enrolled name, for the per-attempt breaker lookup.
        self._node_names: Dict[object, str] = {}
        for index in range(scenario.n_nodes):
            if only_node is not None and index != only_node:
                continue
            name = f"n{index}"
            server = build_storage_server(
                self.sim,
                [],
                device_kind=scenario.device_kind,
                capacity_scale=scenario.capacity_scale,
                n_channels=scenario.n_channels,
            )
            self.ctrl.add_node(name, server)
            self._node_names[server] = name
            self.obs.attach(server)
            self.plan.attach(server, name)
            if qos is not None:
                qos.attach(server, name)
                breaker = qos.make_breaker(self.sim, name=f"breaker.{name}")
                if breaker is not None:
                    self.breakers[name] = breaker
            if self.policy is not None:
                self.policy.attach(server, name)
        # Slices partition [0, key_span), placed round-robin.  Placement
        # is computed over the *global* (lexicographically sorted) node
        # names even in sharded mode, so every shard agrees on who owns
        # what and the local subset matches the in-process layout.
        span = scenario.key_span
        bounds = [
            span * index // scenario.n_slices
            for index in range(scenario.n_slices + 1)
        ]
        self._slice_los: List[int] = bounds[:-1]
        node_names = sorted(f"n{i}" for i in range(scenario.n_nodes))
        self._owners: List[str] = [
            node_names[index % len(node_names)]
            for index in range(scenario.n_slices)
        ]
        for index in range(scenario.n_slices):
            owner = self._owners[index]
            if self._local_name is not None and owner != self._local_name:
                continue
            self.ctrl.create_slice(
                KeyRange(bounds[index], bounds[index + 1]),
                on=[owner],
                memtable_bytes=scenario.memtable_bytes,
            )
        self._preload()

    # -- setup -------------------------------------------------------------------------
    def _preload(self) -> None:
        """Functionally populate every slice's read working set."""
        scenario = self.scenario
        for name in sorted(self.ctrl.nodes):
            server = self.ctrl.nodes[name]
            for slice_ in server.slices:
                lo = slice_.key_range.lo
                count = min(
                    scenario.preload_keys_per_slice,
                    slice_.key_range.hi - lo,
                )
                server.preload(
                    slice_,
                    [lo + offset for offset in range(count)],
                    scenario.preload_value_bytes,
                )

    def _quantize(self, key: int) -> int:
        """Fold a raw key onto its slice's preloaded working set.

        Read/scan keys must hit data; writes use the raw key.  The fold
        keeps the slice (so skew still lands where the popularity model
        put it) and wraps the offset into the preloaded prefix.
        """
        index = bisect.bisect_right(self._slice_los, key) - 1
        lo = self._slice_los[index]
        hi = (
            self._slice_los[index + 1]
            if index + 1 < len(self._slice_los)
            else self.scenario.key_span
        )
        count = min(self.scenario.preload_keys_per_slice, hi - lo)
        return lo + (key - lo) % count

    # -- request execution -------------------------------------------------------------
    def _count(self, tenant: str, outcome: str) -> None:
        """One more request ``outcome`` for ``tenant``, in the registry
        the report is read from."""
        self.obs.metrics.counter(f"tenant.{tenant}.{outcome}").add(1)

    def _rebalancer(self):
        """Periodic load-driven rebalance passes for the whole run."""
        scenario = self.scenario
        while self.sim.now < scenario.duration_ns:
            yield self.sim.timeout(scenario.rebalance_every_ns)
            try:
                yield from self.ctrl.rebalance(
                    imbalance=scenario.rebalance_imbalance
                )
            except (TransientFault, KeyError):
                # An injected abort or a node crash mid-migration:
                # routing rolled back; try again next pass.
                pass

    # -- run ---------------------------------------------------------------------------
    def run(self) -> ScenarioResult:
        scenario = self.scenario
        self.plan.start()
        if self.policy is not None:
            # Stop ticking at duration_ns so the post-deadline drain is
            # pure drain -- the plan never acts on a closing system.
            self.policy.start(self.sim, until_ns=scenario.duration_ns)
        for index, tenant in enumerate(scenario.tenants):
            self.sim._schedule_call(_TenantArrivals(self, tenant, index).start)
        if scenario.rebalance_every_ns is not None:
            self.sim.process(self._rebalancer())
        # Drain: drivers stop issuing at duration_ns; in-flight
        # requests, retries, flushes and migrations run to completion.
        self.sim.run()
        return self._report()

    def _report(self) -> ScenarioResult:
        scenario = self.scenario
        snapshot = self.obs.metrics.snapshot(self.sim.now)
        result = ScenarioResult(
            scenario=scenario.name,
            seed=scenario.seed,
            duration_ns=scenario.duration_ns,
            sim_end_ns=self.sim.now,
            faults_fired=self.plan.fault_count(),
            migrations_completed=self.ctrl.migrations_completed.value,
            migrations_aborted=self.ctrl.migrations_aborted.value,
            rebalance_moves=self.ctrl.rebalance_moves.value,
            policy_fires=(
                self.policy.total_fires if self.policy is not None else 0
            ),
            snapshot=snapshot,
        )
        duration_s = scenario.duration_ns / 1e9
        for tenant in scenario.tenants:
            # Assembled *from the registry*: the per-tenant labels the
            # servers and drivers recorded are the source of truth.
            latency = snapshot.get(
                f"tenant.{tenant.name}.request_ns", {"count": 0}
            )
            result.tenants[tenant.name] = _tenant_report(
                tenant, _tenant_counts(snapshot, tenant), latency, duration_s
            )
        return result


class _TenantArrivals:
    """One tenant's open-loop arrivals: a request object per arrival.

    Every random draw happens *here*, in arrival order, so the request
    interleaving downstream can never perturb the sampled workload --
    the key to byte-identical reruns.  The next arrival is one timer
    away; an arrival starts its request at once, in the slot a process
    would have taken for its first step.
    """

    __slots__ = ("runner", "tenant", "index", "rng", "view", "times")

    def __init__(self, runner: ScenarioRunner, tenant: TenantSpec, index: int):
        self.runner = runner
        self.tenant = tenant
        self.index = index

    def start(self) -> None:
        runner = self.runner
        scenario = runner.scenario
        self.rng = np.random.default_rng([scenario.seed, self.index])
        self.view = runner.ctrl.view()
        self.times = OpenLoopArrivals(self.tenant.arrivals).times(
            self.rng, 0, scenario.duration_ns
        )
        self.advance()

    def advance(self) -> None:
        """Arrivals up to the first one still to come."""
        sim = self.runner.sim
        for at_ns in self.times:
            delay = at_ns - sim._now
            if delay > 0:
                sim._schedule_call(self.arrived, delay)
                return
            self.arrive()

    def arrived(self) -> None:
        self.arrive()
        self.advance()

    def arrive(self) -> None:
        runner = self.runner
        sim = runner.sim
        tenant = self.tenant
        rng = self.rng
        op = tenant.mix.sample(rng)
        key = tenant.keys.sample(rng, sim._now)
        if op != "write":
            key = runner._quantize(key)
        size = tenant.sizes.sample(rng)
        seed = int(rng.integers(0, 2**31))
        if runner._local_name is not None:
            # Sharded: every shard makes every draw above (keeping the
            # RNG stream byte-identical) but only the owning shard
            # issues the request.
            slice_index = bisect.bisect_right(runner._slice_los, key) - 1
            if runner._owners[slice_index] != runner._local_name:
                return
        runner._count(tenant.name, "offered")
        sim._schedule_call(
            _Request(runner, tenant, self.view, op, key, size, seed).begin
        )


class _Request:
    """One open-loop request with bounded shed/retry.

    Each attempt is a get, a put (``StorageServer.handle_*_call``) or a
    scan (:meth:`scan`); its outcome comes back to :meth:`served` or
    :meth:`failed`, and a retry's backoff is one timer.
    """

    __slots__ = (
        "runner", "tenant", "view", "op", "key", "size", "seed", "start",
        "deadline", "attempt", "rng", "breaker",
    )

    def __init__(self, runner, tenant, view, op, key, size, seed):
        self.runner = runner
        self.tenant = tenant
        self.view = view
        self.op = op
        self.key = key
        self.size = size
        self.seed = seed
        self.attempt = 0
        self.rng = None  # drawn from only to jitter a retry's backoff

    def begin(self) -> None:
        now = self.runner.sim._now
        self.start = now
        self.deadline = now + self.tenant.slo.deadline_ns
        self.issue()

    def retry(self) -> None:
        """An attempt failed or could not be made: back off, or shed."""
        attempt = self.attempt = self.attempt + 1
        if attempt == MAX_ATTEMPTS:
            self.shed()
            return
        runner = self.runner
        runner._count(self.tenant.name, "retries")
        backoff = RETRY_BACKOFF_NS << (attempt - 1)
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)
        runner.sim._schedule_call(
            self.backed_off, int(backoff * (1.0 + self.rng.random()))
        )

    def backed_off(self) -> None:
        self.view.refresh()
        self.issue()

    def issue(self) -> None:
        runner = self.runner
        if runner.sim._now > self.deadline:
            self.shed()  # doomed: the SLO window is already gone
            return
        try:
            server, entry = self.view.lookup(self.key)
        except KeyError:
            self.retry()  # stale view names a since-split slice
            return
        breaker = self.breaker = runner.breakers.get(
            runner._node_names.get(server)
        )
        if breaker is not None and not breaker.allow():
            self.retry()  # fast local failure; retry elsewhere/later
            return
        tenant = self.tenant
        try:
            if self.op == "read":
                server.handle_get_call(
                    self.key, self.deadline, entry.epoch, tenant.name,
                    self.served, self.failed,
                )
            elif self.op == "write":
                server.handle_put_call(
                    self.key, PlaceholderValue(self.size), self.deadline,
                    entry.epoch, tenant.name, self.served, self.failed,
                )
            else:
                self.scan(server)
        except (TransientFault, KeyError):
            self.failed_attempt()

    def scan(self, server) -> None:
        """One scan: plan the range, read at most one backing patch."""
        key = self.key
        tenant = self.tenant
        hi = min(key + tenant.scan_span, self.runner.scenario.key_span)
        if hi <= key:
            hi = key + 1
        for slice_, _memory_items, runs in server.scan_plan(key, hi):
            if runs:
                server.handle_patch_read_call(
                    runs[0].handle, slice_, self.deadline, tenant.name,
                    self.served, self.failed,
                )
                return
        # Entirely memory-resident: charge one dispatch quantum.
        self.runner.sim._schedule_call(self.served, server.per_request_cpu_ns)

    def shed(self) -> None:
        self.runner._count(self.tenant.name, "shed")

    def failed(self, exc: BaseException) -> None:
        if not isinstance(exc, (TransientFault, KeyError)):
            raise exc
        self.failed_attempt()

    def failed_attempt(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()
        self.retry()

    def served(self, _=None) -> None:
        runner = self.runner
        if self.breaker is not None:
            self.breaker.record_success()
        now = runner.sim._now
        name = self.tenant.name
        runner.obs.metrics.histogram(f"tenant.{name}.request_ns").record(
            now - self.start
        )
        runner._count(name, "good" if now <= self.deadline else "late")


def _tenant_counts(snapshot: dict, tenant: TenantSpec) -> Dict[str, int]:
    """A tenant's request outcome counts, read from a registry snapshot."""
    return {
        field_name: int(snapshot.get(f"tenant.{tenant.name}.{field_name}", 0))
        for field_name in ("offered", "good", "late", "shed", "retries")
    }


def _tenant_report(
    tenant: TenantSpec, counts: dict, latency: dict, duration_s: float
) -> TenantReport:
    """Assemble one tenant's report from counts + a latency summary.

    Shared by the in-process and sharded paths so the derived floats
    (goodput, ms conversions, SLO booleans) go through one code path --
    identical arithmetic, byte-identical ``to_json``.
    """
    report = TenantReport(
        name=tenant.name,
        offered=int(counts.get("offered", 0)),
        good=int(counts.get("good", 0)),
        late=int(counts.get("late", 0)),
        shed=int(counts.get("shed", 0)),
        retries=int(counts.get("retries", 0)),
        deadline_ms=tenant.slo.deadline_ns / 1e6,
    )
    report.goodput_rps = report.good / duration_s
    if latency["count"]:
        report.p50_ms = latency["p50"] / 1e6
        report.p99_ms = latency["p99"] / 1e6
    if tenant.slo.target_p99_ns is not None:
        report.p99_slo_ok = bool(
            latency["count"] and latency["p99"] <= tenant.slo.target_p99_ns
        )
    if tenant.slo.min_goodput_rps is not None:
        report.goodput_slo_ok = bool(
            report.goodput_rps >= tenant.slo.min_goodput_rps
        )
    return report


def run_scenario(
    scenario: Scenario,
    qos=None,
    obs: Optional[Observability] = None,
    policy=None,
) -> ScenarioResult:
    """Build, wire and run one scenario; returns its result
    (:func:`run_scenario_sharded` runs it as per-node shards)."""
    return ScenarioRunner(scenario, qos=qos, obs=obs, policy=policy).run()


# -- sharded execution ------------------------------------------------------------


def _clone_qos(qos):
    """A fresh single-use :class:`~repro.qos.config.QosPlan` from a
    caller plan's frozen sub-configs (plans hold per-run mutable state
    and must never be reused across simulations)."""
    if qos is None:
        return None
    from repro.qos.config import QosPlan

    return QosPlan(
        channel=qos.channel,
        write_stall=qos.write_stall,
        admission=qos.admission,
        migration=qos.migration,
        breaker=qos.breaker,
    )


def _shard_node_payload(scenario: Scenario, node_index: int, qos) -> dict:
    """Worker body: simulate one node's shard, return plain-data results."""
    runner = ScenarioRunner(
        scenario,
        qos=_clone_qos(qos),
        obs=Observability(),
        only_node=node_index,
    )
    result = runner.run()
    metrics = runner.obs.metrics
    return {
        "node": node_index,
        "events": int(runner.sim._seq),
        "sim_end_ns": int(runner.sim.now),
        "faults_fired": runner.plan.fault_count(),
        "fault_log": list(runner.plan.signatures()),
        "outcomes": {
            tenant.name: _tenant_counts(result.snapshot, tenant)
            for tenant in scenario.tenants
        },
        "samples": {
            tenant.name: metrics.histogram(
                f"tenant.{tenant.name}.request_ns"
            ).samples
            for tenant in scenario.tenants
        },
        "result_json": result.to_json(),
    }


def _merge_payloads(scenario: Scenario, payloads: list) -> ScenarioResult:
    """Deterministic merge of per-node shard payloads.

    Tenant counts are order-free sums; latency percentiles are computed
    by pooling every shard's samples into one fresh histogram and going
    through the same ``summary()`` path as the in-process report; the
    fault logs merge chronologically, ties by node, then by log order.
    """
    # signature[2] is the event's at_ns (see FaultEvent).
    merged = sorted(
        (signature[2], stream, arrival, tuple(signature))
        for stream, payload in enumerate(payloads)
        for arrival, signature in enumerate(payload["fault_log"])
    )
    fault_log = [signature for _, _, _, signature in merged]

    duration_s = scenario.duration_ns / 1e9
    result = ScenarioResult(
        scenario=scenario.name,
        seed=scenario.seed,
        duration_ns=scenario.duration_ns,
        sim_end_ns=max(p["sim_end_ns"] for p in payloads),
        faults_fired=sum(p["faults_fired"] for p in payloads),
        snapshot={
            "faults.merged_log": fault_log,
            # Deterministic total event count across shards (the perf
            # harness gates on it, like sim._seq for in-process runs).
            "shard.events": sum(p["events"] for p in payloads),
        },
    )
    for tenant in scenario.tenants:
        counts: Dict[str, int] = {}
        for payload in payloads:
            for field_name, value in payload["outcomes"][tenant.name].items():
                counts[field_name] = counts.get(field_name, 0) + value
        pooled = Histogram(f"tenant.{tenant.name}.request_ns")
        for payload in payloads:
            pooled.extend(payload["samples"][tenant.name])
        latency = pooled.summary()
        result.snapshot[pooled.name] = latency
        for field_name, value in sorted(counts.items()):
            result.snapshot[f"tenant.{tenant.name}.{field_name}"] = value
        result.tenants[tenant.name] = _tenant_report(
            tenant, counts, latency, duration_s
        )
    return result


def run_scenario_sharded(
    scenario: Scenario,
    workers: int,
    qos=None,
    policy=None,
) -> ScenarioResult:
    """Run one scenario as per-node shards in worker processes.

    Eligible only when the control plane is *static* for the run -- no
    rebalancer and no (non-empty) policy plan -- because those act on
    cross-node state mid-run, which would couple the shards.  Every
    shard replays the full tenant-driver chronology (all RNG draws) and
    issues only its own node's requests, so per-node event streams are
    identical to the in-process run's restriction to that node, and the
    merged :meth:`ScenarioResult.to_json` is byte-identical to the
    in-process result for any worker count (1, 2, N -- see
    :mod:`repro.sim.shard` for why worker count cannot matter).

    The caller's ``qos`` plan is treated as a template: each shard
    rebuilds a fresh single-use plan from its frozen sub-configs.
    Per-shard observability stays inside the workers (plain-data
    summaries cross the process boundary); attach a full
    :class:`Observability` via the in-process path when you need traces.
    """
    if scenario.rebalance_every_ns is not None:
        raise ConfigError(
            "sharded execution requires a static control plane: "
            "disable the rebalancer (rebalance_every_ns=None)"
        )
    if policy is not None and getattr(policy, "rules", None):
        raise ConfigError(
            "sharded execution requires a static control plane: "
            "policy plans with rules act across nodes mid-run"
        )
    tasks = [
        (lambda index=index: _shard_node_payload(scenario, index, qos))
        for index in range(scenario.n_nodes)
    ]
    payloads = run_sharded(tasks, workers)
    return _merge_payloads(scenario, payloads)
