"""The policy plane: closes the obs -> control loop, deterministically.

:class:`PolicyPlan` is the declarative bundle -- rules plus an
evaluation period and a seed -- following the same attachment
discipline as every other plane: build it up front, ``attach`` it to
the cluster controller and the storage servers it may act on (it
records them as actuator targets), and the *empty* plan wires nothing
at all, so a run with an empty plan attached is byte-identical to a
run with no plan (``tests/policy/test_scenario_no_drift.py``).

:meth:`PolicyPlan.start` makes the plan the live evaluator: one
simulation process that wakes every ``period_ns`` of *simulated* time,
reads each rule's signal through the registry's non-creating ``peek``,
feeds the no-flap automaton (:class:`~repro.policy.rules.RuleState`),
and on a fire applies the rule's action -- synchronously, or as a
spawned process for actions that take simulated time.  Every
evaluation draws nothing from any global RNG: each rule owns a private
``numpy`` Generator stream seeded ``[plan.seed, rule_index]``, so two
runs of the same plan against the same workload replay byte-identically.

Every fire/suppress/cooldown outcome is emitted through ``repro.obs``
(``obs.attach(plan)``) as ``policy.{rule}.{outcome}`` counters plus
instant trace events on the ``policy`` track, so the control loop's
own behaviour is as observable as the system it steers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.policy.rules import FIRED, IDLE, PENDING, Rule
from repro.sim.units import MS


class PolicyContext:
    """What signals and actions see: clock, metrics, actuators.

    ``metric(name)`` is a non-creating registry read (``None`` when the
    metric does not exist yet); ``delta(key, value)`` returns the
    change in ``value`` since the previous evaluation tick under the
    caller's ``key`` (0.0 on first observation) -- the plan promotes
    the current tick's readings to "previous" after each evaluation
    pass, so every rule in one pass windows against the same baseline.
    """

    def __init__(self, sim, obs=None, controller=None, servers=None):
        self.sim = sim
        self.obs = obs
        self.controller = controller
        self.servers: Dict[str, object] = dict(servers or {})
        self.now: int = sim.now if sim is not None else 0
        self.tick_ns: int = 0
        self._prev: Dict[tuple, float] = {}
        self._curr: Dict[tuple, float] = {}

    def metric(self, name: str):
        if self.obs is None:
            return None
        return self.obs.metrics.peek(name, self.now)

    def delta(self, key: tuple, value: float) -> float:
        self._curr[key] = value
        return value - self._prev.get(key, value)

    def _advance(self, now: int, tick_ns: int) -> None:
        self._prev.update(self._curr)
        self._curr = {}
        self.now = now
        self.tick_ns = tick_ns


class PolicyPlan:
    """A declarative set of rules, and their evaluator once started.

    :meth:`attach` records the actuators (``_controller``,
    ``_servers``); :meth:`start` hands them to the
    :class:`PolicyContext` the rules see, so attachment order (qos
    before or after policy) does not matter.  A plan runs once.
    """

    def __init__(
        self,
        rules: Tuple[Rule, ...] = (),
        period_ns: int = 10 * MS,
        seed: int = 0,
    ):
        self.rules: Tuple[Rule, ...] = tuple(rules)
        if period_ns < 1:
            raise ValueError("period_ns must be >= 1")
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"rule names must be unique: {names}")
        self.period_ns = period_ns
        self.seed = seed
        self.obs = None
        self._controller = None
        self._servers: Dict[str, object] = {}
        self.sim = None
        self.ctx: Optional[PolicyContext] = None
        self._states = [rule.make_state() for rule in self.rules]
        self._rngs = [
            np.random.default_rng([seed, index])
            for index in range(len(self.rules))
        ]
        self._busy: Dict[str, bool] = {}
        #: (fire_time_ns, rule_name) per fire, in order.
        self.fire_log: List[Tuple[int, str]] = []
        self.outcome_counts: Dict[str, Dict[str, int]] = {
            rule.name: {} for rule in self.rules
        }
        self.evaluations = 0

    @property
    def empty(self) -> bool:
        """True when attaching this plan wires nothing anywhere."""
        return not self.rules

    def attach(self, target, name: str = "") -> "PolicyPlan":
        """Make a cluster controller the plan's control-plane actuator
        (rebalance, migration pacing), or record a storage
        server under ``name`` (default ``server``) as an actuator
        target; returns ``self`` so calls chain."""
        from repro.cluster import ClusterController, StorageServer

        if isinstance(target, ClusterController):
            self._controller = target
        elif isinstance(target, StorageServer):
            self._servers[name or "server"] = target
        else:
            raise TypeError(
                f"PolicyPlan cannot attach to {type(target).__name__}"
            )
        return self

    # -- results -----------------------------------------------------------------------
    @property
    def total_fires(self) -> int:
        return len(self.fire_log)

    def fires(self, rule_name: str) -> int:
        return sum(1 for _at, name in self.fire_log if name == rule_name)

    # -- driving -----------------------------------------------------------------------
    def start(self, sim, until_ns: Optional[int] = None) -> None:
        """Spawn the evaluation loop on ``sim`` (call once, before or
        during ``sim.run()``).

        ``until_ns`` stops the loop at that simulated time, so a
        drain-to-empty run terminates; ``None`` ticks forever (only
        safe under ``sim.run(until=...)``).
        """
        if self.sim is not None:
            raise RuntimeError("PolicyPlan.start() called twice")
        self.sim = sim
        self.ctx = PolicyContext(
            sim,
            obs=self.obs,
            controller=self._controller,
            servers=self._servers,
        )
        if not self.rules:
            return  # an empty plan schedules nothing
        sim.process(self._loop(until_ns))

    def _loop(self, until_ns: Optional[int]):
        period = self.period_ns
        while True:
            if until_ns is not None and self.sim.now + period > until_ns:
                return
            yield self.sim.timeout(period)
            self.evaluate()

    # -- evaluation --------------------------------------------------------------------
    def evaluate(self) -> None:
        """One pass: read every signal, run every automaton, fire."""
        now = self.sim.now
        self.ctx._advance(now, now - self.ctx.now if self.evaluations else 0)
        self.evaluations += 1
        for index, rule in enumerate(self.rules):
            value = rule.read_signal(self.ctx)
            outcome = self._states[index].observe(
                now, value, blocked=self._busy.get(rule.name, False)
            )
            self._note(rule, outcome, value)
            if outcome == FIRED:
                self.fire_log.append((now, rule.name))
                self._apply(index, rule, value)

    def _apply(self, index: int, rule: Rule, value: float) -> None:
        action = rule.action
        apply = getattr(action, "apply", action)
        result = apply(self.ctx, self._rngs[index])
        if result is not None and hasattr(result, "__next__"):
            # Simulated-time action: run as a process; the rule is busy
            # (re-fires suppressed, cooldown preserved) until it ends.
            self._busy[rule.name] = True
            self.sim.process(self._drive(rule, result))
        elif self.obs is not None and self.obs.trace.enabled and result:
            self.obs.trace.instant(
                "policy", f"{rule.name}:{result}", self.sim.now
            )

    def _drive(self, rule: Rule, generator):
        try:
            yield from generator
        finally:
            self._busy[rule.name] = False
            if self.obs is not None:
                self.obs.metrics.counter(
                    f"policy.{rule.name}.actions_completed"
                ).add(1)

    def _note(self, rule: Rule, outcome: str, value: float) -> None:
        counts = self.outcome_counts[rule.name]
        counts[outcome] = counts.get(outcome, 0) + 1
        if self.obs is None:
            return
        metrics = self.obs.metrics
        metrics.counter(f"policy.{rule.name}.evals").add(1)
        if outcome in (IDLE, PENDING):
            return
        metrics.counter(f"policy.{rule.name}.{outcome}").add(1)
        if self.obs.trace.enabled:
            self.obs.trace.instant(
                "policy",
                f"{rule.name}:{outcome}",
                self.sim.now,
                value=value,
            )

    def __repr__(self):
        return (
            f"PolicyPlan({len(self.rules)} rules, "
            f"period={self.period_ns} ns, seed={self.seed})"
        )
