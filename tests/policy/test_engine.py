"""Policy plan units: sim-clock evaluation, firing, actuators, determinism.

The property suite (`test_rule_properties.py`) owns the automaton; these
tests own everything around it -- the tick loop, signal reads through
the registry, action application (synchronous and simulated-time), the
busy latch, observability emission, plan validation and the attach
surfaces.
"""

import pytest

from repro.obs import Observability
from repro.policy import (
    FIRED,
    Hysteresis,
    MetricSignal,
    DeltaRateSignal,
    PaceMigrations,
    PolicyPlan,
    Rule,
    ScaleAdmission,
    SetAdmission,
    SUPPRESSED_BUSY,
    SUPPRESSED_COOLDOWN,
)
from repro.qos import AdmissionConfig, QosPlan
from repro.sim import MS, Simulator


def run_over_gauge(rules, script, obs=None, period_ns=MS, seed=0,
                   until_ns=40 * MS):
    """Run rules against a scripted ``load`` gauge; returns the plan.

    ``script`` maps tick times (ns) to gauge values; between entries the
    gauge holds its last value.
    """
    sim = Simulator()
    obs = obs if obs is not None else Observability()
    plan = PolicyPlan(rules=tuple(rules), period_ns=period_ns, seed=seed)
    obs.attach(plan)

    def scripted():
        for at_ns in sorted(script):
            delay = at_ns - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            obs.metrics.gauge("load").set(script[at_ns])

    sim.process(scripted())
    plan.start(sim, until_ns=until_ns)
    sim.run()
    return plan


def load_rule(action=None, **overrides):
    settings = dict(
        name="hot",
        signal=MetricSignal("load"),
        hysteresis=Hysteresis(upper=10.0, lower=4.0),
        action=action if action is not None else (
            lambda ctx, rng: "noted"
        ),
        cooldown_ns=0,
    )
    settings.update(overrides)
    return Rule(**settings)


# --- evaluation & firing ----------------------------------------------------


def test_rule_fires_when_the_signal_crosses_the_band():
    hits = []
    plan = run_over_gauge(
        [load_rule(action=lambda ctx, rng: hits.append(ctx.now))],
        script={0: 0.0, 5 * MS: 20.0, 10 * MS: 0.0},
    )
    assert plan.total_fires == 1
    assert hits and hits[0] == plan.fire_log[0][0]
    # Fired once, re-armed when the load fell through the band, idled.
    counts = plan.outcome_counts["hot"]
    assert counts[FIRED] == 1


def test_cooldown_and_hysteresis_surface_in_obs_counters():
    obs = Observability()
    plan = run_over_gauge(
        [load_rule(cooldown_ns=50 * MS)],
        # Raised, then re-armed, then raised again inside the cooldown.
        script={0: 20.0, 6 * MS: 0.0, 12 * MS: 20.0},
        obs=obs,
    )
    assert plan.total_fires == 1
    counts = plan.outcome_counts["hot"]
    assert counts[SUPPRESSED_COOLDOWN] >= 1
    snap = obs.metrics.snapshot()
    assert snap["policy.hot.fired"] == 1
    assert snap["policy.hot.suppressed_cooldown"] == counts[
        SUPPRESSED_COOLDOWN
    ]
    assert snap["policy.hot.evals"] == plan.evaluations


def test_trace_events_record_fires():
    obs = Observability(trace=True)
    run_over_gauge(
        [load_rule()], script={0: 0.0, 5 * MS: 20.0}, obs=obs
    )
    names = [name for _track, name, _ts, _args in obs.trace._instants]
    assert "hot:fired" in names


def test_generator_action_sets_the_busy_latch():
    sim_holder = {}

    def slow_action(ctx, rng):
        sim_holder["t0"] = ctx.sim.now

        def _work():
            yield ctx.sim.timeout(10 * MS)

        return _work()

    plan = run_over_gauge(
        [load_rule(action=slow_action)],
        # Stays raised for the whole run: the first fire's action runs
        # 10 ms, during which re-fires must be busy-suppressed (the
        # signal never re-arms, so there is exactly one fire).
        script={0: 20.0},
    )
    assert plan.total_fires == 1
    assert plan.outcome_counts["hot"].get(SUPPRESSED_BUSY, 0) == 0
    # (hysteresis suppression, not busy: the rule disarmed on fire)

    # Force the busy path: a band with lower == upper re-arms on every
    # sub-threshold dip; keep the signal pinned at the threshold.
    plan = run_over_gauge(
        [
            load_rule(
                action=slow_action,
                hysteresis=Hysteresis(upper=10.0, lower=10.0),
            )
        ],
        script={0: 20.0, 2 * MS: 5.0, 3 * MS: 20.0},
    )
    assert plan.outcome_counts["hot"].get(SUPPRESSED_BUSY, 0) >= 1
    assert plan.total_fires >= 1


# --- determinism ------------------------------------------------------------


def test_engine_replays_byte_identically():
    def run_once():
        draws = []
        plan = run_over_gauge(
            [
                load_rule(
                    action=lambda ctx, rng: draws.append(
                        (ctx.now, float(rng.random()))
                    ),
                    hysteresis=Hysteresis(upper=10.0, lower=4.0),
                )
            ],
            script={0: 0.0, 5 * MS: 20.0, 10 * MS: 0.0, 15 * MS: 20.0},
            seed=77,
        )
        return plan.fire_log, plan.outcome_counts, draws

    assert run_once() == run_once()


def test_per_rule_rng_streams_are_independent():
    """Adding a rule must not shift an existing rule's RNG stream."""
    draws = {}

    def recorder(name):
        return lambda ctx, rng, name=name: draws.setdefault(name, []).append(
            float(rng.random())
        )

    script = {0: 0.0, 5 * MS: 20.0, 10 * MS: 0.0, 15 * MS: 20.0}
    run_over_gauge([load_rule(action=recorder("solo"))], script=script)
    solo = draws.pop("solo")
    run_over_gauge(
        [
            load_rule(name="hot", action=recorder("hot")),
            load_rule(name="other", action=recorder("other")),
        ],
        script=script,
    )
    assert draws["hot"] == solo  # same index, same seed -> same stream


# --- actuators --------------------------------------------------------------


def small_cluster(sim, qos):
    from repro.cluster.control import ClusterController
    from repro.cluster.network import Network
    from repro.cluster.node import build_sdf_server
    from repro.kv.slice import KeyRange

    ctrl = ClusterController(sim, Network(sim))
    for index in range(2):
        server = build_sdf_server(
            sim, [], capacity_scale=0.01, n_channels=4
        )
        name = f"n{index}"
        ctrl.add_node(name, server)
        qos.attach(server, name)
    ctrl.create_slice(KeyRange(0, 100), on=["n0"])
    ctrl.create_slice(KeyRange(100, 200), on=["n1"])
    return ctrl


def test_set_and_scale_admission_retune_every_node():
    sim = Simulator()
    qos = QosPlan(admission=AdmissionConfig(max_reads=32, max_writes=16))
    ctrl = small_cluster(sim, qos)
    plan = PolicyPlan(rules=(load_rule(),))
    plan.attach(ctrl)
    plan.start(sim)

    SetAdmission(max_reads=8, max_writes=4).apply(plan.ctx, None)
    for node in ctrl.nodes.values():
        assert node.qos.config.max_reads == 8
        assert node.qos.config.max_writes == 4

    ScaleAdmission(read=2.0, write=0.5).apply(plan.ctx, None)
    for node in ctrl.nodes.values():
        assert node.qos.config.max_reads == 16
        assert node.qos.config.max_writes == 2

    # Clamps: floor and ceiling bound the scaled limits.
    ScaleAdmission(write=0.001, read=1e9, ceiling=64).apply(plan.ctx, None)
    for node in ctrl.nodes.values():
        assert node.qos.config.max_writes == 1
        assert node.qos.config.max_reads == 64


def test_pace_migrations_rebudgets_the_controller():
    sim = Simulator()
    qos = QosPlan(admission=AdmissionConfig(max_reads=32))
    ctrl = small_cluster(sim, qos)
    plan = PolicyPlan(rules=(load_rule(),))
    plan.attach(ctrl)
    plan.start(sim)
    PaceMigrations(copy_mb_per_s=50.0, max_concurrent=1).apply(
        plan.ctx, None
    )
    assert ctrl.migration_budget.copy_mb_per_s == 50.0
    assert ctrl.migration_budget.max_concurrent == 1


def test_scale_admission_validation():
    with pytest.raises(ValueError):
        ScaleAdmission(read=0.0)
    with pytest.raises(ValueError):
        ScaleAdmission(floor=10, ceiling=5)


# --- signals ----------------------------------------------------------------


def test_metric_signal_reads_histogram_fields_and_defaults():
    sim = Simulator()
    obs = Observability()
    plan = PolicyPlan(rules=(load_rule(),))
    obs.attach(plan)
    plan.start(sim)
    obs.metrics.histogram("lat").record(100)
    obs.metrics.histogram("lat").record(300)
    assert MetricSignal("lat", field="max").read(plan.ctx) == 300.0
    assert MetricSignal("missing", default=7.0).read(plan.ctx) == 7.0
    with pytest.raises(ValueError):
        MetricSignal("lat").read(plan.ctx)  # histogram needs field=
    obs.metrics.counter("a").add(2)
    obs.metrics.counter("b").add(3)
    assert MetricSignal(("a", "b")).read(plan.ctx) == 5.0
    assert MetricSignal(("a", "b"), reduce="max").read(plan.ctx) == 3.0


def test_delta_rate_signal_windows_per_tick():
    sim = Simulator()
    obs = Observability()
    plan = PolicyPlan(
        rules=(
            load_rule(
                name="shed-rate",
                signal=DeltaRateSignal("sheds"),
                hysteresis=Hysteresis(upper=1000.0, lower=100.0),
            ),
        ),
        period_ns=MS,
    )
    obs.attach(plan)
    plan.start(sim)
    signal = DeltaRateSignal("sheds")
    plan.ctx._advance(0, 0)
    assert signal.read(plan.ctx) == 0.0  # first tick: no window yet
    obs.metrics.counter("sheds").add(10)
    plan.ctx._advance(MS, MS)
    # 10 events in 1 ms -> 10_000 events/s.
    assert signal.read(plan.ctx) == pytest.approx(10_000.0)
    plan.ctx._advance(2 * MS, MS)
    assert signal.read(plan.ctx) == 0.0  # no growth this tick


def test_peek_never_creates_metrics():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("exists").add(1)
    before = registry.names()
    assert registry.peek("exists") == 1
    assert registry.peek("not-there") is None
    assert registry.peek("not-there", default=3.5) == 3.5
    assert registry.names() == before


# --- plan validation & attach surfaces --------------------------------------


def test_plan_validation():
    with pytest.raises(ValueError):
        PolicyPlan(rules=(load_rule(), load_rule()))  # duplicate names
    with pytest.raises(ValueError):
        PolicyPlan(period_ns=0)
    with pytest.raises(ValueError):
        load_rule(name="bad.name")
    with pytest.raises(ValueError):
        load_rule(name="")
    with pytest.raises(ValueError):
        load_rule(cooldown_ns=-1)
    assert PolicyPlan().empty
    assert not PolicyPlan(rules=(load_rule(),)).empty


def test_attach_dispatch_reaches_every_surface():
    from repro.cluster.node import build_sdf_server

    plan = PolicyPlan(rules=(load_rule(),))
    sim = Simulator()
    server = build_sdf_server(sim, [], capacity_scale=0.005, n_channels=4)
    assert plan.attach(server, "n7") is plan
    assert plan._servers["n7"] is server

    qos = QosPlan(admission=AdmissionConfig(max_reads=8))
    ctrl = small_cluster(Simulator(), qos)
    assert plan.attach(ctrl) is plan
    assert plan._controller is ctrl

    # An SDF system is no actuator: attaching one used to do nothing.
    with pytest.raises(TypeError, match="PolicyPlan cannot attach to SDFSystem"):
        plan.attach(server.system)


def test_engine_start_guards():
    sim = Simulator()
    plan = PolicyPlan()
    plan.start(sim)
    with pytest.raises(RuntimeError):
        plan.start(sim)
    # An empty plan scheduled nothing: the sim has no events.
    sim.run()
    assert sim.now == 0
    assert plan.evaluations == 0
