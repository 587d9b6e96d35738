"""The collector ledger of ``repro.analysis.profile`` and the perf-smoke
gate that reads its count."""

import importlib.util
import json
from pathlib import Path

from repro.analysis.profile import CollectorLedger

PERF = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"


def test_ledger_counts_exactly_what_only_the_collector_frees():
    with CollectorLedger() as ledger:
        for _ in range(10):
            cycle = []
            cycle.append(cycle)
        del cycle
        kept = [[] for _ in range(1000)]
    assert ledger.found == 10
    assert len(kept) <= ledger.tracked_growth + 50 < len(kept) + 100
    assert ledger.collections[2] == 0  # the closing pass is not the block's
    assert "10 objects found" in str(ledger)


def load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_regression", PERF / "check_regression.py"
    )
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def test_perf_gate_fails_on_any_object_left_to_the_collector():
    gate = load_gate()
    baseline = json.loads((PERF / "baseline.json").read_text())
    assert gate.check(baseline, baseline) == []
    report = json.loads(json.dumps(baseline))
    report["fig7_write_44"]["gc_found"] = 3
    report["fleet_day_sharded"]["inprocess"]["gc_found"] = 1
    failures = gate.check(report, baseline)
    assert len(failures) == 2
    assert "fig7_write_44: the run left 3 objects" in failures[0]
    assert failures[1].startswith("fleet_day_sharded/inprocess")


def test_perf_gate_is_exact_on_event_counts():
    gate = load_gate()
    baseline = json.loads((PERF / "baseline.json").read_text())
    report = json.loads(json.dumps(baseline))
    report["fig7_read_44"]["events"] += 1
    report["fleet_day_sharded"]["sharded"]["events"] -= 1
    failures = gate.check(report, baseline)
    assert len(failures) == 2
    assert "fig7_read_44: events" in failures[0] and "exceeds" in failures[0]
    assert failures[1].startswith("fleet_day_sharded/sharded")
    assert failures[1].endswith("re-record baseline.json")
