"""Smoke test and contract validator for the e2e benchmark.

Outside ``testpaths``; run explicitly (about a minute)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload at ``--quick`` sizes (results stamped ``quick`` and
never comparable) and checks that BENCHMARK.json and what ``run.py``
emits name exactly the same metrics.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    done = subprocess.run(
        RUN + ["--quick", "--trace", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return out, json.loads(out.read_text())


def test_benchmark_json_contract(benchmark_json):
    doc = benchmark_json
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["paths"] == ["benchmarks/e2e"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = []
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_quick_smoke_emits_exactly_the_declared_metrics(
    benchmark_json, quick_results
):
    _out, results = quick_results
    assert results["quick"] is True
    declared_workloads = [w["name"] for w in benchmark_json["workloads"]]
    assert list(results["workloads"]) == declared_workloads
    for name, record in results["workloads"].items():
        assert record["correct"], record["problems"]
        assert record["quick"] is True
        assert record["end_to_end"]["determinism_ok"]["value"] == 1
        # Every gated metric is emitted, non-zero, with the declared unit.
        for spec in benchmark_json["end_to_end"]:
            entry = record["end_to_end"][spec["name"]]
            assert entry["unit"] == spec["unit"]
            assert entry["value"], (name, spec["name"])
        # Per-layer: declared and emitted sets are the same set.
        declared = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
        emitted = {k: v["unit"] for k, v in record["per_layer"].items()}
        assert emitted == declared


def test_trace_json_has_one_span_per_phase_per_pass(quick_results):
    out, _results = quick_results
    trace = json.loads(out.with_name("trace.json").read_text())
    for workload, spans in trace["spans"].items():
        by_id = {span["id"]: span for span in spans}
        passes = [s for s in spans if s["parent"] is None]
        assert len(passes) == 4  # two timed, one traced, one counters
        for span in spans:
            assert span["end_s"] >= span["start_s"]
            if span["parent"] is not None:
                assert by_id[span["parent"]]["name"].startswith("pass:")
        phases = {s["name"] for s in spans if s["parent"] is not None}
        assert {"build", "drive", "verify"} <= phases
        assert trace["profile"][workload]["sim.self_s"] > 0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_result_line(benchmark_json, trace, section):
    done = subprocess.run(
        RUN + ["--workload", "kv_mix", "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in benchmark_json[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(
        isinstance(v["value"], (int, float)) for v in line["metrics"].values()
    )


def test_compare_accepts_a_set_against_itself(quick_results):
    out, _results = quick_results
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(out)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout
    assert "regressed" in done.stdout and " identical" in done.stdout


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "kv_mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, env={"PATH": ""},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
