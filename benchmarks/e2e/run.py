#!/usr/bin/env python3
"""End-to-end benchmark of the repro-sdf simulator: five workloads, host
cost and simulated outcomes, and a per-layer ledger.

Usage (from the root of a checkout; ``src/`` is put on the path here)::

    python3 benchmarks/e2e/run.py                       # all five workloads
    python3 benchmarks/e2e/run.py --trace --out benchmarks/e2e/out/r.json
    python3 benchmarks/e2e/run.py --workload kv_mix --seed 1 --seconds 10 --trace 0

Two clocks, named beside every number: **host** metrics are what the
simulator costs on this box (what the ROADMAP wants driven down);
**sim** metrics are outcomes of the modelled SDF / conventional SSD /
CCDB stack, which repeat exactly for a seed and which a simulator-speed
change must leave bit-identical (compare the printed digest with ``==``).

Protocol, per workload, in its own interpreter: timed passes -- each
rebuilding the system on a fresh ``Simulator``, ``gc.collect()`` between
them -- until ``--seconds`` of passes have run (at least three).  A fixed
reference kernel (``bench_reference.py``) runs before and after every
pass; host timings are in seconds at reference speed (a pass's time over
the slow-down its neighbouring kernel runs show) and the first quartile
of the passes is reported, with median, IQR and the fastest raw pass
beside it.  The simulated statistics and event count must be identical
on every pass or the run fails.  ``--trace`` adds one pass under
cProfile (timed phases only), one pass with metrics-only channel probes,
and the layer microbenchmarks; end-to-end metrics always come from the
untraced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  The exit code is non-zero if any output check fails.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOAD_NAMES = (
    "sdf_raw_read", "sdf_raw_write", "conv_gc_write", "kv_mix", "fleet_day",
)

#: End-to-end metrics in report order: name -> (unit, clock).  Simulated
#: latencies carry the unit ``sim_ms`` so no reader takes them for host
#: time.  ``failed_frac`` (= 1 - ``ok_frac``), ``paper_err_pct`` (null
#: where the paper gives no figure) and ``determinism_ok`` are reported
#: and checked here but are not in BENCHMARK.json, whose metrics must be
#: non-zero numbers on every workload.
END_TO_END = {
    "setup_s": ("s", "host"),
    "wall_s": ("s", "host"),
    "peak_rss_mb": ("MiB", "host"),
    "sim_mb_per_s": ("MB/s", "sim"),
    "sim_goodput_rps": ("1/s", "sim"),
    "sim_lat_p50_ms": ("sim_ms", "sim"),
    "sim_lat_tail_ms": ("sim_ms", "sim"),
    "sim_write_amp": ("ratio", "sim"),
    "ok_frac": ("ratio", "sim"),
    "failed_frac": ("ratio", "sim"),
    "paper_err_pct": ("%", "sim"),
    "determinism_ok": ("0/1", "-"),
}

#: Modelled counters a workload may report; absent ones read 0.
COUNTERS = {
    "channel.ops": "count",
    "channel.utilization_mean": "ratio",
    "channel.wait_ms_mean": "sim_ms",
    "ftl.host_programs": "count",
    "ftl.gc_programs": "count",
    "ftl.gc_runs": "count",
    "ftl.erases": "count",
    "devices.write_amp": "ratio",
    "interfaces.link_mb_per_s": "MB/s",
    "kv.flushes": "count",
    "kv.compactions": "count",
    "kv.bytes_flushed": "bytes",
    "kv.bytes_compaction_written": "bytes",
    "kv.write_amp": "ratio",
    "cluster.gets": "count",
    "cluster.puts": "count",
    "cluster.migrations_completed": "count",
    "qos.shed": "count",
    "qos.throttled": "count",
    "faults.fired": "count",
    "policy.fires": "count",
    "workloads.offered": "count",
}

MICRO = {
    "micro.sim.kernel_events_per_s": "1/s",
    "micro.sim.timeline_reserve_ns": "ns",
    "micro.ftl.block_cycle_us": "us",
    "micro.ftl.page_write_us": "us",
    "micro.kv.lsm_put_us": "us",
    "micro.kv.lsm_get_us": "us",
    "micro.workloads.zipf_sample_us": "us",
    "micro.obs.counter_inc_ns": "ns",
}


def per_layer_units(layers) -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for layer in layers:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_frac"] = "ratio"
        units[f"{layer}.calls"] = "count"
    units.update({
        "sim.events": "count",
        "sim.events_per_op": "count",
        "sim.wall_us_per_event": "us",
    })
    units.update(COUNTERS)
    units.update({
        "host.wall_norm": "Mevents",
        "host.wall_raw_s": "s",
        "host.slowdown_x": "ratio",
        "host.cpu_s": "s",
        "host.import_s": "s",
        "trace.overhead_x": "ratio",
    })
    units.update(MICRO)
    return units


def _load_harness():
    """Put ``src/`` on the path and import the workload, layer and
    microbenchmark modules; returns them with the time the imports took
    (``host.import_s``)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: {src / 'repro'} not found; run from a full checkout"
        )
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import bench_layers
    import bench_micro
    import bench_workloads

    return bench_workloads, bench_layers, bench_micro, time.perf_counter() - start


def _host_stat(timings) -> dict:
    """One host time of a run, from its passes' (normalised, raw) pairs.

    The value is the first quartile of the normalised passes.  Short
    interference (a pass or a kernel run hit on its own) is one-sided, so
    a low quantile ignores it where the median does not; the minimum
    would take the one pass whose two kernel runs were both hit.  Over
    ten minutes of `conv_gc_write` passes with 10-90 s bursts of +50 %
    laid over them, 18 s windows of this value stayed within -5 / +10 %
    of their median where the fastest raw pass moved by 50 %.
    """
    normalised = [value for value, _raw in timings]
    quartiles = statistics.quantiles(normalised, n=4, method="inclusive")
    return {
        "value": quartiles[0],
        "median": quartiles[1],
        "iqr": quartiles[2] - quartiles[0],
        "raw_fastest": min(raw for _value, raw in timings),
    }


def _canonical(outcome) -> str:
    """The simulated result of a pass as one comparable string (without
    the channel probes, which only the counters pass carries)."""
    counters = {
        key: value for key, value in outcome.counters.items()
        if not key.startswith("channel.")
    }
    return json.dumps(
        {"sim": outcome.sim, "counters": counters,
         "attempted": outcome.attempted, "failed": outcome.failed,
         "degraded": outcome.degraded},
        sort_keys=True,
    )


def run_workload(name, seed, seconds, trace, quick) -> dict:
    """Run one workload in this interpreter; returns its record."""
    workloads, layers, micro, import_s = _load_harness()
    fn = workloads.WORKLOADS[name]
    size = workloads.SIZES[name]["quick" if quick else "full"]
    spans = []  # kept in memory, written out by write_results
    kernel = bench_reference.build()

    def kernel_run():
        # On a collected heap: with a finished pass's garbage pending the
        # kernel's own allocations scatter and it reads 7 % slower.
        gc.collect()
        return bench_reference.run(kernel)

    kernel_runs = [kernel_run()]

    def one_pass(label, profiler=None, observe=False):
        """One pass between two kernel runs; returns its outcome and the
        (normalised, raw) seconds of its set-up and timed phases."""
        phases = layers.Phases(spans, name, label, profiler)
        outcome = fn(seed, size, phases, observe)
        phases.finish()
        kernel_runs.append(kernel_run())
        slowdown = min(kernel_runs[-2:]) / bench_reference.NOMINAL_S
        setup_s = phases.seconds(layers.SETUP_PHASES)
        wall_s = phases.seconds(layers.TIMED_PHASES)
        return outcome, (setup_s / slowdown, setup_s), (wall_s / slowdown, wall_s)

    # No discarded warm-up: a cold first pass can only be slower, and the
    # first quartile ignores it.  A traced run needs the untraced wall
    # only as the base of its overhead ratio.
    min_passes = 2 if (trace or quick) else 3
    budget = 0.0 if (trace or quick) else seconds
    passes = []
    started = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - started < budget:
        passes.append(one_pass(f"timed{len(passes)}"))
    first = passes[0][0]
    problems = list(first.problems)

    reference = _canonical(first)
    deterministic = all(
        _canonical(outcome) == reference and outcome.events == first.events
        for outcome, _setup, _wall in passes
    )
    if not deterministic:
        problems.append("simulated statistics differ between passes")

    setup = _host_stat([setup_s for _o, setup_s, _w in passes])
    wall = _host_stat([wall_s for _o, _s, wall_s in passes])
    slowdown_x = statistics.median(kernel_runs) / bench_reference.NOMINAL_S
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok_frac = (
        first.attempted - first.failed - first.degraded
    ) / first.attempted
    values = dict(first.sim)
    values.update({
        "ok_frac": ok_frac,
        "failed_frac": 1.0 - ok_frac,
        "determinism_ok": int(deterministic),
        "peak_rss_mb": rss_mib,
    })
    end_to_end = {}
    for metric, (unit, clock) in END_TO_END.items():
        entry = {"unit": unit, "clock": clock}
        if metric == "setup_s":
            entry.update(setup)
        elif metric == "wall_s":
            entry.update(wall)
        else:
            entry["value"] = values[metric]
        end_to_end[metric] = entry

    record = {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "sizes": size,
        "timed_passes": len(passes),
        "slowdown_x": slowdown_x,
        "end_to_end": end_to_end,
        "tail": {
            "percentile": first.sim["tail_percentile"],
            "samples": first.sim["lat_samples"],
        },
        "sim_end_ns": first.sim["sim_end_ns"],
        "events": first.events,
        "counters": {
            key: value for key, value in first.counters.items()
            if not key.startswith("channel.")
        },
        "attempted": first.attempted,
        "failed": first.failed,
        "digest": hashlib.sha256(reference.encode()).hexdigest()[:16],
    }

    if trace:
        profiler = cProfile.Profile()
        traced, _setup_s, (traced_wall, _raw) = one_pass(
            "traced", profiler=profiler
        )
        probed, _setup_s, _wall_s = one_pass("counters", observe=True)
        for label, outcome in (("traced", traced), ("counters", probed)):
            if _canonical(outcome) != reference:
                problems.append(
                    f"the {label} pass changed the simulated statistics"
                )
        micro_metrics = micro.run_all()
        units = per_layer_units(layers.LAYERS)
        per_layer = dict.fromkeys(units, 0)
        for layer, row in layers.rollup(profiler).items():
            for key, value in row.items():
                per_layer[f"{layer}.{key}"] = value
        per_layer.update(probed.counters)
        per_layer.update(micro_metrics)
        events = first.events or 0
        per_layer.update({
            "sim.events": events,
            "sim.events_per_op": events / first.attempted,
            "sim.wall_us_per_event": wall["value"] / events * 1e6 if events else 0,
            "host.wall_norm": (
                wall["raw_fastest"]
                * micro_metrics["micro.sim.kernel_events_per_s"] / 1e6
            ),
            "host.wall_raw_s": wall["raw_fastest"],
            "host.slowdown_x": slowdown_x,
            "host.cpu_s": time.process_time(),
            "host.import_s": import_s,
            "trace.overhead_x": traced_wall / wall["value"],
        })
        record["per_layer"] = {
            key: {"value": per_layer[key], "unit": unit}
            for key, unit in units.items()
        }
        record["spans"] = spans

    record["problems"] = problems
    record["correct"] = not problems and first.failed == 0
    return record


# -- reporting -----------------------------------------------------------------


def _format(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(record: dict) -> None:
    name = record["workload"]
    stamp = "  [quick: not comparable]" if record["quick"] else ""
    print(f"== {name}  seed={record['seed']}  "
          f"timed_passes={record['timed_passes']}  box at "
          f"{record['slowdown_x']:.2f}x the reference kernel's nominal "
          f"time{stamp}")
    for metric, entry in record["end_to_end"].items():
        extra = ""
        if "iqr" in entry:
            extra = (f"  at reference speed (median {_format(entry['median'])}, "
                     f"iqr {_format(entry['iqr'])}; fastest raw pass "
                     f"{_format(entry['raw_fastest'])})")
        if metric == "sim_lat_tail_ms":
            extra = (f"  (p{record['tail']['percentile']:g} of "
                     f"{record['tail']['samples']} samples)")
        print(f"  {metric:<18} {_format(entry['value']):>12} {entry['unit']:<7}"
              f" [{entry['clock']}]{extra}")
    print(f"  events={record['events']}  attempted={record['attempted']}  "
          f"failed={record['failed']}  digest={record['digest']}")
    for key, entry in record.get("per_layer", {}).items():
        print(f"    {key:<32} {_format(entry['value']):>14} {entry['unit']}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


def result_line(records, trace: bool, benchmark: dict) -> str:
    """The driver's last line, from one or more workload records."""
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    if len(records) == 1:
        source = records[0][section]
        for spec in benchmark[section]:
            metrics[spec["name"]] = {
                "value": source[spec["name"]]["value"], "unit": spec["unit"],
            }
    return json.dumps({
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    })


def host_fingerprint() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count(),
    }


def write_results(out: Path, records, args) -> None:
    """``--out`` gets the records; spans and roll-ups go to its sibling
    ``trace.json``."""
    out.parent.mkdir(parents=True, exist_ok=True)
    spans = {r["workload"]: r.pop("spans") for r in records if "spans" in r}
    out.write_text(json.dumps({
        "schema": 1,
        "host": host_fingerprint(),
        "seed": args.seed,
        "quick": args.quick,
        "trace": bool(args.trace),
        "workloads": {record["workload"]: record for record in records},
    }, indent=1))
    if spans:
        out.with_name("trace.json").write_text(json.dumps({
            "spans": spans,
            "profile": {
                record["workload"]: {
                    key: entry["value"]
                    for key, entry in record["per_layer"].items()
                    if key.endswith((".self_s", ".self_frac", ".calls"))
                }
                for record in records
            },
        }, indent=1))


RECORD_PREFIX = "#record "


def run_all_workloads(args) -> list:
    """Each workload in its own fresh interpreter, one after another
    (one process, one thread: the simulator is single-threaded)."""
    records = []
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--emit-record",
        ] + (["--quick"] if args.quick else [])
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        for line in child.stdout:
            if line.startswith(RECORD_PREFIX):
                records.append(json.loads(line[len(RECORD_PREFIX):]))
            else:
                print(line, end="")
        child.wait()
        if not records or records[-1]["workload"] != name:
            raise SystemExit(f"error: workload {name} exited {child.returncode}")
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all "
                        "five, each in a fresh interpreter)")
    parser.add_argument("--seed", type=int, default=0,
                        help="feeds only the input generators")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-pass budget per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="also run the traced passes and "
                        "report the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny smoke-test sizes; results never comparable")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the records here (trace.json beside it)")
    parser.add_argument("--emit-record", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]

    if args.workload:
        record = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.quick
        )
        print_report(record)
        if args.emit_record:  # a child of run_all_workloads
            print(RECORD_PREFIX + json.dumps(record))
            return 0
        records = [record]
    else:
        records = run_all_workloads(args)
    if args.out is not None:
        write_results(args.out, records, args)
        print(f"wrote {args.out}")
    print(result_line(records, bool(args.trace), benchmark))
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
