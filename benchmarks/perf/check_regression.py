"""Compare a ``BENCH_perf.json`` report against the checked-in baseline.

Wall-clock seconds vary across machines, so the gate uses the two
hardware-portable signals, both deterministic per scenario (and per
mode, for a scenario the harness runs as a mode pair): **events** --
the number of simulated events; growth means the scheduler got
chattier, and the count is exact, so the gate is too: any rise fails,
and any fall fails until ``baseline.json`` is re-recorded, or the next
rise would hide under a stale baseline -- and **gc_found** -- the
objects a run left for the cyclic
collector; the baseline is 0 and any at all means a request path grew a
reference cycle, which the kernel's paced collection (DESIGN.md section
7, "Memory and the collector") turns into resident memory.
``tracked_growth`` is recorded beside them, not gated.

Usage::

    python benchmarks/perf/check_regression.py BENCH_perf.json \
        [--baseline benchmarks/perf/baseline.json] [--tolerance 0]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def check(report: dict, baseline: dict, tolerance: float = 0.0) -> list:
    failures = []
    for name, base_entry in baseline.items():
        entry = report.get(name)
        if entry is None:
            failures.append(f"{name}: missing from report")
            continue
        modes = base_entry.get("modes")
        runs = (
            [(name, base_entry, entry)]
            if modes is None
            else [(f"{name}/{m}", base_entry[m], entry[m]) for m in modes]
        )
        for label, base_run, run in runs:
            base_events = base_run["events"]
            events = run["events"]
            if events > base_events * (1 + tolerance):
                failures.append(
                    f"{label}: events {events} exceeds baseline "
                    f"{base_events} by more than {tolerance:.0%}"
                )
            elif events < base_events * (1 - tolerance):
                failures.append(
                    f"{label}: events {events} below baseline "
                    f"{base_events} by more than {tolerance:.0%}: "
                    "re-record baseline.json"
                )
            if run["gc_found"] > base_run["gc_found"]:
                failures.append(
                    f"{label}: the run left {run['gc_found']} objects to "
                    f"the cyclic collector (baseline "
                    f"{base_run['gc_found']}): a reference cycle on a "
                    "request path"
                )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="BENCH_perf.json produced by run_perf.py")
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).resolve().parent / "baseline.json"),
    )
    parser.add_argument("--tolerance", type=float, default=0.0)
    args = parser.parse_args(argv)
    report = json.loads(Path(args.report).read_text())
    baseline = json.loads(Path(args.baseline).read_text())
    failures = check(report, baseline, args.tolerance)
    for failure in failures:
        print(f"PERF REGRESSION: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"perf check OK: {len(baseline)} scenarios within "
        f"{args.tolerance:.0%} of baseline events, none leaving more "
        "to the cyclic collector"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
