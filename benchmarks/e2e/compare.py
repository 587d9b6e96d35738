#!/usr/bin/env python3
"""Compare two result sets of ``run.py --out`` under BENCHMARK.json's bounds.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

Prints one row per workload x end-to-end metric with base, new, ratio
and a verdict, plus one row per workload saying whether the simulated
digests are identical (they must be, for the same seed, across a
simulator-speed change).  Verdicts:

* ``ok`` -- new is no worse than base by more than the metric's bound;
* ``regressed`` -- it is worse by more than the bound;
* ``unresolved`` -- the pass-to-pass inter-quartile range of either side
  exceeds the bound, so the runs cannot tell.

``setup_s`` is allowed 0.05 s where that is more than its bound: some
workloads set up in a few milliseconds.  Exits non-zero on ``regressed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Absolute slack for metrics whose base can be a few milliseconds.
ABSOLUTE_SLACK = {"setup_s": 0.05}


def verdict(spec: dict, base: dict, new: dict) -> str:
    base_value, new_value = base["value"], new["value"]
    worse_by = (
        new_value - base_value
        if spec["better"] == "lower"
        else base_value - new_value
    )
    allowed = max(
        spec["bound"] * abs(base_value), ABSOLUTE_SLACK.get(spec["name"], 0.0)
    )
    if max(base.get("iqr", 0.0), new.get("iqr", 0.0)) > allowed:
        return "unresolved"
    return "regressed" if worse_by > allowed else "ok"


def compare(base_doc: dict, new_doc: dict, specs) -> int:
    regressed = 0
    if base_doc["quick"] or new_doc["quick"]:
        print("warning: quick results are never comparable")
    print(f"{'workload':<14} {'metric':<18} {'base':>12} {'new':>12} "
          f"{'ratio':>8}  verdict")
    for name, base in base_doc["workloads"].items():
        new = new_doc["workloads"].get(name)
        if new is None:
            print(f"{name:<14} missing from the new set")
            regressed += 1
            continue
        for spec in specs:
            old_entry = base["end_to_end"][spec["name"]]
            new_entry = new["end_to_end"][spec["name"]]
            result = verdict(spec, old_entry, new_entry)
            regressed += result == "regressed"
            print(
                f"{name:<14} {spec['name']:<18} {old_entry['value']:>12.6g} "
                f"{new_entry['value']:>12.6g} "
                f"{new_entry['value'] / old_entry['value']:>8.4f}  {result}"
            )
        if base["seed"] == new["seed"]:
            same = base["digest"] == new["digest"]
            print(f"{name:<14} {'sim digest':<18} {base['digest']:>12.12} "
                  f"{new['digest']:>12.12} {'':>8}  "
                  f"{'identical' if same else 'differs'}")
        if not (base["correct"] and new["correct"]):
            print(f"{name:<14} an output check failed")
            regressed += 1
    return regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base_doc, new_doc = (json.loads(Path(path).read_text()) for path in argv)
    regressed = compare(base_doc, new_doc, specs)
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
