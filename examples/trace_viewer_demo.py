#!/usr/bin/env python3
"""Trace an SDF run and export it for chrome://tracing / Perfetto.

Demonstrates the observability layer end to end:

* attach an :class:`repro.obs.Observability` (with tracing enabled) to
  a freshly built SDF system;
* run a mixed workload -- writes, byte reads, a rewrite and frees --
  so channel buses, planes and the background eraser all show up;
* export a Chrome-trace JSON timeline (open it at
  https://ui.perfetto.dev or in ``chrome://tracing``);
* print the metrics report: per-channel utilisation, queue depth,
  wait vs busy time, FTL/wear state and block-layer counters.

Run:  python examples/trace_viewer_demo.py [output.trace.json]
"""

import json
import sys

from repro import build_sdf_system
from repro.obs import Observability
from repro.sim.units import MS


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "sdf.trace.json"

    system = build_sdf_system(capacity_scale=0.004, n_channels=4)
    obs = Observability(trace=True).attach(system)

    # --- a small mixed workload -------------------------------------------
    payload = b"<html>software-defined flash</html>" * 100
    ids = [system.put(payload) for _ in range(6)]
    for block_id in ids[:3]:
        system.get(block_id, 0, 4096)
    system.put(b"rewritten", block_id=ids[0])     # frees + rewrites
    system.delete(ids[1])                          # background erase
    system.sim.run(until=system.sim.now + 50 * MS)  # let the eraser drain

    # --- export ------------------------------------------------------------
    obs.trace.write(out_path)
    with open(out_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    tracks = {e["cat"] for e in spans}
    print(f"wrote {out_path}: {len(trace['traceEvents'])} events, "
          f"{len(spans)} spans on {len(tracks)} tracks")
    print("open it at https://ui.perfetto.dev (or chrome://tracing)\n")

    ops = [e for e in spans if e["cat"].endswith("/ops")]
    sample = max(ops, key=lambda e: e["dur"])
    print(f"slowest flash op: {sample['name']} on {sample['cat']} "
          f"({sample['dur'] / 1000:.2f} ms, "
          f"queue wait {sample['args']['wait_ns'] / 1e6:.2f} ms)\n")

    # --- metrics report -----------------------------------------------------
    print(obs.metrics.report(system.sim.now, title="end-of-run metrics"))

    snapshot = obs.snapshot(system.sim.now)
    utils = [
        snapshot[f"channel{c}.utilization"]
        for c in range(system.device.n_channels)
    ]
    assert all(0.0 <= u <= 1.0 for u in utils), utils
    print("\ntrace_viewer_demo OK")


if __name__ == "__main__":
    main()
