"""cProfile entry point for the perf-harness scenarios.

Profile one scenario from :mod:`benchmarks.perf.run_perf` and print
what the cyclic collector did during it -- cProfile cannot: it smears
collector time over whichever function happened to allocate -- and the
hottest functions::

    PYTHONPATH=src python -m repro.analysis.profile fig7_read_44
    PYTHONPATH=src python -m repro.analysis.profile kv_write_compaction \
        --sort cumulative --limit 40
    PYTHONPATH=src python -m repro.analysis.profile fig7_write_44 \
        --out write44.pstats        # load later with pstats.Stats

The scenario registry lives in ``benchmarks/perf/run_perf.py``; this
module adds ``benchmarks/perf`` to ``sys.path`` itself, so it works from
a plain checkout without installing anything.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import sys
import time
from pathlib import Path

#: Where the perf scenarios live, relative to the repository root.
_PERF_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "perf"


class CollectorLedger:
    """What the cyclic collector did inside a ``with`` block: passes
    per generation, seconds spent in them, and the objects it found --
    plus what one closing full pass still finds, so ``found`` is every
    object the block left to the collector however the passes fell, a
    count that repeats exactly.  Whatever the block built must still be
    referenced at exit, or its own teardown is counted.

    ``tracked_growth`` is the change in collector-tracked objects left
    alive: what every later full pass has to walk again.
    """

    def __init__(self):
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self.found = 0
        self.tracked_growth = 0
        self._started = 0.0
        self._tracked = 0

    def _on_collection(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.seconds += time.perf_counter() - self._started
        self.collections[info["generation"]] += 1
        self.found += info["collected"] + info["uncollectable"]

    def __enter__(self) -> "CollectorLedger":
        gc.collect()
        self._tracked = len(gc.get_objects())
        gc.callbacks.append(self._on_collection)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._on_collection)
        self.found += gc.collect()
        self.tracked_growth = len(gc.get_objects()) - self._tracked

    def __str__(self):
        passes = "/".join(str(count) for count in self.collections)
        return (
            f"collector: {passes} passes (gen 0/1/2), {self.seconds:.3f} s "
            f"in them, {self.found} objects found, "
            f"{self.tracked_growth:+} tracked objects left"
        )


def _load_scenarios():
    sys.path.insert(0, str(_PERF_DIR))
    try:
        from run_perf import SCENARIOS
    finally:
        sys.path.pop(0)
    return SCENARIOS


def profile_scenario(name: str, sort: str, limit: int,
                     out: str | None = None) -> None:
    """Run one scenario under cProfile and print/save the stats.

    A scenario the harness runs as a mode pair is profiled in its
    first (in-process) mode, the only one this process can see."""
    scenarios = _load_scenarios()
    if name not in scenarios:
        known = ", ".join(sorted(scenarios))
        raise SystemExit(f"unknown benchmark {name!r}; choose from: {known}")
    scenario, modes = scenarios[name]
    args = () if modes is None else modes[:1]
    profiler = cProfile.Profile()
    with CollectorLedger() as ledger:
        profiler.enable()
        result = scenario(*args)
        profiler.disable()
    throughput = (
        f" sim={result['mb_per_s'] / 1000:.2f} GB/s"
        if "mb_per_s" in result
        else ""
    )
    print(
        f"{name}: wall={result['wall_s']:.2f}s "
        f"events={result['events']}{throughput}"
    )
    print(ledger)
    stats = pstats.Stats(profiler)
    if out:
        stats.dump_stats(out)
        print(f"wrote {out}")
    stats.sort_stats(sort).print_stats(limit)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.profile",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("benchmark", help="scenario name from the perf harness")
    parser.add_argument(
        "--sort", default="tottime",
        help="pstats sort key (tottime, cumulative, ncalls, ...)",
    )
    parser.add_argument("--limit", type=int, default=30,
                        help="rows of stats to print")
    parser.add_argument("--out", default=None,
                        help="also dump raw pstats to this path")
    args = parser.parse_args(argv)
    profile_scenario(args.benchmark, args.sort, args.limit, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
