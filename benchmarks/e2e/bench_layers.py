"""Per-layer observation of ``repro.*`` from outside: phase spans around
the harness's own calls, and a cProfile self-time roll-up by package.

The layers are the ``src/repro`` packages, plus ``py.builtins`` for C
built-ins (``heapq``, numpy's generators) and ``py.other`` for
everything else (numpy's Python code, the standard library and the
harness's own client loops).
"""

from __future__ import annotations

import cProfile
import pstats
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

import repro

#: The ledger's layer rows, in report order.
LAYERS = (
    "sim", "channel", "nand", "ftl", "devices", "interfaces", "core", "kv",
    "cluster", "workloads", "obs", "qos", "faults", "policy", "ecc",
    "analysis", "py.builtins", "py.other",
)

#: Phases that make up ``setup_s`` and ``wall_s``; ``verify`` is untimed.
SETUP_PHASES = ("build", "prefill")
TIMED_PHASES = ("drive", "drain")

_REPRO_ROOT = str(Path(repro.__file__).resolve().parent) + "/"


class Phases:
    """The ``phase(name)`` context manager handed to one workload pass.

    Appends one span per phase, under a parent ``pass`` span, to the
    run's in-memory span list.  A profiler, when given, runs only inside
    the timed phases, so the roll-up covers exactly what ``wall_s`` covers.
    """

    def __init__(self, spans: List[dict], workload: str, label: str, profiler):
        self._spans = spans  # shared by every pass of the run
        self._workload = workload
        self._profiler = profiler
        self._durations: Dict[str, float] = {}
        self._parent = self._open("pass:" + label, None)

    def _open(self, name: str, parent: Optional[int]) -> int:
        self._spans.append({
            "id": len(self._spans),
            "parent": parent,
            "workload": self._workload,
            "name": name,
            "start_s": time.perf_counter(),
            "end_s": None,
        })
        return len(self._spans) - 1

    def _close(self, span_id: int) -> float:
        span = self._spans[span_id]
        span["end_s"] = time.perf_counter()
        return span["end_s"] - span["start_s"]

    @contextmanager
    def __call__(self, name: str):
        profiled = self._profiler is not None and name in TIMED_PHASES
        span_id = self._open(name, self._parent)
        if profiled:
            self._profiler.enable()
        try:
            yield
        finally:
            if profiled:
                self._profiler.disable()
            self._durations[name] = (
                self._durations.get(name, 0.0) + self._close(span_id)
            )

    def finish(self) -> None:
        self._close(self._parent)

    def seconds(self, names) -> float:
        return sum(self._durations.get(name, 0.0) for name in names)


def _layer_of(filename: str) -> str:
    if filename.startswith(_REPRO_ROOT):
        package = filename[len(_REPRO_ROOT):].split("/", 1)[0]
        return package if package in LAYERS else "py.other"
    if filename == "~":
        return "py.builtins"
    return "py.other"


def rollup(profiler: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """cProfile self-time and call counts grouped by layer."""
    rows = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, _callers) in (
        pstats.Stats(profiler).stats.items()
    ):
        row = rows[_layer_of(filename)]
        row["self_s"] += tottime
        row["calls"] += ncalls
    total = sum(row["self_s"] for row in rows.values()) or 1.0
    for row in rows.values():
        row["self_frac"] = row["self_s"] / total
    return rows
