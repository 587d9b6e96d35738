"""Sharded simulation: independent sub-simulations in worker processes.

Fleet scenarios are dominated by per-node device-plane events, and --
when the control plane is static for the run (no rebalancer, no policy
actions) -- nodes only interact through the *initial* routing table.
Each node's event stream is then fully determined by the scenario
alone, so the fleet factors into one independent sub-simulation per
node; :func:`run_sharded` executes those sub-simulations across worker
processes and the caller merges the per-node results.

Determinism contract:

* **Worker-count invariance by construction.**  Work is partitioned
  per *task* (per node), never within one: task ``i`` always runs a
  complete, self-contained simulation whose result depends only on its
  inputs.  Workers merely decide *where* each task runs, so 1, 2 or N
  workers produce identical per-task payloads, and the merge (keyed by
  task index) is identical too.
* **Fork-based.**  Workers are forked, inheriting the task closures by
  memory snapshot; only the plain-data result payloads cross process
  boundaries.  Platforms without ``fork`` (and ``workers=1``) run the
  tasks inline -- same results, no processes.

The caller merges what the tasks return by task index, after all of
them have finished, so how many workers raced to fill the result queue
cannot change it.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Sequence

from repro.errors import ReproError


class ShardError(ReproError):
    """A sharded worker failed (its exception is in the message)."""


def run_sharded(tasks: Sequence[Callable[[], object]], workers: int) -> list:
    """Run ``tasks`` across ``workers`` forked processes; returns their
    results in task order.

    Task ``i`` is assigned to worker ``i % workers`` and each worker
    runs its tasks sequentially in index order, so the schedule -- and
    therefore every result -- is independent of how many workers exist.
    Falls back to inline execution (identical results) when only one
    worker is asked for or ``fork`` is unavailable.
    """
    tasks = list(tasks)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if (
        workers == 1
        or len(tasks) <= 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return [task() for task in tasks]

    workers = min(workers, len(tasks))
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()

    def worker_main(indices):
        for index in indices:
            try:
                queue.put((index, None, tasks[index]()))
            except BaseException as exc:  # surfaced in the parent
                queue.put((index, f"{type(exc).__name__}: {exc}", None))
                return

    assignments = [list(range(w, len(tasks), workers)) for w in range(workers)]
    procs = [
        ctx.Process(target=worker_main, args=(indices,), daemon=True)
        for indices in assignments
    ]
    for proc in procs:
        proc.start()
    results: dict = {}
    try:
        while len(results) < len(tasks):
            try:
                index, error, payload = queue.get(timeout=5)
            except Exception:
                dead = [p for p in procs if not p.is_alive() and p.exitcode]
                if dead:
                    raise ShardError(
                        f"shard worker died with exit code "
                        f"{dead[0].exitcode} before returning its result"
                    )
                continue
            if error is not None:
                raise ShardError(f"shard task {index} failed: {error}")
            results[index] = payload
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join()
    return [results[index] for index in range(len(tasks))]
