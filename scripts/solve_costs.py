#!/usr/bin/env python3
"""Where the benchmark's `solve` workload spends its time, task by task and
factorisation by factorisation.

    PYTHONPATH=src python3 scripts/solve_costs.py [--seed 1] [--repeat 3]

Builds one seed's `solve` tasks as `perfbench/run.py --workload solve` does
(by importing `perfbench/workloads.py`, which it does not modify), runs the
whole task list `--repeat` times in this process, and keeps each task's
best wall time.  It wraps `gdcalc._linalg.Factorisation` from here, so
every matrix a task eliminates is timed on its own: the second table gives,
per factorisation, the task that built it, its rows × columns, its nonzero
entries, its rank, the number of right-hand sides replayed on it, the best
time to factor it and the best total time of its replays, in ms.  The first
table gives each task's best time and the number of tasks whose verdict
check failed on the first run.  Comparing two checkouts' tables shows
whether a change moved the elimination, the replays or the system
assembly, without a profiler.  The input documents go to a temporary
directory that is removed at exit.  Standard library only.
"""
from __future__ import annotations

import argparse
import gc
import os
import random
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from gdcalc import _linalg  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="workload seed, as perfbench/run.py --seed")
    ap.add_argument("--repeat", type=int, default=3, help="runs of the task list; each best time is kept")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    cls = _linalg.Factorisation
    init, solve = cls.__init__, cls.solve
    # per factorisation of this run: [task index, rows, cols, nonzeros, rank, replays, factor s, replay s]
    systems = []
    made = {}  # id of a live factorisation -> its row in systems
    current = [0]

    def timed_init(self, columns, keys):
        t0 = time.perf_counter()
        init(self, columns, keys)
        dt = time.perf_counter() - t0
        made[id(self)] = len(systems)
        nnz = sum(1 for col in columns for v in col.values() if v)
        systems.append([current[0], len(keys), len(columns), nnz, self.rank, 0, dt, 0.0])

    def timed_solve(self, rhs):
        t0 = time.perf_counter()
        out = solve(self, rhs)
        row = systems[made[id(self)]]
        row[5] += 1
        row[7] += time.perf_counter() - t0
        return out

    cls.__init__, cls.solve = timed_init, timed_solve
    work = tempfile.mkdtemp(prefix="solve_costs-")
    try:
        tasks = workloads.solve(random.Random(f"solve:{args.seed}"), workloads.Files(work))
        best = [float("inf")] * len(tasks)
        failed = [False] * len(tasks)
        best_systems = None
        for rep in range(args.repeat):
            gc.collect()
            systems.clear()
            for i, task in enumerate(tasks):
                current[0] = i
                t0 = time.perf_counter()
                out = task.call()
                best[i] = min(best[i], time.perf_counter() - t0)
                if rep == 0:
                    failed[i] = task.check(out) is not None
                made.clear()
            if best_systems is None:
                best_systems = [list(s) for s in systems]
            else:
                for kept, s in zip(best_systems, systems):
                    kept[6] = min(kept[6], s[6])
                    kept[7] = min(kept[7], s[7])
    finally:
        cls.__init__, cls.solve = init, solve
        shutil.rmtree(work, ignore_errors=True)

    print(f"{'task':<28}{'failed':>7}{'best_ms':>10}")
    for task, dt, bad in zip(tasks, best, failed):
        print(f"{task.name:<28}{bad:>7d}{dt * 1e3:>10.2f}")
    print(f"{'total':<28}{sum(failed):>7d}{sum(best) * 1e3:>10.2f}")
    print()
    print(
        f"{'system':>6}  {'task':<28}{'rows x cols':>12}{'nonzeros':>10}{'rank':>6}"
        f"{'rhs':>5}{'factor_ms':>11}{'replay_ms':>11}"
    )
    for k, (i, m, n, nnz, rank, nrhs, tf, tr) in enumerate(best_systems):
        print(
            f"{k:>6}  {tasks[i].name:<28}{f'{m}x{n}':>12}{nnz:>10}{rank:>6}"
            f"{nrhs:>5}{tf * 1e3:>11.2f}{tr * 1e3:>11.2f}"
        )
    total_f = sum(s[6] for s in best_systems)
    total_r = sum(s[7] for s in best_systems)
    print(f"{'total':>6}  {'':<28}{'':>12}{'':>10}{'':>6}{'':>5}{total_f * 1e3:>11.2f}{total_r * 1e3:>11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
