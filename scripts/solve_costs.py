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
entries, its rank, the number of right-hand sides replayed on it in one run
of the task list, the best time to factor it and the best total time of its
replays in one run, in ms.  A replay is credited to the factorisation that
serves it, whichever task or run built it: a block that the primitive
search keeps per shape is factored by the first task of that shape in the
first run, and every later search of the shape, in any run, replays on it.
Such a block is never factored again, so its factor time is that of the
cold first run; the script never clears the cache.  The first
table gives each task's best time and the number of tasks whose verdict
check failed on the first run.  Comparing two checkouts' tables shows
whether a change moved the elimination, the replays or the system
assembly, without a profiler.  The input documents go to a temporary
directory that is removed at exit.  Standard library only.
"""
from __future__ import annotations

import argparse
import collections
import sys
import time

import _ab

_ab.use_paths()
from gdcalc import _linalg  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="workload seed, as perfbench/run.py --seed")
    ap.add_argument("--repeat", type=int, default=3, help="runs of the task list; each best time is kept")
    args = _ab.parse_args(ap)

    cls = _linalg.Factorisation
    init, solve = cls.__init__, cls.solve
    # per system: [task index, rows, cols, nonzeros, rank, replays in the first run, factor s, [replay s per run]]
    systems = {}  # (task index, rows, cols, nonzeros, rank, nth such in the task's run) -> its row
    made = {}  # id of a factorisation -> (the factorisation, kept so its id is not reused; its system)
    replays = collections.defaultdict(lambda: [0, 0.0])  # (run, system) -> [replays, s] in that run
    seen = collections.Counter()  # (run, key without the count) -> systems built so far in that run
    current = [(0, 0)]  # (run, task index)

    def timed_init(self, columns, keys):
        t0 = time.perf_counter()
        init(self, columns, keys)
        dt = time.perf_counter() - t0
        rep, i = current[0]
        nnz = sum(1 for col in columns for v in col.values() if v)
        shape = (i, len(keys), len(columns), nnz, self.rank)
        key = shape + (seen[rep, shape],)
        seen[rep, shape] += 1
        made[id(self)] = (self, key)
        row = systems.setdefault(key, [*shape, 0, dt, []])
        row[6] = min(row[6], dt)

    def timed_solve(self, rhs):
        t0 = time.perf_counter()
        out = solve(self, rhs)
        r = replays[current[0][0], made[id(self)][1]]
        r[0] += 1
        r[1] += time.perf_counter() - t0
        return out

    def before(rep, i):
        current[0] = (rep, i)

    cls.__init__, cls.solve = timed_init, timed_solve
    try:
        tasks, best, failed = _ab.best_times("solve", args.seed, args.repeat, before)
    finally:
        cls.__init__, cls.solve = init, solve
    for (rep, key), (count, dt) in replays.items():
        row = systems[key]
        if rep == 0:
            row[5] = count
        row[7].append(dt)
    best_systems = [[*row[:7], min(row[7], default=0.0)] for row in systems.values()]

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
