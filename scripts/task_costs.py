#!/usr/bin/env python3
"""Where a benchmark workload (`flow` or `hochschild`) spends its time, by task family.

    PYTHONPATH=src python3 scripts/task_costs.py {flow,hochschild} [--seed 1] [--repeat 3]

Builds one seed's tasks of the named workload as `perfbench/run.py
--workload` does (by importing `perfbench/workloads.py`, which it does not
modify), runs the whole task list `--repeat` times in this process, and
keeps each task's best wall time.  For each task family (the task name,
such as `cli:gauge-equiv-n3-d1` in `flow` or `jacobi-n2` in `hochschild`)
it prints the task count, the number of tasks whose verdict check failed on
the first run (`flow`'s `gauge-equiv` false negatives are the known gap),
and the total and median of the best times in ms.  Comparing two
checkouts' tables shows which families a change sped up, without a
profiler.  `flow`'s input documents go to a temporary directory that is
removed at exit; `hochschild` writes none.  Standard library only.
"""
from __future__ import annotations

import argparse
import collections
import gc
import os
import random
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=("flow", "hochschild"), help="the workload to time")
    ap.add_argument("--seed", type=int, default=1, help="workload seed, as perfbench/run.py --seed")
    ap.add_argument("--repeat", type=int, default=3, help="runs of the task list; each task's best is kept")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    work = tempfile.mkdtemp(prefix=f"{args.workload}_costs-")
    try:
        build = getattr(workloads, args.workload)
        tasks = build(random.Random(f"{args.workload}:{args.seed}"), workloads.Files(work))
        best = [float("inf")] * len(tasks)
        failed = [False] * len(tasks)
        for rep in range(args.repeat):
            gc.collect()
            for i, task in enumerate(tasks):
                t0 = time.perf_counter()
                out = task.call()
                best[i] = min(best[i], time.perf_counter() - t0)
                if rep == 0:
                    failed[i] = task.check(out) is not None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    times = collections.defaultdict(list)
    fails = collections.Counter()
    for task, dt, bad in zip(tasks, best, failed):
        times[task.name].append(dt * 1e3)
        fails[task.name] += bad
    rows = sorted(times.items(), key=lambda kv: -sum(kv[1]))
    rows.append(("total", [dt * 1e3 for dt in best]))
    fails["total"] = sum(failed)
    print(f"{'family':<28}{'tasks':>6}{'failed':>7}{'total_ms':>10}{'median_ms':>10}")
    for name, ms in rows:
        print(f"{name:<28}{len(ms):>6}{fails[name]:>7}{sum(ms):>10.1f}{statistics.median(ms):>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
