#!/usr/bin/env python3
"""Where a benchmark workload (`flow`, `hochschild` or `solve`) spends its time, by task family.

    python3 scripts/task_costs.py {flow,hochschild,solve} [CHECKOUT [CHECKOUT]] [--seed 1] [--repeat 3]

Builds one seed's tasks of the named workload as `perfbench/run.py
--workload` does (by importing `perfbench/workloads.py`, which it does not
modify), runs the whole task list `--repeat` times in this process, and
keeps each task's best wall time.  For each task family (the task name,
such as `cli:gauge-equiv-n3-d1` in `flow`, `jacobi-n2` in `hochschild` or
`cli:hoch-primitive-n3` in `solve`) it prints the task count, the number of
tasks whose verdict check failed on the first run (`flow`'s `gauge-equiv`
false negatives are the known gap), and the total and median of the best
times in ms.  As in `perfbench/run.py`, the best time is a warm one where
the library keeps work across calls (the primitive search's δ-image blocks
in `solve`); `scripts/solve_costs.py --repeat 1` gives the first-run
times.  The input documents of `flow` and `solve` go to a temporary
directory that is removed at exit; `hochschild` writes none.  Standard
library only.

Given one or two CHECKOUT roots, the table is made `--repeat` times per
checkout (rounds) by fresh processes on each checkout's gdcalc, each taking
the best of 3 runs per task, in the alternating order of `_ab.py`; the
tasks come from this script's `perfbench/workloads.py` on every side.  It
then prints, per family, the task count, each checkout's most failed tasks
in a round, each checkout's median over the rounds of the family's total
ms, and with two checkouts the change of the median and the rounds the
second one was faster in.
"""
from __future__ import annotations

import argparse
import collections
import statistics
import sys

import _ab


def table(workload: str, seed: int, repeat: int) -> None:
    """This process's table, from the gdcalc on its path."""
    tasks, best, failed = _ab.best_times(workload, seed, repeat)
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


def compare(checkouts, workload: str, seed: int, rounds: int) -> int:
    runs = _ab.tables(checkouts, rounds, __file__, workload, "--seed", str(seed), "--repeat", "3")
    names = _ab.side_names(checkouts)
    head = f"{'family':<28}{'tasks':>6}" + "".join(f"{n + ' failed':>11}" for n in names)
    print(head + "".join(f"{n + ' ms':>10}" for n in names) + _ab.change_head(len(checkouts)))
    for family, (tasks, *_) in runs[0][0].items():
        totals = [[float(t[family][2]) for t in side] for side in runs]
        row = f"{family:<28}{tasks:>6}" + "".join(f"{max(int(t[family][1]) for t in side):>11}" for side in runs)
        print(row + "".join(f"{m:>10.1f}" for m in _ab.medians(totals)) + _ab.change(totals))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=("flow", "hochschild", "solve"), help="the workload to time")
    ap.add_argument("checkouts", nargs="*", help="checkout roots to compare (at most two)")
    ap.add_argument("--seed", type=int, default=1, help="workload seed, as perfbench/run.py --seed")
    ap.add_argument(
        "--repeat", type=int, default=3,
        help="runs of the task list, each task's best kept; with checkouts, processes per checkout",
    )
    args = _ab.parse_args(ap)
    if not args.checkouts:
        table(args.workload, args.seed, args.repeat)
        return 0
    return compare(args.checkouts, args.workload, args.seed, args.repeat)


if __name__ == "__main__":
    sys.exit(main())
