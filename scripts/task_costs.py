#!/usr/bin/env python3
"""Where a benchmark workload (`flow`, `hochschild` or `solve`) spends its time, by task family.

    PYTHONPATH=src python3 scripts/task_costs.py {flow,hochschild,solve} [--seed 1] [--repeat 3]
    python3 scripts/task_costs.py {flow,hochschild,solve} CHECKOUT [CHECKOUT] [--seed 1] [--repeat 3]

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

Each CHECKOUT is the root of a gdcalc checkout.  Given one or two, the
table above is made `--repeat` times per checkout (rounds), each time by a
fresh `python` process that runs this script with the checkout's `src` on
`PYTHONPATH` and takes the best of 3 runs per task; the tasks come from
this script's `perfbench/workloads.py` on every side.  With two, the order
of the checkouts alternates from round to round, so drift in the machine's
speed falls on both.  It then prints, per family, the task count, each
checkout's most failed tasks in a round, each checkout's median over the
rounds of the family's total ms, and with two checkouts the change of the
median and the rounds the second one was faster in.
"""
from __future__ import annotations

import argparse
import collections
import gc
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "src"))  # after PYTHONPATH, which may name another checkout
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402


def table(workload: str, seed: int, repeat: int) -> None:
    """This process's table, from the gdcalc on its path."""
    work = tempfile.mkdtemp(prefix=f"{workload}_costs-")
    try:
        build = getattr(workloads, workload)
        tasks = build(random.Random(f"{workload}:{seed}"), workloads.Files(work))
        best = [float("inf")] * len(tasks)
        failed = [False] * len(tasks)
        for rep in range(repeat):
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


def checkout_table(checkout: str, workload: str, seed: int):
    """{family: (tasks, failed, total_ms)} from a fresh process on the checkout's src."""
    env = dict(os.environ)
    src = os.path.join(checkout, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), workload, "--seed", str(seed), "--repeat", "3"],
        env=env, capture_output=True, text=True, check=True,
    )
    rows = {}
    for line in done.stdout.splitlines()[1:]:
        name, tasks, failed, total, _ = line.split()
        rows[name] = (int(tasks), int(failed), float(total))
    return rows


def compare(checkouts, workload: str, seed: int, rounds: int) -> int:
    runs = {c: [] for c in checkouts}
    for r in range(rounds):
        for c in checkouts if r % 2 == 0 else checkouts[::-1]:
            runs[c].append(checkout_table(c, workload, seed))
    names = [f"[{i}]" for i in range(len(checkouts))]
    for name, c in zip(names, checkouts):
        print(f"{name} {c}")
    head = f"{'family':<28}{'tasks':>6}" + "".join(f"{n + ' failed':>11}" for n in names)
    head += "".join(f"{n + ' ms':>10}" for n in names)
    if len(checkouts) == 2:
        head += f"{'change':>9}{'faster':>8}"
    print(head)
    for family, (tasks, _, _) in runs[checkouts[0]][0].items():
        failed = [max(t[family][1] for t in runs[c]) for c in checkouts]
        totals = [[t[family][2] for t in runs[c]] for c in checkouts]
        med = [statistics.median(w) for w in totals]
        row = f"{family:<28}{tasks:>6}" + "".join(f"{f:>11}" for f in failed)
        row += "".join(f"{m:>10.1f}" for m in med)
        if len(checkouts) == 2:
            faster = sum(b < a for a, b in zip(*totals))
            row += f"{100 * (med[1] - med[0]) / med[0]:>+8.1f}%{faster:>5}/{rounds:<2}"
        print(row)
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
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    if len(args.checkouts) > 2:
        ap.error("give at most two checkouts")
    if not args.checkouts:
        table(args.workload, args.seed, args.repeat)
        return 0
    return compare([os.path.abspath(c) for c in args.checkouts], args.workload, args.seed, args.repeat)


if __name__ == "__main__":
    sys.exit(main())
