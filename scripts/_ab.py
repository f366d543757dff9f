"""What the scripts that time gdcalc share: the path rule, fresh processes,
the timed task loop, the alternation of checkouts and the comparison columns.

A comparison runs each side in a fresh `python` process with the side's
checkout `src` first on `PYTHONPATH`.  Results are kept by side position,
so an A/A control is one checkout given twice.  Standard library only.
"""
from __future__ import annotations

import contextlib
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


def use_paths() -> None:
    """Put `perfbench` first on `sys.path` and this checkout's `src` last, so
    gdcalc comes from `PYTHONPATH` where that names a checkout (as in the
    processes of `fresh`) and from this checkout otherwise."""
    for path, at in ((os.path.join(ROOT, "perfbench"), 0), (os.path.join(ROOT, "src"), len(sys.path))):
        if path not in sys.path:
            sys.path.insert(at, path)


def workloads():
    """`perfbench/workloads.py`, imported unmodified."""
    use_paths()
    import workloads

    return workloads


def fresh(checkout: str, argv, cwd: str = None):
    """(wall seconds, finished process) of `python ARGV` on the checkout's gdcalc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(checkout, "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    return time.perf_counter() - t0, done


def tables(checkouts, rounds: int, script: str, *args: str):
    """Per side, one table per round from the script run again with `args`
    on the side's checkout: {first field: other fields} per row below the head."""
    def run(checkout, _):
        done = fresh(checkout, [os.path.abspath(script), *args])[1]
        done.check_returncode()
        return {row[0]: row[1:] for row in map(str.split, done.stdout.splitlines()[1:])}

    return alternate(checkouts, [None], rounds, run)[0]


@contextlib.contextmanager
def documents():
    """A `workloads.Files` in a temporary directory that is removed at exit."""
    work = tempfile.mkdtemp(prefix="gdcalc-scripts-")
    try:
        yield workloads().Files(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def build(workload: str, seed: int, files):
    """One seed's tasks of the workload, as `perfbench/run.py --seed` builds them."""
    return workloads().WORKLOADS[workload](random.Random(f"{workload}:{seed}"), files)


def best_times(workload: str, seed: int, repeat: int, before=None):
    """(tasks, best seconds, failed on the first run) over `repeat` runs of
    the task list; `before(run, index)` is called before each task."""
    with documents() as files:
        tasks = build(workload, seed, files)
        best = [float("inf")] * len(tasks)
        failed = [False] * len(tasks)
        for rep in range(repeat):
            gc.collect()
            for i, task in enumerate(tasks):
                if before is not None:
                    before(rep, i)
                t0 = time.perf_counter()
                out = task.call()
                best[i] = min(best[i], time.perf_counter() - t0)
                if rep == 0:
                    failed[i] = task.check(out) is not None
    return tasks, best, failed


def alternate(checkouts, tasks, rounds: int, run):
    """out[t][s]: the results of run(checkouts[s], tasks[t]), one per round.

    Per round and task each side runs once, in order in even rounds and in
    reverse in odd ones, so drift in the machine's speed falls on all sides.
    """
    out = [[[] for _ in checkouts] for _ in tasks]
    for r in range(rounds):
        order = range(len(checkouts)) if r % 2 == 0 else range(len(checkouts) - 1, -1, -1)
        for t, task in enumerate(tasks):
            for s in order:
                out[t][s].append(run(checkouts[s], task))
    return out


def parse_args(ap):
    """`ap.parse_args()`, `--repeat` at least 1, at most two checkouts made absolute."""
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    checkouts = getattr(args, "checkouts", [])
    if len(checkouts) > 2:
        ap.error("give at most two checkouts")
    args.checkouts = [os.path.abspath(c) for c in checkouts]
    return args


def side_names(checkouts):
    """Print an `[i] path` line per side; return the names `[i]`."""
    names = [f"[{i}]" for i in range(len(checkouts))]
    for name, c in zip(names, checkouts):
        print(f"{name} {c}")
    return names


def medians(per_side):
    return [statistics.median(v) for v in per_side]


def change_head(sides: int, faster: bool = True) -> str:
    if sides != 2:
        return ""
    return f"{'change':>9}" + (f"{'faster':>8}" if faster else "")


def change(per_side, faster: bool = True) -> str:
    """With two sides, the change of the medians from the first to the
    second and the rounds in which the second was faster."""
    if len(per_side) != 2:
        return ""
    a, b = medians(per_side)
    cell = f"{100 * (b - a) / a:>+8.1f}%"
    if faster:
        won = sum(y < x for x, y in zip(*per_side))
        cell += f"{won:>5}/{len(per_side[0]):<2}"
    return cell
