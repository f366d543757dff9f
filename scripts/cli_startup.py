#!/usr/bin/env python3
"""Whole-process wall time of `gdcalc` commands, one per command family.

    python3 scripts/cli_startup.py [CHECKOUT ...] [--seed 1] [--repeat 12]

Each CHECKOUT is the root of a gdcalc checkout (default: this one); with
two, their runs alternate, so drift in the machine's speed falls on both.
The commands are the first task of each family in one seed's `flow` and
`solve` workloads (built by importing `perfbench/workloads.py`, which it
does not modify, with this checkout's `src`), plus `lemma-check` and
`verify`.  Each run is a fresh `python -m gdcalc.cli ...` process with the
checkout's `src` on `PYTHONPATH` and the caller's environment otherwise;
in particular `PYTHONDONTWRITEBYTECODE`, under which every process
compiles each module it imports, is passed through as it is.  For each
command and checkout it prints the median wall time in ms and the exit
code, then the `gdcalc` modules the command loaded (from one extra run
under `-X importtime`).  `python -c pass` is timed alongside as the
interpreter's own floor.  The input documents go to a temporary directory
that is removed at exit.  Standard library only.
"""
from __future__ import annotations

import argparse
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

# (label, workload, task name): the first task of that name supplies the argv
FAMILIES = (
    ("twisted-check", "flow", "cli:twisted-check"),
    ("mc-defect", "flow", "cli:mc-defect"),
    ("phi-eval", "flow", "cli:phi-eval"),
    ("gauge", "flow", "cli:gauge"),
    ("mc-solve (flow)", "flow", "cli:mc-solve"),
    ("gauge-equiv n3", "flow", "cli:gauge-equiv-n3-d1"),
    ("hoch primitive n3", "solve", "cli:hoch-primitive-n3"),
    ("mc-solve n5", "solve", "cli:mc-solve-n5"),
)
FIXED = (
    ("lemma-check", ["lemma-check", "--dim", "2", "--bounds-degree", "0"]),
    ("verify", ["verify", "--suite", "all"]),
)


def commands(seed: int, files: "workloads.Files"):
    """(label, argv) per family, recorded by calling each task with run_cli stubbed."""
    seen = []
    real = workloads.run_cli
    workloads.run_cli = lambda argv: seen.append(list(argv)) or (0, "")
    try:
        tasks = {w: workloads.WORKLOADS[w](random.Random(f"{w}:{seed}"), files) for w in ("flow", "solve")}
        out = []
        for label, workload, name in FAMILIES:
            task = next(t for t in tasks[workload] if t.name == name)
            del seen[:]
            task.call()
            out.append((label, seen[0]))
    finally:
        workloads.run_cli = real
    return out + [(label, list(argv)) for label, argv in FIXED]


def run(checkout: str, args, cwd: str, importtime: bool = False):
    env = dict(os.environ)
    src = os.path.join(checkout, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + args
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    return time.perf_counter() - t0, done


def loaded_modules(stderr: str):
    """The gdcalc modules named in `-X importtime` output, in import order."""
    names = []
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name.startswith("gdcalc"):
                names.append(name)
    return names


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="*", default=[ROOT], help="checkout roots to compare (at most two)")
    ap.add_argument("--seed", type=int, default=1, help="workload seed, as perfbench/run.py --seed")
    ap.add_argument("--repeat", type=int, default=12, help="processes per command and checkout")
    args = ap.parse_args()
    if not 1 <= len(args.checkouts) <= 2:
        ap.error("give one or two checkouts")
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    checkouts = [os.path.abspath(c) for c in args.checkouts]
    work = tempfile.mkdtemp(prefix="cli_startup-")
    try:
        cases = [("python -c pass", ["-c", "pass"])]
        cases += [(label, ["-m", "gdcalc.cli"] + argv) for label, argv in commands(args.seed, workloads.Files(work))]
        times = {(label, c): [] for label, _ in cases for c in checkouts}
        codes = {}
        for rep in range(args.repeat):
            order = checkouts if rep % 2 == 0 else checkouts[::-1]
            for label, argv in cases:
                for c in order:
                    dt, done = run(c, argv, work)
                    times[label, c].append(dt * 1e3)
                    codes[label, c] = done.returncode
        modules = {}
        for label, argv in cases[1:]:
            for c in checkouts:
                _, done = run(c, argv, work, importtime=True)
                modules[label, c] = loaded_modules(done.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [f"[{i}]" for i in range(len(checkouts))]
    for name, c in zip(names, checkouts):
        print(f"{name} {c}")
    head = f"{'command':<20}" + "".join(f"{n + ' ms':>10}{'exit':>5}" for n in names)
    print(head + (f"{'change':>9}" if len(checkouts) == 2 else ""))
    for label, _ in cases:
        med = [statistics.median(times[label, c]) for c in checkouts]
        row = f"{label:<20}" + "".join(f"{m:>10.1f}{codes[label, c]:>5}" for m, c in zip(med, checkouts))
        if len(checkouts) == 2:
            row += f"{100 * (med[1] - med[0]) / med[0]:>+8.1f}%"
        print(row)
    print()
    print("gdcalc modules loaded (gdcalc. prefix dropped)")
    for label, _ in cases[1:]:
        for name, c in zip(names, checkouts):
            mods = [m[len("gdcalc."):] for m in modules[label, c] if m != "gdcalc"]
            print(f"{label:<20}{name:>4} {len(mods):>2}: {' '.join(mods)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
