#!/usr/bin/env python3
"""Whole-process wall time of `gdcalc` commands, one per command family.

    python3 scripts/cli_startup.py [CHECKOUT ...] [--seed 1] [--repeat 12]

Each CHECKOUT is the root of a gdcalc checkout (default: this one); with
two, their runs alternate command by command in the order of `_ab.py`.
The commands are the first task of each family in one seed's `flow` and
`solve` workloads (built by importing `perfbench/workloads.py`, which it
does not modify), plus `lemma-check` and `verify`.  Each run is a fresh
`python -m gdcalc.cli ...` process with the checkout's `src` first on
`PYTHONPATH` and the caller's environment otherwise;
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
import sys

import _ab

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


def commands(seed: int, files):
    """(label, argv) per family, recorded by calling each task with run_cli stubbed."""
    workloads = _ab.workloads()
    seen = []
    real = workloads.run_cli
    workloads.run_cli = lambda argv: seen.append(list(argv)) or (0, "")
    try:
        tasks = {w: _ab.build(w, seed, files) for w in ("flow", "solve")}
        out = []
        for label, workload, name in FAMILIES:
            task = next(t for t in tasks[workload] if t.name == name)
            del seen[:]
            task.call()
            out.append((label, seen[0]))
    finally:
        workloads.run_cli = real
    return out + [(label, list(argv)) for label, argv in FIXED]


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
    ap.add_argument("checkouts", nargs="*", default=[_ab.ROOT], help="checkout roots to compare (at most two)")
    ap.add_argument("--seed", type=int, default=1, help="workload seed, as perfbench/run.py --seed")
    ap.add_argument("--repeat", type=int, default=12, help="processes per command and checkout")
    args = _ab.parse_args(ap)
    with _ab.documents() as files:
        cases = [("python -c pass", ["-c", "pass"])]
        cases += [(label, ["-m", "gdcalc.cli"] + argv) for label, argv in commands(args.seed, files)]

        def run(checkout, argv):
            dt, done = _ab.fresh(checkout, argv, files.dir)
            return dt * 1e3, done.returncode

        runs = _ab.alternate(args.checkouts, [argv for _, argv in cases], args.repeat, run)
        modules = [
            [loaded_modules(_ab.fresh(c, ["-X", "importtime"] + argv, files.dir)[1].stderr) for c in args.checkouts]
            for _, argv in cases[1:]
        ]

    names = _ab.side_names(args.checkouts)
    head = f"{'command':<20}" + "".join(f"{n + ' ms':>10}{'exit':>5}" for n in names)
    print(head + _ab.change_head(len(names), faster=False))
    for (label, _), per_side in zip(cases, runs):
        times = [[ms for ms, _ in side] for side in per_side]
        cells = [f"{m:>10.1f}{side[-1][1]:>5}" for m, side in zip(_ab.medians(times), per_side)]
        print(f"{label:<20}" + "".join(cells) + _ab.change(times, faster=False))
    print()
    print("gdcalc modules loaded (gdcalc. prefix dropped)")
    for (label, _), per_side in zip(cases[1:], modules):
        for name, loaded in zip(names, per_side):
            mods = [m[len("gdcalc."):] for m in loaded if m != "gdcalc"]
            print(f"{label:<20}{name:>4} {len(mods):>2}: {' '.join(mods)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
