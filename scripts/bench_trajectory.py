#!/usr/bin/env python3
"""Print the benchmark trajectory from the BENCH_*.json records.

    python3 scripts/bench_trajectory.py

Each ``BENCH_<n>.json`` at the repository root is a ``perfbench/spread.py
--out`` record.  For every record, in order of ``n``, this prints the
machine it was measured on and, for each workload and end-to-end metric,
the median over its seeds and the spread: the distance between the first
and third quartile as a share of the median.  Standard library only.
"""
from __future__ import annotations

import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"BENCH_(\d+)\.json")


def records():
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        m = NAME.fullmatch(path.name)
        if m:
            found.append((int(m.group(1)), path))
    return sorted(found)


def machine(record) -> str:
    for workload in record["workloads"].values():
        for run in workload["runs"]:
            meta = run["meta"]
            return f"nproc {meta.get('nproc')}, Python {meta.get('python')}, {meta.get('cpu')}"
    return "no runs"


def main() -> int:
    found = records()
    if not found:
        print(f"no BENCH_*.json records in {ROOT}")
        return 1
    for n, path in found:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        kind = "per-layer (traced)" if record.get("trace") else "end-to-end"
        print(f"{path.name}: {kind}, {record.get('seconds')} s runs; {machine(record)}")
        for workload, entry in record["workloads"].items():
            seeds = len(entry["runs"])
            for name, s in entry["summary"].items():
                spread = "" if record.get("trace") else f"  spread {100 * s['spread']:6.2f}%"
                print(f"  {workload:<11}{name:<34} median {s['median']:<12.5g}{spread}"
                      f"  ({seeds} seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
