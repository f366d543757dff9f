#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady each metric is.

    python3 perfbench/spread.py --workloads sweep,flow --seeds 10 --out perfbench/results/NAME.json

Runs ``run.py`` once per workload and seed (seeds 1 to ``--seeds``, for
``run_seconds`` as declared in BENCHMARK.json), one run at a time, and prints
for every end-to-end metric its median and its spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.  A spread is flagged when it exceeds a third of the
metric's bound in BENCHMARK.json.  ``--trace 1`` makes traced runs and
prints the medians of the per-layer metrics instead.  With ``--out`` every
run, its machine record and the summary are written as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    meta = next(json.loads(ln[5:]) for ln in lines if ln.startswith("meta "))
    return {"meta": meta, "result": json.loads(lines[-1])}


def summarize(runs, metrics) -> dict:
    out = {}
    for m in metrics:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
        median = statistics.median(values)
        out[m["name"]] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": m.get("bound"), "values": values,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced runs, summarizing the per-layer metrics")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    record = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            run = one_run(workload, seed, seconds, args.trace)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}"
                  + ("" if args.trace else " " + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())),
                  flush=True)
            runs.append(run)
        summary = summarize(runs, spec["per_layer" if args.trace else "end_to_end"])
        for name, s in summary.items():
            if args.trace:
                print(f"  {workload:<11}{name:<34} median {s['median']:.6g}")
                continue
            flag = ""
            if name != "setup_s" and s["bound"] is not None and s["spread"] > s["bound"]:
                flag = "  OVER BOUND"
            elif s["bound"] is not None and s["spread"] > s["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"  {workload:<11}{name:<14} median {s['median']:<12.5g} spread {100 * s['spread']:6.2f}% "
                  f"(bound {100 * (s['bound'] or 0):.0f}%){flag}", flush=True)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
