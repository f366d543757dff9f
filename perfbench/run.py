#!/usr/bin/env python3
"""gdcalc benchmark: time to verdict on one seeded workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: the workload's tasks run in order,
each starting after the previous one has its verdict, and the whole task
list repeats until ``--seconds`` have passed (at least once).  The first
pass checks every verdict against the maths and re-verifies positive
answers; later passes must reproduce the first pass byte for byte.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the task
list three times instead (plain, wrapped, profiled; see layers.py) and
prints the per-layer metrics.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--selfcheck`` runs every declared workload on a few small tasks in both
modes and checks the output against the names and units in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import bisect
import cProfile
import json
import math
import os
import platform
import pstats
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "gdcalc")
sys.path.insert(0, HERE)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "checks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fastterms.self_s": "s",
    "fastterms.schouten_terms.calls": "count",
    "fastterms.phi_eval.calls": "count",
    "fastsweep.self_s": "s",
    "fastsweep.checked": "count",
    "fastsweep.trivial_ratio": "ratio",
    "fastsweep.pool_hit_ratio": "ratio",
    "hochschild.self_s": "s",
    "hochschild.brace.calls": "count",
    "hochschild.brace.s": "s",
    "hochschild.hoch_delta.calls": "count",
    "hochschild.hoch_delta.s": "s",
    "hochschild.terms_out": "count",
    "exactcore.self_s": "s",
    "exactcore.poly_mul.calls": "count",
    "exactcore.poly_add.calls": "count",
    "fractions.self_s": "s",
    "fractions.new.calls": "count",
    "linalg.self_s": "s",
    "linalg.gaussian_solve.calls": "count",
    "linalg.gaussian_solve.s": "s",
    "linalg.entries": "count",
    "linalg.nonzero_ratio": "ratio",
    "linalg.rank_ratio": "ratio",
    "polyvec.self_s": "s",
    "polyvec.schouten.calls": "count",
    "polyvec.schouten.s": "s",
    "chevalley.self_s": "s",
    "chevalley.evaluate.calls": "count",
    "chevalley.evaluate.s": "s",
    "twistcheck.self_s": "s",
    "twistcheck.mc_defect.calls": "count",
    "deform.self_s": "s",
    "deform.mc_solve.s": "s",
    "deform.gauge_flow.calls": "count",
    "deform.gauge_flow.s": "s",
    "deform.gauge_equivalent.s": "s",
    "cli.self_s": "s",
    "cli.docfmt.parse_s": "s",
    "cli.docfmt.serialize_s": "s",
    "cli.commands": "count",
    "trace.untraced_wall_s": "s",
    "trace.wrapped_wall_s": "s",
    "trace.profiled_wall_s": "s",
    "trace.overhead": "x",
}

SETUP_REPEATS = 25

# The machine's speed drifts by up to 2x within a minute (other tenants of the
# host share its cores), and CPU time drifts with it.  A fixed pure-Python
# probe tracks that drift closely.  During a timed run a wall-clock timer
# runs the probe every PROBE_EVERY_S, also in the middle of long tasks, and
# every task time is rescaled to the speed at which one probe takes
# PROBE_REF_S, using the median probe reading within PROBE_WINDOW_S of the
# task.  Raw times are printed next to the rescaled ones.
PROBE_REF_S = 0.0007
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 0.25
PROBE_SRC = """
def probe():
    t0 = perf_counter()
    d = {}
    for i in range(2000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i * 3
    return perf_counter() - t0


def probe_point():
    return sorted(probe() for _ in range(5))[2]
"""
_probe_ns = {"perf_counter": time.perf_counter}
exec(PROBE_SRC, _probe_ns)
probe = _probe_ns["probe"]

SETUP_CODE = (
    "from time import perf_counter\n"
    + PROBE_SRC
    + "before = probe_point()\n"
    "t = perf_counter()\n"
    "import gdcalc.cli\n"
    "took = perf_counter() - t\n"
    "print(repr(took), repr(before), repr(probe_point()))\n"
)


def machine() -> Dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def measure_setup() -> Tuple[float, float]:
    """Median time for a fresh interpreter to import gdcalc.cli, rescaled and raw.

    Each interpreter takes a probe reading just before and just after the
    import, and the import time is rescaled by their mean.  One warm-up
    interpreter is discarded.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        took, before, after = (float(x) for x in done.stdout.split())
        if i:
            raw.append(took)
            scaled.append(took * PROBE_REF_S / ((before + after) / 2))
    return statistics.median(scaled), statistics.median(raw)


def percentile(values: List[float], q: float) -> float:
    """Percentile interpolated linearly between the two closest ranks."""
    ordered = sorted(values)
    at = q * (len(ordered) - 1)
    lo = math.floor(at)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (at - lo) * (ordered[hi] - ordered[lo])


class SpeedMeter:
    """Probe readings taken on a wall-clock timer signal, between bytecodes of
    whatever runs; ``spent`` lets the caller take the probe time out again."""

    def __init__(self):
        self.at: List[float] = []
        self.took: List[float] = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        probe()
        took = time.perf_counter() - t0
        self.at.append(t0)
        self.took.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedMeter":
        probe()  # warm-up, discarded
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.at, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + PROBE_WINDOW_S)
        return PROBE_REF_S / statistics.median(self.took[lo:hi] or self.took)


class Runner:
    """Runs the task list pass after pass and keeps the verdict of every execution."""

    def __init__(self, tasks, meter: Optional[SpeedMeter] = None):
        self.tasks = tasks
        self.meter = meter
        self.reference: List[Optional[str]] = [None] * len(tasks)
        self.verdict: List[Optional[str]] = [None] * len(tasks)
        self.raw: List[List[float]] = [[] for _ in tasks]
        self.spans: List[Tuple[int, float, float]] = []
        self.pass_walls: List[float] = []
        self.samples = 0
        self.reason: List[Optional[str]] = [None] * len(tasks)

    def run_pass(self) -> float:
        from workloads import fingerprint

        first = not self.pass_walls
        wall = 0.0
        for i, task in enumerate(self.tasks):
            error = None
            spent = self.meter.spent if self.meter else 0.0
            t0 = time.perf_counter()
            try:
                out = task.call()
            except (Exception, SystemExit) as exc:  # a crash is a failed task, not a crashed benchmark
                out, error = None, f"error: {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            dt = t1 - t0 - ((self.meter.spent - spent) if self.meter else 0.0)
            wall += dt
            self.raw[i].append(dt)
            self.spans.append((i, t0, t1))
            self.samples += 1
            if error is None:
                text = fingerprint(out)
                if first:
                    self.reference[i] = text
                    try:
                        self.verdict[i] = task.check(out)
                    except Exception as exc:  # an unreadable output is a wrong answer
                        self.verdict[i] = f"unreadable output: {type(exc).__name__}: {exc}"
                elif text != self.reference[i]:
                    error = "output bytes differ between repeats"
            reason = error or self.verdict[i]
            if reason and self.reason[i] is None:
                self.reason[i] = reason
        self.pass_walls.append(wall)
        return wall

    def scaled(self) -> List[List[float]]:
        """Task times rescaled to the reference speed (raw times without a meter)."""
        if self.meter is None:
            return self.raw
        out: List[List[float]] = [[] for _ in self.tasks]
        seen = [0] * len(self.tasks)
        for i, t0, t1 in self.spans:
            out[i].append(self.raw[i][seen[i]] * self.meter.factor(t0, t1))
            seen[i] += 1
        return out

    # A task is one input of the workload, and it is attempted once per run:
    # its repeats are timing samples that must reproduce its first output.
    # So attempted and failed depend on the seed alone, not on how many
    # passes fit into the run.
    @property
    def attempted(self) -> int:
        return len(self.tasks) if self.pass_walls else 0

    @property
    def failures(self) -> Dict[str, int]:
        from workloads import KNOWN_GAP

        kinds: Dict[str, int] = {}
        for reason in self.reason:
            if reason:
                kind = KNOWN_GAP if reason.startswith(KNOWN_GAP) else reason.split(":")[0]
                kinds[kind] = kinds.get(kind, 0) + 1
        return kinds

    @property
    def examples(self) -> List[str]:
        return [f"{t.name}: {r}" for t, r in zip(self.tasks, self.reason) if r][:5]

    @property
    def failed(self) -> int:
        return sum(1 for reason in self.reason if reason)

    def correct(self) -> bool:
        from workloads import KNOWN_GAP

        return all(kind == KNOWN_GAP for kind in self.failures)


def timed_run(tasks, seconds: float) -> Runner:
    with SpeedMeter() as meter:
        runner = Runner(tasks, meter)
        start = time.perf_counter()
        while True:
            runner.run_pass()
            if time.perf_counter() - start >= seconds:
                return runner


def task_metrics(times: List[List[float]], tasks) -> Dict[str, float]:
    """Each task's time is its median over the passes; wall_s is their sum, the
    time one pass takes until every task has its verdict."""
    per_task = [statistics.median(ts) for ts in times]
    wall = sum(per_task)
    return {
        "wall_s": wall,
        "checks_per_s": sum(t.checks for t in tasks) / wall,
        "task_p50_ms": 1000 * percentile(per_task, 0.50),
        "task_p90_ms": 1000 * percentile(per_task, 0.90),
    }


def end_to_end(runner: Runner, setup: Tuple[float, float]) -> Tuple[Dict[str, float], List[str]]:
    metrics = {"setup_s": setup[0]}
    metrics.update(task_metrics(runner.scaled(), runner.tasks))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = dict(task_metrics(runner.raw, runner.tasks), setup_s=setup[1])
    took = runner.meter.took
    lines = [
        f"machine speed {PROBE_REF_S / statistics.median(took):.3f} of the reference "
        f"(median of {len(took)} probes; min {PROBE_REF_S / max(took):.3f}, max {PROBE_REF_S / min(took):.3f})",
        "raw " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()),
    ]
    return metrics, lines


def traced_run(tasks):
    from layers import LAYERS, Counters, self_times

    runner = Runner(tasks)
    untraced = runner.run_pass()
    counters = Counters()
    counters.install()
    try:
        wrapped = runner.run_pass()
    finally:
        counters.uninstall()
    prof = cProfile.Profile()
    prof.enable()
    try:
        profiled = runner.run_pass()
    finally:
        prof.disable()
    seconds, calls = self_times(pstats.Stats(prof).stats, PACKAGE)
    metrics: Dict[str, float] = {f"{layer}.self_s": seconds.get(layer, 0.0) for layer in LAYERS}
    metrics.update(calls)
    metrics.update(counters.metrics())
    metrics.update({
        "trace.untraced_wall_s": untraced,
        "trace.wrapped_wall_s": wrapped,
        "trace.profiled_wall_s": profiled,
        "trace.overhead": profiled / untraced,
    })
    return runner, metrics, seconds


def layer_table(seconds: Dict[str, float], metrics: Dict[str, float]) -> List[str]:
    total = sum(seconds.values()) or 1.0
    lines = [
        f"untraced wall {metrics['trace.untraced_wall_s']:.3f} s; profiled wall "
        f"{metrics['trace.profiled_wall_s']:.3f} s; overhead {metrics['trace.overhead']:.2f}x",
        f"{'layer':<14}{'self_s':>10}{'share':>8}",
    ]
    for name, s in sorted(seconds.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<14}{s:>10.3f}{100 * s / total:>7.1f}%")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> Dict:
    import workloads

    files = workloads.Files(ROOT)
    try:
        setup = None if trace else measure_setup()
        tasks = workloads.WORKLOADS[name](random.Random(f"{name}:{seed}"), files)
        if smoke:
            tasks = [t for t in tasks if t.smoke]
        if trace:
            runner, metrics, seconds_by_layer = traced_run(tasks)
            report = layer_table(seconds_by_layer, metrics)
            units = PER_LAYER
        else:
            runner = timed_run(tasks, seconds)
            metrics, report = end_to_end(runner, setup)
            units = END_TO_END
    finally:
        shutil.rmtree(files.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(files.dir))
        except OSError:
            pass
    meta = dict(machine(), workload=name, seed=seed, trace=int(trace), passes=len(runner.pass_walls),
                tasks_per_pass=len(tasks), task_samples=runner.samples)
    lines = ["meta " + json.dumps(meta, sort_keys=True)] + report
    for key in units:
        lines.append(f"{key:<34}{metrics[key]:>16.6f} {units[key]}")
    lines.append(
        f"fail_ratio {runner.failed / runner.attempted:.4f} ({runner.failed}/{runner.attempted}); "
        f"failures by kind {json.dumps(runner.failures, sort_keys=True)}"
    )
    lines.extend(f"failure {e}" for e in runner.examples)
    result = {
        "correct": runner.correct(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    return {"lines": lines, "result": result}


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def spec_problems(spec: Dict) -> List[str]:
    """Shape checks on BENCHMARK.json: keys, name and unit syntax, bounds."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"top-level keys {sorted(spec)}")
        return problems
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload entry {w}")
        names.append(w["name"])
    for key, fields in (("end_to_end", {"name", "unit", "better", "bound"}), ("per_layer", {"name", "unit", "better"})):
        for m in spec[key]:
            if set(m) != fields or not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
                problems.append(f"{key} entry {m}")
            if key == "end_to_end" and not 0 < m.get("bound", 0) <= 0.25:
                problems.append(f"bound of {m['name']}")
            names.append(m["name"])
    for name in names:
        if not NAME.fullmatch(name):
            problems.append(f"name {name!r}")
    if len(names) != len(set(names)):
        problems.append("names are not unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be declared in s, lower is better")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        problems.append("run_seconds")
    return problems


def selfcheck() -> int:
    """Run every declared workload on its smoke tasks; compare output with BENCHMARK.json."""
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = spec_problems(spec)
    declared = [w["name"] for w in spec["workloads"]]
    if set(declared) != set(workloads.WORKLOADS):
        problems.append(f"workloads: declared {declared}, implemented {sorted(workloads.WORKLOADS)}")
    for trace, key, produced in ((0, "end_to_end", END_TO_END), (1, "per_layer", PER_LAYER)):
        want = {m["name"]: m["unit"] for m in spec[key]}
        if want != produced:
            problems.append(f"{key}: declared {want}, produced {produced}")
        for name in declared:
            if name not in workloads.WORKLOADS:
                continue
            result = run_workload(name, 1, 0, bool(trace), smoke=True)["result"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}/trace={trace}: result keys {sorted(result)}")
            if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                problems.append(f"{name}/trace={trace}: attempted {result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name}/trace={trace}: metrics {got}")
            for k, v in result["metrics"].items():
                value = v["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{name}/trace={trace}: {k} = {value!r}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{name}/trace={trace}: {k} is not positive")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name}/trace={trace}: {result['failed']} failed on the smoke tasks")
            print(f"selfcheck {name} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} tasks", flush=True)
    for p in problems:
        print("selfcheck problem:", p)
    print("selfcheck", "FAILED" if problems else "OK")
    return 1 if problems else 0


class Terminated(BaseException):
    """SIGTERM, raised past the per-task error handling so that clean-up runs."""


def _terminate(signum, frame):
    raise Terminated()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli", "__init__.py")):
        sys.stderr.write(f"perfbench: no gdcalc sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, SRC)
    if args.selfcheck:
        return selfcheck()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    signal.signal(signal.SIGTERM, _terminate)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Terminated:
        return 143
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
