#!/usr/bin/env python3
"""Wall time and traced memory peak of each sweep of the benchmark's `sweep` workload.

    PYTHONPATH=src python3 scripts/sweep_costs.py [--repeat 3]
    python3 scripts/sweep_costs.py CHECKOUT [CHECKOUT] [--repeat 3]

Runs the 14 sweeps that `perfbench/run.py --workload sweep` runs, at the
same sizes (the two CLI checks are called as the library calls they make),
one after the other in this process.  For each sweep it prints the report
(verdict, checked, trivial, the first 12 hex digits of the witness's
SHA-1), the best wall time over `--repeat` untraced runs, and the peak of
`tracemalloc` over one more run.  Standard library only.

Each CHECKOUT is the root of a gdcalc checkout.  Given one or two, the
table above is made `--repeat` times per checkout (rounds), each time by
a fresh `python` process that runs this script with the checkout's `src`
on `PYTHONPATH` and takes the best of 3 runs per sweep; with two, the
order of the checkouts alternates from round to round, so drift in the
machine's speed falls on both.  It then prints,
per sweep, whether the reports of all runs agree, each checkout's median
over the rounds of its best wall time and its largest peak, and with two
checkouts the change of the median and the rounds the second one was
faster in; the last line gives each checkout's total per round.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import os
import statistics
import subprocess
import sys
import time
import tracemalloc


def sweeps():
    from gdcalc import _fastsweep as fs
    from gdcalc.exactcore import VarContext, poly_from_terms
    from gdcalc.polyvec import form_make

    c3 = VarContext(("x1", "x2", "x3"))
    c4 = VarContext(("x1", "x2", "x3", "x4"))
    h3 = form_make(c3, [((0, 1, 2), poly_from_terms(3, [(1, (0, 0, 0))]))])
    h4 = form_make(c4, [((0, 1, 2), poly_from_terms(4, [(1, (0, 0, 0, 0))]))])
    h4_open = form_make(c4, [((0, 1, 2), poly_from_terms(4, [(1, (0, 0, 0, 1))]))])
    out = []
    for n, ctx, deg in ((3, c3, 2), (4, c4, 1)):
        for ident in ("antisymmetry", "jacobi", "leibniz"):
            fn = getattr(fs, f"schouten_{ident}")
            out.append((f"schouten-{ident}-n{n}", lambda fn=fn, ctx=ctx, deg=deg: fn(ctx, poly_degree=deg, mv_degree=3)))
    # lemma-check --dim 3 --bounds-degree 1
    out += [
        ("lemma-differential-n3", lambda: fs.lemma_differential(c3, form_degree_max=3, coeff_degree=1)),
        ("lemma-bracket-n3", lambda: fs.lemma_bracket_vanishes(c3, form_degree_max=3, coeff_degree=1)),
        ("lemma-pairing-n3", lambda: fs.lemma_pairing_on_vectors(c3, coeff_degree=1)),
    ]
    # linfty-check on dx1^dx2^dx3 (default --bounds-degree 2)
    out += [
        ("linfty-jacobi-n3", lambda: fs.linfty_jacobi(c3, h3, poly_degree=2)),
        ("linfty-mixed-n3", lambda: fs.linfty_mixed(c3, h3, poly_degree=1)),
        ("linfty-ternary-n3", lambda: fs.linfty_ternary(c3, h3, poly_degree=0)),
        ("linfty-ternary-n4", lambda: fs.linfty_ternary(c4, h4, poly_degree=0)),
        ("linfty-mixed-open-n4", lambda: fs.linfty_mixed(c4, h4_open, poly_degree=0)),
    ]
    return out


def table(repeat: int) -> None:
    """This process's table, from the gdcalc on its path."""
    print(f"{'sweep':<26}{'verdict':<8}{'checked':>9}{'trivial':>9}  {'witness':<12}{'wall_ms':>10}{'peak_mb':>9}")
    total_ms = 0.0
    for name, run in sweeps():
        best = None
        for _ in range(repeat):
            gc.collect()
            t0 = time.perf_counter()
            rep = run()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        gc.collect()
        tracemalloc.start()
        run()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        wit = hashlib.sha1(rep.witness.encode()).hexdigest()[:12] if rep.witness else "-"
        verdict = "pass" if rep.passed else "FAIL"
        total_ms += best * 1e3
        print(f"{name:<26}{verdict:<8}{rep.checked:>9}{rep.trivial:>9}  {wit:<12}"
              f"{best * 1e3:>10.1f}{peak / 2**20:>9.2f}")
    print(f"{'total':<64}{total_ms:>10.1f}")


def checkout_table(checkout: str):
    """{sweep: (report, wall_ms, peak_mb)} from a fresh process on the checkout's src."""
    env = dict(os.environ)
    src = os.path.join(checkout, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--repeat", "3"],
        env=env, capture_output=True, text=True, check=True,
    )
    rows = {}
    for line in done.stdout.splitlines()[1:-1]:
        name, verdict, checked, trivial, wit, wall, peak = line.split()
        rows[name] = ((verdict, checked, trivial, wit), float(wall), float(peak))
    return rows


def compare(checkouts, rounds: int) -> int:
    runs = {c: [] for c in checkouts}
    for r in range(rounds):
        for c in checkouts if r % 2 == 0 else checkouts[::-1]:
            runs[c].append(checkout_table(c))
    names = [f"[{i}]" for i in range(len(checkouts))]
    for name, c in zip(names, checkouts):
        print(f"{name} {c}")
    head = f"{'sweep':<26}{'reports':<9}" + "".join(f"{n + ' ms':>10}" for n in names)
    if len(checkouts) == 2:
        head += f"{'change':>9}{'faster':>8}"
    print(head + "".join(f"{n + ' MB':>9}" for n in names))
    agree = True
    for sweep in runs[checkouts[0]][0]:
        reports = {t[sweep][0] for c in checkouts for t in runs[c]}
        agree &= len(reports) == 1
        walls = [[t[sweep][1] for t in runs[c]] for c in checkouts]
        med = [statistics.median(w) for w in walls]
        row = f"{sweep:<26}{'same' if len(reports) == 1 else 'DIFFER':<9}"
        row += "".join(f"{m:>10.1f}" for m in med)
        if len(checkouts) == 2:
            faster = sum(b < a for a, b in zip(*walls))
            row += f"{100 * (med[1] - med[0]) / med[0]:>+8.1f}%{faster:>5}/{rounds:<2}"
        peaks = [max(t[sweep][2] for t in runs[c]) for c in checkouts]
        print(row + "".join(f"{p:>9.2f}" for p in peaks))
    totals = ", ".join(
        f"{name} " + "/".join(f"{sum(row[1] for row in t.values()):.0f}" for t in runs[c])
        for name, c in zip(names, checkouts)
    )
    print(f"total ms per round: {totals}")
    return 0 if agree else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="*", help="checkout roots to compare (at most two)")
    ap.add_argument(
        "--repeat", type=int, default=3,
        help="untraced runs per sweep, the best printed; with checkouts, processes per checkout",
    )
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    if len(args.checkouts) > 2:
        ap.error("give at most two checkouts")
    if not args.checkouts:
        table(args.repeat)
        return 0
    return compare([os.path.abspath(c) for c in args.checkouts], args.repeat)


if __name__ == "__main__":
    sys.exit(main())
