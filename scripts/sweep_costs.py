#!/usr/bin/env python3
"""Wall time and traced memory peak of each sweep of the benchmark's `sweep` workload.

    python3 scripts/sweep_costs.py [CHECKOUT [CHECKOUT]] [--repeat 3]

Runs the 14 sweeps that `perfbench/run.py --workload sweep` runs, at the
same sizes (the two CLI checks are called as the library calls they make),
one after the other in this process.  For each sweep it prints the report
(verdict, checked, trivial, the first 12 hex digits of the witness's
SHA-1), the best wall time over `--repeat` untraced runs, and the peak of
`tracemalloc` over one more run.  Standard library only.

Given one or two CHECKOUT roots, the table is made `--repeat` times per
checkout (rounds) by fresh processes on each checkout's gdcalc, each taking
the best of 3 runs per sweep, in the alternating order of `_ab.py`.  It
then prints, per sweep, whether the reports of all runs agree, each
checkout's median over the rounds of its best wall time and its largest
peak, and with two checkouts the change of the median and the rounds the
second one was faster in; the last line gives each checkout's total per
round.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import sys
import time
import tracemalloc

import _ab


def sweeps():
    _ab.use_paths()
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


def compare(checkouts, rounds: int) -> int:
    runs = _ab.tables(checkouts, rounds, __file__, "--repeat", "3")
    names = _ab.side_names(checkouts)
    head = f"{'sweep':<26}{'reports':<9}" + "".join(f"{n + ' ms':>10}" for n in names)
    print(head + _ab.change_head(len(checkouts)) + "".join(f"{n + ' MB':>9}" for n in names))
    agree = True
    for sweep in list(runs[0][0])[:-1]:
        reports = {tuple(t[sweep][:4]) for side in runs for t in side}
        agree &= len(reports) == 1
        walls = [[float(t[sweep][4]) for t in side] for side in runs]
        row = f"{sweep:<26}{'same' if len(reports) == 1 else 'DIFFER':<9}"
        row += "".join(f"{m:>10.1f}" for m in _ab.medians(walls)) + _ab.change(walls)
        print(row + "".join(f"{max(float(t[sweep][5]) for t in side):>9.2f}" for side in runs))
    totals = ", ".join(
        f"{name} " + "/".join(f"{float(t['total'][0]):.0f}" for t in side) for name, side in zip(names, runs)
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
    args = _ab.parse_args(ap)
    if not args.checkouts:
        table(args.repeat)
        return 0
    return compare(args.checkouts, args.repeat)


if __name__ == "__main__":
    sys.exit(main())
