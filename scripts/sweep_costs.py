#!/usr/bin/env python3
"""Wall time and traced memory peak of each sweep of the benchmark's `sweep` workload.

    PYTHONPATH=src python3 scripts/sweep_costs.py [--repeat 3]

Runs the 14 sweeps that `perfbench/run.py --workload sweep` runs, at the
same sizes (the two CLI checks are called as the library calls they make),
one after the other in this process.  For each sweep it prints the report
(verdict, checked, trivial, the first 12 hex digits of the witness's
SHA-1), the best wall time over `--repeat` untraced runs, and the peak of
`tracemalloc` over one more run.  Comparing two checkouts' tables shows
whether their reports agree and how each sweep's time and memory moved,
without the full benchmark.  Standard library only.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import sys
import time
import tracemalloc

from gdcalc import _fastsweep as fs
from gdcalc.exactcore import VarContext, poly_from_terms
from gdcalc.polyvec import form_make


def sweeps():
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="untraced runs per sweep; the best is printed")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print(f"{'sweep':<26}{'verdict':<8}{'checked':>9}{'trivial':>9}  {'witness':<12}{'wall_ms':>10}{'peak_mb':>9}")
    total_ms = 0.0
    for name, run in sweeps():
        best = None
        for _ in range(args.repeat):
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
