"""Reference contraction cochain: the slot-matching code the library replaced.

For every form term and every call it rebuilds the contraction table of
each coordinate against each argument term, enumerates every slot
assignment with its Koszul sign and wedges the contracted frames left to
right.  It is slow and kept only as an independent oracle for
``gdcalc._fastterms.phi_eval``; ``tests/test_fastterms_oracle.py`` pins
the library against it.
"""
from __future__ import annotations

import itertools
from typing import Dict, Sequence, Tuple

from gdcalc._fastterms import FastCtx, TermMap
from gdcalc.exactcore import Exponents


def koszul_sign_fast(degs: Sequence[int], perm: Sequence[int]) -> int:
    exponent = 0
    k = len(perm)
    for i in range(k):
        pi = perm[i]
        if degs[pi] & 1:
            for j in range(i + 1, k):
                pj = perm[j]
                if pi > pj and degs[pj] & 1:
                    exponent += 1
    return -1 if exponent & 1 else 1


def phi_eval(
    fc: FastCtx,
    form_terms: Dict[Tuple[int, Exponents], int],
    args: Sequence[TermMap],
    degs: Sequence[int],
) -> TermMap:
    """Value of the degree-k contraction cochain on homogeneous arguments.

    Signs mirror the evaluator route: Koszul sign of the permutation on the
    argument degrees times (-1)^{sum (k-1-pos)*deg(sigma(pos))}, then the
    left-to-right wedge of single-coordinate contractions.
    """
    k = len(args)
    merge = fc.merge
    pop = fc.pop
    total: TermMap = {}
    for (comask, fexps), fcoeff in form_terms.items():
        cobits = fc.bits[comask]
        if len(cobits) != k:
            raise ValueError("form degree does not match argument count")
        # tab[pos][slot]: contractions of coordinate cobits[pos] against slot
        tab = []
        skip = False
        for j in cobits:
            jb = 1 << j
            low = jb - 1
            row = []
            for a in args:
                lst = [
                    (m ^ jb, e, -c if pop[m & low] & 1 else c)
                    for (m, e), c in a.items()
                    if m & jb
                ]
                row.append(lst)
            if not any(row):
                skip = True
                break
            tab.append(row)
        if skip:
            continue
        # enumerate only slot assignments with nonzero contractions everywhere
        cands = [tuple(s for s in range(k) if tab[pos][s]) for pos in range(k)]
        for sigma in itertools.product(*cands):
            if len(set(sigma)) != k:
                continue
            exponent = 0
            for pos in range(k):
                exponent += (k - 1 - pos) * degs[sigma[pos]]
            s0 = koszul_sign_fast(degs, sigma) * (-1 if exponent & 1 else 1)
            prods = [(0, fexps, fcoeff * s0)]
            for pos in range(k):
                r = tab[pos][sigma[pos]]
                nxt = []
                for am, ae, ac in prods:
                    for bm, be, bc in r:
                        ms = merge[am][bm]
                        if ms:
                            nxt.append((am | bm, fc.eadd(ae, be), ac * bc * ms))
                prods = nxt
                if not prods:
                    break
            for m, e, c in prods:
                key = (m, e)
                v = total.get(key, 0) + c
                if v:
                    total[key] = v
                else:
                    total.pop(key, None)
    return total
