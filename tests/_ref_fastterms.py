"""Reference contraction cochain: the slot-matching code the library replaced.

For every form term and every call it rebuilds the contraction table of
each coordinate against each argument term, enumerates every slot
assignment with its Koszul sign and wedges the contracted frames left to
right.  It is slow and kept only as an independent oracle for
``gdcalc._fastterms.phi_eval``; ``tests/test_fastterms_oracle.py`` pins
the library against it.  Frames, contraction signs and wedge signs are
worked out here on index tuples, without the engine's ``FastCtx`` tables.

``schouten_terms`` and ``m_terms`` return the engine's bracket and
structure operation as fresh TermMaps, for tests that compare whole
values rather than accumulate.
"""
from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence, Tuple

from gdcalc._fastterms import FastCtx, TermMap, m_into, schouten_into
from gdcalc.exactcore import Exponents


def schouten_terms(fc: FastCtx, A: TermMap, B: TermMap) -> TermMap:
    """[A, B] as a fresh TermMap."""
    acc: TermMap = {}
    schouten_into(fc, A, B, 1, acc)
    return acc


def m_terms(fc: FastCtx, A: TermMap, B: TermMap) -> TermMap:
    """m(a, b) = (-1)^{|a|-1}[a, b], summed over the terms a of A."""
    acc: TermMap = {}
    m_into(fc, A, B, 1, acc)
    return acc


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


def _frame(m: int) -> Tuple[int, ...]:
    return tuple(i for i in range(m.bit_length()) if m >> i & 1)


def _mask(frame: Sequence[int]) -> int:
    return sum(1 << i for i in frame)


def _merge(f1: Tuple[int, ...], f2: Tuple[int, ...]) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """(sign, merged frame) of theta(f1) ^ theta(f2); None when the frames share an index.

    The sign counts the pairs (i in f1, j in f2) with j < i.
    """
    if set(f1) & set(f2):
        return None
    inv = sum(1 for i in f1 for j in f2 if j < i)
    return (-1 if inv % 2 else 1), tuple(sorted(f1 + f2))


def _contract(j: int, frame: Tuple[int, ...]) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """<dx_j, theta(frame)>: (sign, frame without j), the sign (-1)^position of j."""
    if j not in frame:
        return None
    pos = frame.index(j)
    return (-1 if pos % 2 else 1), frame[:pos] + frame[pos + 1 :]


def phi_eval(
    fc: FastCtx,
    form_terms: Dict[Tuple[int, Exponents], int],
    args: Sequence[TermMap],
    degs: Sequence[int],
) -> TermMap:
    """Value of the degree-k contraction cochain on homogeneous arguments.

    Signs mirror the evaluator route: Koszul sign of the permutation on the
    argument degrees times (-1)^{sum (k-1-pos)*deg(sigma(pos))}, then the
    left-to-right wedge of single-coordinate contractions.  ``fc`` is
    accepted for the library's signature and not read.
    """
    k = len(args)
    total: TermMap = {}
    for (comask, fexps), fcoeff in form_terms.items():
        cobits = _frame(comask)
        if len(cobits) != k:
            raise ValueError("form degree does not match argument count")
        # tab[pos][slot]: contractions of coordinate cobits[pos] against slot
        tab = []
        skip = False
        for j in cobits:
            row = []
            for a in args:
                lst = []
                for (m, e), c in a.items():
                    hit = _contract(j, _frame(m))
                    if hit is not None:
                        lst.append((hit[1], e, hit[0] * c))
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
            prods = [((), fexps, fcoeff * s0)]
            for pos in range(k):
                r = tab[pos][sigma[pos]]
                nxt = []
                for af, ae, ac in prods:
                    for bf, be, bc in r:
                        merged = _merge(af, bf)
                        if merged is not None:
                            ms, mf = merged
                            nxt.append((mf, tuple(x + y for x, y in zip(ae, be)), ac * bc * ms))
                prods = nxt
                if not prods:
                    break
            for f, e, c in prods:
                key = (_mask(f), e)
                v = total.get(key, 0) + c
                if v:
                    total[key] = v
                else:
                    total.pop(key, None)
    return total
