"""Low-overhead term engine backing the exhaustive sweep suites.

Multivector terms are keyed by (frame bitmask, exponent tuple) with plain
integer coefficients; frame sign bookkeeping is table-driven per context.
The contraction cochain takes its signs from a per-context frame table:
the value of a coframe on unit frames, with every slot matching and its
Koszul sign summed, is computed once per (coframe mask, argument masks,
degrees) pattern on first use.  Unshuffle signs come from `subset_plan`,
one table per (arity, subset size) indexed by the odd-degree mask of the
argument tuple (`odd_mask`).  Summing happens in the producers: the
bracket, the structure operation, the wedge and the contraction each add
`scale` times their value straight into a caller's accumulator
(`schouten_into`, `m_into`, `wedge_into`, `phi_into`), and `tm_add_into`
adds a finished TermMap; the value-returning forms are thin wrappers over
them.  Every producer drops cancelled coefficients, so a TermMap is zero
exactly when it is empty.
Everything here reimplements, at term granularity, operations that already
exist on PolyVector/Cochain — the slow structures remain the reference
route, and the test suite pins this module against them on randomized
inputs.  Sweep drivers are the only intended consumers.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exactcore import Exponents, koszul_sign, koszul_unshuffle_sign
from .polyvec import DiffForm, PolyVector, mv_make

TermKey = Tuple[int, Exponents]
TermMap = Dict[TermKey, int]  # coefficients are ints (Fractions tolerated)

class FastCtx:
    """Per-dimension sign tables for bitmask frames."""

    __slots__ = (
        "n", "pop", "bits", "merge", "zero_exps", "_dcache", "_ecache", "_ftable"
    )

    def __init__(self, n: int):
        self.n = n
        size = 1 << n
        self.pop = [bin(m).count("1") for m in range(size)]
        self.bits = [tuple(i for i in range(n) if m >> i & 1) for m in range(size)]
        merge: List[List[int]] = [[0] * size for _ in range(size)]
        for m1 in range(size):
            for m2 in range(size):
                if m1 & m2:
                    continue
                inv = 0
                for i in self.bits[m1]:
                    inv += self.pop[m2 & ((1 << i) - 1)]
                merge[m1][m2] = -1 if inv & 1 else 1
        self.merge = merge
        self.zero_exps = (0,) * n
        self._dcache: Dict[Tuple[Exponents, int], Optional[Tuple[int, Exponents]]] = {}
        self._ecache: Dict[Tuple[Exponents, Exponents], Exponents] = {}
        self._ftable: Dict[
            Tuple[int, Tuple[int, ...], Tuple[int, ...]], Optional[Tuple[int, int]]
        ] = {}

    def mask_of(self, frame: Sequence[int]) -> int:
        m = 0
        for i in frame:
            m |= 1 << i
        return m

    def derive(self, exps: Exponents, i: int) -> Optional[Tuple[int, Exponents]]:
        key = (exps, i)
        hit = self._dcache.get(key, False)
        if hit is not False:
            return hit
        e = exps[i]
        out = None if e == 0 else (e, exps[:i] + (e - 1,) + exps[i + 1 :])
        self._dcache[key] = out
        return out

    def eadd(self, e1: Exponents, e2: Exponents) -> Exponents:
        key = (e1, e2)
        hit = self._ecache.get(key)
        if hit is None:
            hit = tuple(a + b for a, b in zip(e1, e2))
            self._ecache[key] = hit
        return hit


# ---------------------------------------------------------------------------
# conversion


def to_fast(fc: FastCtx, v: PolyVector) -> TermMap:
    out: TermMap = {}
    for frame, poly in v.terms.items():
        m = fc.mask_of(frame)
        for exps, c in poly.items():
            out[(m, exps)] = int(c) if c.denominator == 1 else c
    return out


def from_fast(fc: FastCtx, ctx, tm: TermMap) -> PolyVector:
    grouped: Dict[Tuple[int, ...], Dict[Exponents, Fraction]] = {}
    for (m, exps), c in tm.items():
        if not c:
            continue
        grouped.setdefault(fc.bits[m], {})[exps] = Fraction(c)
    return mv_make(ctx, list(grouped.items()))


def tm_add_into(acc: TermMap, tm: TermMap, s=1) -> None:
    for k, c in tm.items():
        v = acc.get(k, 0) + c * s
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


# ---------------------------------------------------------------------------
# Schouten bracket and the structure operation at term level


def _half_into(fc: FastCtx, m1, e1, c1, m2, e2, c2, sign, acc: TermMap) -> None:
    """Accumulate sign * D(a, b) for single terms a, b."""
    merge = fc.merge
    pop = fc.pop
    k1m1 = fc.pop[m1] - 1
    for i in fc.bits[m1]:
        d = fc.derive(e2, i)
        if d is None:
            continue
        factor, e2d = d
        im = 1 << i
        red = m1 ^ im
        ms = merge[red][m2]
        if not ms:
            continue
        # right derivative at position pos carries (-1)^(k-pos-1)
        s = sign * ms * factor
        if (k1m1 - pop[red & (im - 1)]) & 1:
            s = -s
        key = (red | m2, fc.eadd(e1, e2d))
        v = acc.get(key, 0) + c1 * c2 * s
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)


def schouten_into(fc: FastCtx, A: TermMap, B: TermMap, scale, acc: TermMap) -> None:
    """Add scale * [A, B] into acc, mirroring the PolyVector route term by term."""
    pop = fc.pop
    for (m1, e1), c1 in A.items():
        for (m2, e2), c2 in B.items():
            _half_into(fc, m1, e1, c1, m2, e2, c2, scale, acc)
            flip = -scale if ((pop[m1] - 1) * (pop[m2] - 1)) & 1 else scale
            _half_into(fc, m2, e2, c2, m1, e1, c1, -flip, acc)


def schouten_terms(fc: FastCtx, A: TermMap, B: TermMap) -> TermMap:
    """[A, B] mirroring the PolyVector route term by term."""
    acc: TermMap = {}
    schouten_into(fc, A, B, 1, acc)
    return acc


def m_into(fc: FastCtx, A: TermMap, B: TermMap, deg_a: int, scale, acc: TermMap) -> None:
    """Add scale * m(A, B) into acc, m(a, b) = (-1)^{|a|-1}[a, b] for |a| = deg_a."""
    schouten_into(fc, A, B, -scale if (deg_a - 1) & 1 else scale, acc)


def m_terms(fc: FastCtx, A: TermMap, B: TermMap, deg_a: int) -> TermMap:
    """m(a, b) = (-1)^{|a|-1}[a, b] for homogeneous a of degree deg_a."""
    acc: TermMap = {}
    m_into(fc, A, B, deg_a, 1, acc)
    return acc


def wedge_into(fc: FastCtx, A: TermMap, B: TermMap, scale, acc: TermMap) -> None:
    """Add scale * (A ^ B) into acc, frames merged with the context's merge signs."""
    merge = fc.merge
    eadd = fc.eadd
    for (m1, e1), c1 in A.items():
        row = merge[m1]
        for (m2, e2), c2 in B.items():
            s = row[m2]
            if not s:
                continue
            key = (m1 | m2, eadd(e1, e2))
            v = acc.get(key, 0) + c1 * c2 * s * scale
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)


# ---------------------------------------------------------------------------
# graded signs


def odd_mask(degs: Sequence[int]) -> int:
    """Bit s set when slot s has odd degree: the row index of subset_plan's signs."""
    par = 0
    for s, d in enumerate(degs):
        if d & 1:
            par |= 1 << s
    return par


@functools.lru_cache(maxsize=64)
def subset_plan(r: int, k: int):
    """Unshuffle table for the k-subsets of an arity-r argument tuple.

    Returns (plan, signs): plan lists (subset, complement) pairs with the
    subsets in itertools.combinations order, and signs[par][t] is the
    unshuffle sign of plan[t] on any degree tuple whose odd-degree slots
    are the set bits of par (the sign depends on the parities alone).
    """
    plan = tuple(
        (t, tuple(s for s in range(r) if s not in t))
        for t in itertools.combinations(range(r), k)
    )
    signs = tuple(
        tuple(
            koszul_unshuffle_sign([par >> s & 1 for s in range(r)], t) for t, _ in plan
        )
        for par in range(1 << r)
    )
    return plan, signs


# ---------------------------------------------------------------------------
# the contraction cochain at term level


def form_to_fast(fc: FastCtx, omega: DiffForm) -> Dict[Tuple[int, Exponents], int]:
    out: Dict[Tuple[int, Exponents], int] = {}
    for coframe, poly in omega.terms.items():
        m = fc.mask_of(coframe)
        for exps, c in poly.items():
            out[(m, exps)] = int(c) if c.denominator == 1 else c
    return out


def _frame_entry(
    fc: FastCtx, comask: int, masks: Tuple[int, ...], degs: Tuple[int, ...]
) -> Optional[Tuple[int, int]]:
    """phi(dx(comask)) on the unit frames theta(masks): (output mask, coefficient).

    The sum over slot matchings: Koszul sign of the permutation on the
    argument degrees times (-1)^{sum (k-1-pos)*deg(sigma(pos))}, then the
    left-to-right wedge of single-coordinate contractions.  Every nonzero
    matching leaves the same frame (the arguments' frames with the coframe
    taken out once), so the value is one frame or None when it vanishes.
    """
    k = len(masks)
    merge = fc.merge
    pop = fc.pop
    # tab[pos][slot]: contraction of coordinate cobits[pos] against slot
    tab = []
    for j in fc.bits[comask]:
        jb = 1 << j
        tab.append(
            [
                (m ^ jb, -1 if pop[m & (jb - 1)] & 1 else 1) if m & jb else None
                for m in masks
            ]
        )
    out_mask = 0
    coeff = 0
    cands = [tuple(s for s in range(k) if row[s]) for row in tab]
    for sigma in itertools.product(*cands):
        if len(set(sigma)) != k:
            continue
        exponent = 0
        for pos in range(k):
            exponent += (k - 1 - pos) * degs[sigma[pos]]
        c = koszul_sign(degs, sigma) * (-1 if exponent & 1 else 1)
        am = 0
        for pos in range(k):
            bm, bc = tab[pos][sigma[pos]]
            ms = merge[am][bm]
            if not ms:
                break
            am |= bm
            c *= bc * ms
        else:
            out_mask = am
            coeff += c
    return (out_mask, coeff) if coeff else None


def phi_into(
    fc: FastCtx,
    form_terms: Dict[Tuple[int, Exponents], int],
    args: Sequence[TermMap],
    degs: Sequence[int],
    scale,
    acc: TermMap,
) -> None:
    """Add scale times the degree-k contraction cochain's value into acc.

    Contraction never differentiates a coefficient, so on single terms the
    value is one term: its frame and integer sign come from the context's
    frame table (`_frame_entry`, filled on first use and keyed by the
    coframe mask, the argument frame masks and the degrees), its
    coefficient is the product of the coefficients and its exponents add.
    A form degree that does not match len(args) raises ValueError before
    acc is touched.
    """
    k = len(args)
    pop = fc.pop
    for comask, _ in form_terms:
        if pop[comask] != k:
            raise ValueError("form degree does not match argument count")
    degs = tuple(degs)
    table = fc._ftable
    eadd = fc.eadd
    for combo in itertools.product(*[a.items() for a in args]):
        masks = tuple([m for (m, _), _ in combo])
        esum = None
        cprod = scale
        for (_, e), c in combo:
            esum = e if esum is None else eadd(esum, e)
            cprod *= c
        for (comask, fexps), fcoeff in form_terms.items():
            key = (comask, masks, degs)
            hit = table.get(key, False)
            if hit is False:
                hit = table[key] = _frame_entry(fc, comask, masks, degs)
            if hit is None:
                continue
            om, sign = hit
            tkey = (om, fexps if esum is None else eadd(fexps, esum))
            v = acc.get(tkey, 0) + fcoeff * sign * cprod
            if v:
                acc[tkey] = v
            else:
                acc.pop(tkey, None)


def phi_eval(
    fc: FastCtx,
    form_terms: Dict[Tuple[int, Exponents], int],
    args: Sequence[TermMap],
    degs: Sequence[int],
) -> TermMap:
    """Value of the degree-k contraction cochain on homogeneous arguments."""
    acc: TermMap = {}
    phi_into(fc, form_terms, args, degs, 1, acc)
    return acc
