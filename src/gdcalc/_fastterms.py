"""The term engine: the Schouten bracket, the wedge and the contraction cochain.

Terms are keyed by (frame bitmask, exponent tuple) with integer coefficients
(`Fraction` where the denominator is not 1).  This is the only implementation
of the bracket, the wedge and the contraction on TermMaps: `PolyVector` and
`DiffForm` hold a TermMap, so `polyvec`, `twistcheck` and `deform` hand
their values' maps straight to it, and `tests/_ref_polyvec.py`
keeps an independent tuple-frame route as the oracle.  The sweeps of
`_fastsweep` multiply unit terms only, so they fill their products
straight from the sign tables below (`bracket_plans`, `merge` and
`frame_entry`), which are thus the single source of every frame sign.

The sign tables (`pop`, `bits`, `merge` and the bracket's plan for each pair
of frames) depend on the masks alone: contexts of one dimension share them,
and they fill entry by entry on first use, so a context is cheap at any
dimension.  The value memos (`_dcache`, `_ecache` and `_ftable`, the
contraction's matching sum per (coframe mask, argument masks) pattern)
belong to one context: a sweep, or one public call of `polyvec`,
`twistcheck` or `deform`.  Every sign that depends on a term's degree reads
it off the term's frame, the popcount of its mask, so arguments may mix
degrees and callers pass none.  Unshuffle signs come from
`subset_plan`, indexed by the odd-degree mask of the argument tuple
(`odd_mask`).  The producers add `scale` times their value straight into a
caller's accumulator (`schouten_into`, `m_into`, `wedge_into`, `phi_into`;
`tm_add_into` adds a finished TermMap) and drop cancelled coefficients, so a
TermMap is zero exactly when it is empty.
"""
from __future__ import annotations

import functools
import itertools
from typing import Dict, Optional, Sequence, Tuple

from .exactcore import Exponents, koszul_sign, koszul_unshuffle_sign

TermKey = Tuple[int, Exponents]
TermMap = Dict[TermKey, int]  # coefficients are ints (Fractions tolerated)


class _Table(dict):
    """A dict that computes a missing entry from its key on first use."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _bit_tuple(m: int) -> Tuple[int, ...]:
    return tuple(i for i in range(m.bit_length()) if m >> i & 1)


def _merge_sign(m1: int, m2: int) -> int:
    """Sign taking theta(m1) ^ theta(m2) to theta(m1 | m2); 0 when the frames overlap.

    The parity of the pairs (i in m1, j in m2) with j < i: the
    transpositions that interleave the two blocks.
    """
    if m1 & m2:
        return 0
    inv = 0
    for i in _bit_tuple(m1):
        inv += (m2 & ((1 << i) - 1)).bit_count()
    return -1 if inv & 1 else 1


@functools.lru_cache(maxsize=None)
def _shared_tables(n: int):
    """pop, bits, merge and bracket-plan tables for dimension n, all filled on first use."""
    merge = _Table(lambda m1: _Table(functools.partial(_merge_sign, m1)))
    return _Table(int.bit_count), _Table(_bit_tuple), merge, _Table(lambda m1: {})


class FastCtx:
    """Shared sign tables for bitmask frames plus this context's value memos."""

    __slots__ = ("n", "pop", "bits", "merge", "_plans", "_dcache", "_ecache", "_ftable")

    def __init__(self, n: int):
        self.n = n
        self.pop, self.bits, self.merge, self._plans = _shared_tables(n)
        # (exps, i) -> derivative, (e1, e2) -> sum, (comask, masks) -> frame entry
        self._dcache, self._ecache, self._ftable = {}, {}, {}

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


def tm_add_into(acc: TermMap, tm: TermMap, s=1) -> None:
    for k, c in tm.items():
        v = acc.get(k, 0) + c * s
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


# ---------------------------------------------------------------------------
# Schouten bracket, the structure operation and the wedge


def _half_plan(fc: FastCtx, m1: int, m2: int, sign: int) -> Tuple[Tuple[int, int, int], ...]:
    """(i, output mask, sign) for each index i of m1 that D(theta(m1), theta(m2)) keeps.

    D(a, b) = sum_i (a dtheta_i^R) . d(b)/dx_i: the right derivative at
    position pos of a length-k frame carries (-1)^(k-pos-1), and the reduced
    frame is merged with m2 (indices that overlap drop out).
    """
    plan = []
    k1m1 = fc.pop[m1] - 1
    for i in fc.bits[m1]:
        im = 1 << i
        red = m1 ^ im
        s = fc.merge[red][m2]
        if s:
            if (k1m1 - fc.pop[red & (im - 1)]) & 1:
                s = -s
            plan.append((i, red | m2, s * sign))
    return tuple(plan)


def _bracket_plans(fc: FastCtx, m1: int, m2: int):
    """The two half plans of [theta(m1), theta(m2)], the second with its sign folded in."""
    flip = -1 if ((fc.pop[m1] - 1) * (fc.pop[m2] - 1)) & 1 else 1
    return _half_plan(fc, m1, m2, 1), _half_plan(fc, m2, m1, -flip)


def bracket_plans(fc: FastCtx, m1: int, m2: int):
    """`_bracket_plans`, memoised in the shared plan table.  `schouten_into`
    reads the table inline, and so do the sweeps, which call this on a miss."""
    row = fc._plans[m1]
    hit = row.get(m2)
    if hit is None:
        hit = row[m2] = _bracket_plans(fc, m1, m2)
    return hit


def schouten_into(fc: FastCtx, A: TermMap, B: TermMap, scale, acc: TermMap) -> None:
    """Add scale * [A, B] into acc.

    [a, b] = D(a, b) - (-1)^{(|a|-1)(|b|-1)} D(b, a) on single terms, summed
    bilinearly; the frame signs of each pair of frames come from the shared
    plan table (`_bracket_plans`).
    """
    plans = fc._plans
    derive = fc.derive
    eadd = fc.eadd
    for (m1, e1), c1 in A.items():
        row = plans[m1]
        for (m2, e2), c2 in B.items():
            try:
                ab, ba = row[m2]
            except KeyError:
                ab, ba = row[m2] = _bracket_plans(fc, m1, m2)
            c = c1 * c2 * scale
            # D(a, b) differentiates b's coefficient, D(b, a) a's
            for plan, ek, ed in ((ab, e1, e2), (ba, e2, e1)):
                for i, om, s in plan:
                    d = derive(ed, i)
                    if d is None:
                        continue
                    key = (om, eadd(ek, d[1]))
                    v = acc.get(key, 0) + c * s * d[0]
                    if v:
                        acc[key] = v
                    else:
                        acc.pop(key, None)


def m_into(fc: FastCtx, A: TermMap, B: TermMap, scale, acc: TermMap) -> None:
    """Add scale * m(A, B) into acc, m(a, b) = (-1)^{|a|-1}[a, b] term by term of A."""
    pop = fc.pop
    signed = {key: c if pop[key[0]] & 1 else -c for key, c in A.items()}
    schouten_into(fc, signed, B, scale, acc)


def wedge_into(fc: FastCtx, A: TermMap, B: TermMap, scale, acc: TermMap) -> None:
    """Add scale * (A ^ B) into acc, frames merged with the shared merge signs."""
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


def _frame_entry(fc: FastCtx, comask: int, masks: Tuple[int, ...]) -> Optional[Tuple[int, int]]:
    """phi(dx(comask)) on the unit frames theta(masks): (output mask, coefficient).

    The sum over slot matchings: Koszul sign of the permutation on the
    argument degrees (the frames' lengths) times
    (-1)^{sum (k-1-pos)*deg(sigma(pos))}, then the left-to-right wedge of
    single-coordinate contractions.  Every nonzero
    matching leaves the same frame (the arguments' frames with the coframe
    taken out once), so the value is one frame or None when it vanishes.
    """
    k = len(masks)
    merge = fc.merge
    pop = fc.pop
    degs = [pop[m] for m in masks]
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


def frame_entry(fc: FastCtx, comask: int, masks: Tuple[int, ...]) -> Optional[Tuple[int, int]]:
    """`_frame_entry`, memoised in the context's frame table (which `phi_into`
    reads inline), so a caller can ask on frames alone whether a contraction
    vanishes."""
    key = (comask, masks)
    hit = fc._ftable.get(key, False)
    if hit is False:
        hit = fc._ftable[key] = _frame_entry(fc, comask, masks)
    return hit


def phi_into(
    fc: FastCtx,
    form_terms: Dict[Tuple[int, Exponents], int],
    args: Sequence[TermMap],
    scale,
    acc: TermMap,
) -> None:
    """Add scale times the degree-k contraction cochain's value into acc.

    Contraction never differentiates a coefficient, so on single terms the
    value is one term: its frame and integer sign come from the context's
    frame table (`_frame_entry`, filled on first use and keyed by the
    coframe mask and the argument frame masks, whose lengths are the
    argument degrees), its coefficient is the product of the coefficients
    and its exponents add.
    A form degree that does not match len(args) raises ValueError before
    acc is touched.
    """
    k = len(args)
    pop = fc.pop
    for comask, _ in form_terms:
        if pop[comask] != k:
            raise ValueError("form degree does not match argument count")
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
            key = (comask, masks)
            hit = table.get(key, False)
            if hit is False:
                hit = table[key] = _frame_entry(fc, comask, masks)
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
) -> TermMap:
    """Value of the degree-k contraction cochain, multilinear in the arguments' terms."""
    acc: TermMap = {}
    phi_into(fc, form_terms, args, 1, acc)
    return acc
