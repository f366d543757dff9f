"""Exhaustive identity sweeps at gate scale, on the term engine.

Each sweep enumerates canonical basis tuples in a fixed deterministic
order, prunes tuples on which every term of the identity is forced to
vanish structurally, and evaluates the identity exactly.

Two prunes are used.  Grading: a bracket term's output degree is fixed by
the degrees of its inputs, and a degree outside 0..n cannot be
represented (it would need more than n distinct frame indices), so both
sides of the identity are the empty map.  Coverage: every value produced
by the contraction cochain of a form carries only frame indices drawn
from its arguments, and contracts away one full coframe of the form, so
a tuple whose frame union misses the coframe evaluates to zero in every
composition.  Pruned tuples are reported in `trivial`; evaluated tuples
in `checked`.

Repetition across tuples is aggressively memoized (bracket pairs,
contraction values on argument subsets); the caches are per-sweep and do
not change what is checked.  Unshuffle signs are read from the parity
table of `_fastterms.subset_plan`: each checked tuple's odd-degree mask is
computed once and selects the row of signs for all its subsets.  Terms of
an identity are accumulated in place (`schouten_into`, `m_into`,
`wedge_into`, `phi_into` add a signed value straight into the tuple's
accumulator).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ._fastterms import (
    FastCtx,
    TermMap,
    m_into,
    m_terms,
    odd_mask,
    phi_eval,
    phi_into,
    schouten_into,
    schouten_terms,
    subset_plan,
    tm_add_into,
    wedge_into,
)
from .exactcore import Exponents, VarContext, format_rat, monomials_upto, poly_from_terms
from .polyvec import DiffForm, d_form, form_degree, form_make, to_termmap

__all__ = [
    "CheckReport",
    "Element",
    "sweep_elements",
    "schouten_antisymmetry",
    "schouten_jacobi",
    "schouten_leibniz",
    "lemma_differential",
    "lemma_bracket_vanishes",
    "lemma_pairing_on_vectors",
    "linfty_jacobi",
    "linfty_mixed",
    "linfty_ternary",
]


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    checked: int
    trivial: int
    witness: Optional[str]


@dataclass(frozen=True)
class Element:
    """One canonical basis multivector x^exps theta_frame, coefficient 1."""

    mask: int
    exps: Exponents
    deg: int
    terms: Tuple[Tuple[Tuple[int, Exponents], int], ...]  # singleton TermMap items


def _mono_label(names: Sequence[str], exps: Exponents) -> str:
    parts = [names[i] + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e]
    return "*".join(parts) if parts else "1"


def element_label(names: Sequence[str], fc: FastCtx, el: Element) -> str:
    frame = ",".join(str(i) for i in fc.bits[el.mask])
    return f"{_mono_label(names, el.exps)}@({frame})"


def format_terms(names: Sequence[str], fc: FastCtx, tm: TermMap) -> str:
    items = sorted(
        ((fc.bits[m], e, c) for (m, e), c in tm.items() if c),
        key=lambda t: (len(t[0]), t[0], sum(t[1]), t[1]),
    )
    if not items:
        return "0"
    return " + ".join(
        f"{format_rat(Fraction(c))}*{_mono_label(names, e)}"
        f"@({','.join(str(i) for i in f)})"
        for f, e, c in items
    )


def sweep_elements(
    fc: FastCtx, poly_degree: int, mv_degrees: Sequence[int]
) -> List[Element]:
    """Same enumeration order as the canonical PolyVector basis."""
    n = fc.n
    monos = list(monomials_upto(n, poly_degree))
    out: List[Element] = []
    for k in mv_degrees:
        if k > n:
            continue
        for frame in itertools.combinations(range(n), k):
            mask = fc.mask_of(frame)
            for exps in monos:
                out.append(Element(mask, exps, k, (((mask, exps), 1),)))
    return out


def _witness(
    names: Sequence[str], fc: FastCtx, els: Sequence[Element], value: TermMap
) -> str:
    tup = " | ".join(element_label(names, fc, e) for e in els)
    return f"({tup}) -> {format_terms(names, fc, value)}"


class _Pool:
    """Shared element tables plus memoized pair operations."""

    def __init__(self, fc: FastCtx, elements: Sequence[Element]):
        self.fc = fc
        self.els = elements
        self.tms = [dict(el.terms) for el in elements]
        self.degs = [el.deg for el in elements]
        self.masks = [el.mask for el in elements]
        self._brackets: Dict[Tuple[int, int], TermMap] = {}
        self._mpairs: Dict[Tuple[int, int], TermMap] = {}

    def bracket(self, i: int, j: int) -> TermMap:
        got = self._brackets.get((i, j))
        if got is None:
            got = schouten_terms(self.fc, self.tms[i], self.tms[j])
            self._brackets[(i, j)] = got
        return got

    def m_pair(self, i: int, j: int) -> TermMap:
        got = self._mpairs.get((i, j))
        if got is None:
            got = m_terms(self.fc, self.tms[i], self.tms[j], self.degs[i])
            self._mpairs[(i, j)] = got
        return got


# ---------------------------------------------------------------------------
# Schouten identity sweeps


def schouten_antisymmetry(
    ctx: VarContext, *, poly_degree: int = 2, mv_degree: int = 3
) -> CheckReport:
    """[a,b] = -(-1)^{(|a|-1)(|b|-1)}[b,a] over all basis pairs."""
    fc = FastCtx(ctx.n)
    els = sweep_elements(fc, poly_degree, range(min(mv_degree, ctx.n) + 1))
    pool = _Pool(fc, els)
    checked = trivial = 0
    for i, j in itertools.combinations_with_replacement(range(len(els)), 2):
        a, b = els[i], els[j]
        if a.deg + b.deg - 1 > ctx.n:
            trivial += 1
            continue
        checked += 1
        acc = dict(pool.bracket(i, j))
        flip = -1 if ((a.deg - 1) * (b.deg - 1)) & 1 else 1
        tm_add_into(acc, pool.bracket(j, i), flip)
        if acc:
            return CheckReport(
                "schouten-antisymmetry",
                False,
                checked,
                trivial,
                _witness(ctx.names, fc, (a, b), acc),
            )
    return CheckReport("schouten-antisymmetry", True, checked, trivial, None)


def schouten_jacobi(
    ctx: VarContext, *, poly_degree: int = 2, mv_degree: int = 3
) -> CheckReport:
    """Cyclic graded Jacobi over all basis triples (shifted-degree signs)."""
    fc = FastCtx(ctx.n)
    els = sweep_elements(fc, poly_degree, range(min(mv_degree, ctx.n) + 1))
    pool = _Pool(fc, els)
    checked = trivial = 0
    n = ctx.n
    for i, j, k in itertools.combinations_with_replacement(range(len(els)), 3):
        a, b, c = els[i], els[j], els[k]
        if a.deg + b.deg + c.deg - 2 > n:
            trivial += 1
            continue
        checked += 1
        acc: TermMap = {}
        s1 = -1 if ((a.deg - 1) * (c.deg - 1)) & 1 else 1
        schouten_into(fc, pool.bracket(i, j), pool.tms[k], s1, acc)
        s2 = -1 if ((b.deg - 1) * (a.deg - 1)) & 1 else 1
        schouten_into(fc, pool.bracket(j, k), pool.tms[i], s2, acc)
        s3 = -1 if ((c.deg - 1) * (b.deg - 1)) & 1 else 1
        schouten_into(fc, pool.bracket(k, i), pool.tms[j], s3, acc)
        if acc:
            return CheckReport(
                "schouten-jacobi",
                False,
                checked,
                trivial,
                _witness(ctx.names, fc, (a, b, c), acc),
            )
    return CheckReport("schouten-jacobi", True, checked, trivial, None)


def schouten_leibniz(
    ctx: VarContext, *, poly_degree: int = 2, mv_degree: int = 3
) -> CheckReport:
    """[a, b^c] = [a,b]^c + (-1)^{(|a|-1)|b|} b^[a,c] over basis triples."""
    fc = FastCtx(ctx.n)
    els = sweep_elements(fc, poly_degree, range(min(mv_degree, ctx.n) + 1))
    pool = _Pool(fc, els)
    checked = trivial = 0
    n = ctx.n
    idx = range(len(els))
    for i in idx:
        a = els[i]
        for j, k in itertools.combinations_with_replacement(idx, 2):
            b, c = els[j], els[k]
            if a.deg + b.deg + c.deg - 1 > n:
                trivial += 1
                continue
            checked += 1
            bc: TermMap = {}
            wedge_into(fc, pool.tms[j], pool.tms[k], 1, bc)
            acc = schouten_terms(fc, pool.tms[i], bc)
            wedge_into(fc, pool.bracket(i, j), pool.tms[k], -1, acc)
            sgn = -1 if ((a.deg - 1) * b.deg) & 1 else 1
            wedge_into(fc, pool.tms[j], pool.bracket(i, k), -sgn, acc)
            if acc:
                return CheckReport(
                    "schouten-leibniz",
                    False,
                    checked,
                    trivial,
                    _witness(ctx.names, fc, (a, b, c), acc),
                )
    return CheckReport("schouten-leibniz", True, checked, trivial, None)


# ---------------------------------------------------------------------------
# contraction-cochain lemma sweeps


def _monomial_forms(
    fc: FastCtx, form_degree_max: int, coeff_degree: int, *, min_degree: int = 0
) -> List[Tuple[int, Exponents, int]]:
    """(coframe mask, coefficient exponents, form degree), canonical order."""
    out = []
    monos = list(monomials_upto(fc.n, coeff_degree))
    for e in range(min_degree, min(form_degree_max, fc.n) + 1):
        for coframe in itertools.combinations(range(fc.n), e):
            mask = fc.mask_of(coframe)
            for exps in monos:
                out.append((mask, exps, e))
    return out


def _lemma_pool(
    fc: FastCtx, tuple_poly_degree: int, mv_degree: int
) -> Tuple[_Pool, int]:
    """Frame elements first, then the non-constant (dressed) elements.

    Returns the pool and the count of pure-frame elements; tuples built
    from it carry at most one dressed slot.
    """
    cap = range(min(mv_degree, fc.n) + 1)
    frames = sweep_elements(fc, 0, cap)
    dressed = [el for el in sweep_elements(fc, tuple_poly_degree, cap) if any(el.exps)]
    return _Pool(fc, frames + dressed), len(frames)


def _lemma_index_tuples(
    n_frames: int, n_dressed: int, arity: int
) -> Iterator[Tuple[int, ...]]:
    """All-frame index tuples, then tuples with exactly one dressed slot.

    Complete for the identities swept here: both sides are graded-symmetric
    cochains whose total differential-operator order across all slots is at
    most one (each summand applies the bracket exactly once), and such
    operators are determined by values on tuples with at most one
    non-constant slot.
    """
    frame_ids = range(n_frames)
    if arity == 0:
        yield ()
        return
    yield from itertools.combinations_with_replacement(frame_ids, arity)
    for d in range(n_frames, n_frames + n_dressed):
        for rest in itertools.combinations_with_replacement(frame_ids, arity - 1):
            yield (d,) + rest


class _PhiSubsetCache:
    """Contraction-cochain values on element subsets, keyed by indices."""

    def __init__(self, pool: _Pool, form_terms: Dict[Tuple[int, Exponents], int]):
        self.pool = pool
        self.form_terms = form_terms
        self.store: Dict[Tuple[int, ...], TermMap] = {}

    def value(self, ids: Tuple[int, ...]) -> TermMap:
        got = self.store.get(ids)
        if got is None:
            pool = self.pool
            got = phi_eval(
                pool.fc,
                self.form_terms,
                [pool.tms[i] for i in ids],
                [pool.degs[i] for i in ids],
            )
            self.store[ids] = got
        return got


def _differential_of_phi(
    fc: FastCtx,
    mask: int,
    exps: Exponents,
    e: int,
    args: Sequence[TermMap],
    degs: Sequence[int],
    *,
    phi_subset=None,
    m_pair=None,
) -> TermMap:
    """[m, phi(alpha)] on one argument tuple, for alpha = x^exps dx(mask).

    `phi_subset` / `m_pair` let a sweep supply memoized inner values; both
    default to direct evaluation.
    """
    form_terms = {(mask, exps): 1}
    r = e + 1
    if e == 0:
        return m_terms(fc, {(0, exps): 1}, args[0], 0)
    acc: TermMap = {}
    outer_sign = 1 if e & 1 else -1  # -(-1)^(e-2)
    par = odd_mask(degs)
    plan, signs = subset_plan(r, e)
    for (subset, (rest,)), eps in zip(plan, signs[par]):
        if phi_subset is not None:
            inner = phi_subset(subset)
        else:
            inner = phi_eval(
                fc, form_terms, [args[s] for s in subset], [degs[s] for s in subset]
            )
        if not inner:
            continue
        inner_deg = sum([degs[s] for s in subset]) - e
        m_into(fc, inner, args[rest], inner_deg, eps, acc)
    plan, signs = subset_plan(r, 2)
    for ((s1, s2), rest), eps in zip(plan, signs[par]):
        if m_pair is not None:
            inner = m_pair(s1, s2)
        else:
            inner = m_terms(fc, args[s1], args[s2], degs[s1])
        if not inner:
            continue
        phi_into(
            fc,
            form_terms,
            [inner] + [args[s] for s in rest],
            [degs[s1] + degs[s2] - 1] + [degs[s] for s in rest],
            eps * outer_sign,
            acc,
        )
    return acc


def lemma_differential(
    ctx: VarContext,
    *,
    form_degree_max: int = 3,
    coeff_degree: int = 2,
    tuple_poly_degree: int = 1,
    mv_degree: int = 3,
) -> CheckReport:
    """[m, phi(alpha)] = phi(d alpha) for every monomial form alpha.

    Monomial forms span all forms within bounds and both sides are linear
    in alpha, so the sweep is complete for the stated bounds.  The tuple
    family is complete for total operator order <= 1 (see
    _lemma_index_tuples); grading and coverage prunes skip structurally
    zero tuples.
    """
    fc = FastCtx(ctx.n)
    n = ctx.n
    pool, n_frames = _lemma_pool(fc, tuple_poly_degree, mv_degree)
    n_dressed = len(pool.els) - n_frames
    checked = trivial = 0
    for mask, exps, e in _monomial_forms(fc, form_degree_max, coeff_degree):
        alpha = form_make(ctx, [(fc.bits[mask], poly_from_terms(n, [(1, exps)]))])
        dform_fast = to_termmap(fc, d_form(alpha))
        form_terms = {(mask, exps): 1}
        phis = _PhiSubsetCache(pool, form_terms)
        r = e + 1
        for idx in _lemma_index_tuples(n_frames, n_dressed, r):
            union = 0
            sd = 0
            for i in idx:
                union |= pool.masks[i]
                sd += pool.degs[i]
            out_deg = sd - e - 1
            if out_deg < 0 or out_deg > n or (mask & ~union):
                trivial += 1
                continue
            checked += 1
            args = [pool.tms[i] for i in idx]
            degs = [pool.degs[i] for i in idx]
            acc = _differential_of_phi(
                fc,
                mask,
                exps,
                e,
                args,
                degs,
                phi_subset=lambda sub: phis.value(tuple([idx[s] for s in sub])),
                m_pair=lambda s1, s2: pool.m_pair(idx[s1], idx[s2]),
            )
            if dform_fast:
                phi_into(fc, dform_fast, args, degs, -1, acc)
            if acc:
                els = tuple(pool.els[i] for i in idx)
                label = f"{_mono_label(ctx.names, exps)}*dx({fc.bits[mask]})"
                return CheckReport(
                    "lemma-differential",
                    False,
                    checked,
                    trivial,
                    f"form {label}: " + _witness(ctx.names, fc, els, acc),
                )
    return CheckReport("lemma-differential", True, checked, trivial, None)


def lemma_bracket_vanishes(
    ctx: VarContext,
    *,
    form_degree_max: int = 3,
    coeff_degree: int = 0,
    mv_degree: int = 3,
) -> CheckReport:
    """[phi(alpha), phi(beta)] = 0 for all monomial form pairs.

    Both cochains contract their arguments pointwise and never
    differentiate anything, so values on all-frame tuples determine the
    bracket completely, and polynomial coefficients on the forms multiply
    through the contractions unchanged — checking unit coefficients
    (coeff_degree=0) covers every dressed pair exactly.  Larger
    coeff_degree sweeps the dressed pairs explicitly where affordable.
    """
    fc = FastCtx(ctx.n)
    n = ctx.n
    frames = sweep_elements(fc, 0, range(min(mv_degree, n) + 1))
    pool = _Pool(fc, frames)
    forms = _monomial_forms(fc, form_degree_max, coeff_degree, min_degree=1)
    caches = [_PhiSubsetCache(pool, {(mask, exps): 1}) for mask, exps, _ in forms]
    checked = trivial = 0
    for fi in range(len(forms)):
        amask, aexps, ea = forms[fi]
        phis_a = caches[fi]
        terms_a = phis_a.form_terms
        for fj in range(fi, len(forms)):
            bmask, bexps, eb = forms[fj]
            phis_b = caches[fj]
            terms_b = phis_b.form_terms
            r = ea + eb - 1
            need = amask | bmask
            sign = -1 if ((ea - 2) * (eb - 2)) & 1 else 1
            plan_b, signs_b = subset_plan(r, eb)
            plan_a, signs_a = subset_plan(r, ea)
            for idx in itertools.combinations_with_replacement(range(len(frames)), r):
                union = 0
                sd = 0
                for i in idx:
                    union |= pool.masks[i]
                    sd += pool.degs[i]
                out_deg = sd - ea - eb
                if out_deg < 0 or out_deg > n or (need & ~union):
                    trivial += 1
                    continue
                checked += 1
                degs = [pool.degs[i] for i in idx]
                par = odd_mask(degs)
                acc: TermMap = {}
                for (subset, rest), eps in zip(plan_b, signs_b[par]):
                    inner = phis_b.value(tuple([idx[s] for s in subset]))
                    if inner:
                        phi_into(
                            fc,
                            terms_a,
                            [inner] + [pool.tms[idx[s]] for s in rest],
                            [sum([degs[s] for s in subset]) - eb] + [degs[s] for s in rest],
                            eps,
                            acc,
                        )
                for (subset, rest), eps in zip(plan_a, signs_a[par]):
                    inner = phis_a.value(tuple([idx[s] for s in subset]))
                    if inner:
                        phi_into(
                            fc,
                            terms_b,
                            [inner] + [pool.tms[idx[s]] for s in rest],
                            [sum([degs[s] for s in subset]) - ea] + [degs[s] for s in rest],
                            -sign * eps,
                            acc,
                        )
                if acc:
                    la = f"{_mono_label(ctx.names, aexps)}*dx({fc.bits[amask]})"
                    lb = f"{_mono_label(ctx.names, bexps)}*dx({fc.bits[bmask]})"
                    els = tuple(pool.els[i] for i in idx)
                    return CheckReport(
                        "lemma-bracket",
                        False,
                        checked,
                        trivial,
                        f"forms {la}, {lb}: " + _witness(ctx.names, fc, els, acc),
                    )
    return CheckReport("lemma-bracket", True, checked, trivial, None)


def lemma_pairing_on_vectors(ctx: VarContext, *, coeff_degree: int = 2) -> CheckReport:
    """phi(g dx_i)(h theta_j) = g*h*delta_ij over the monomial bases."""
    fc = FastCtx(ctx.n)
    n = ctx.n
    monos = list(monomials_upto(n, coeff_degree))
    checked = 0
    for i in range(n):
        for g in monos:
            for j in range(n):
                for h in monos:
                    checked += 1
                    val = phi_eval(fc, {(1 << i, g): 1}, [{((1 << j), h): 1}], [1])
                    expect: TermMap = {(0, fc.eadd(g, h)): 1} if i == j else {}
                    tm_add_into(val, expect, -1)
                    if val:
                        return CheckReport(
                            "lemma-pairing",
                            False,
                            checked,
                            0,
                            f"dx{i} against theta{j} with monos {g},{h}",
                        )
    return CheckReport("lemma-pairing", True, checked, 0, None)


# ---------------------------------------------------------------------------
# reduced homotopy-relation sweeps (binary bracket l2 = m, ternary l3 = phi(H))


def linfty_jacobi(
    ctx: VarContext, H: DiffForm, *, poly_degree: int = 2, mv_degree: int = 3
) -> CheckReport:
    """[l2, l2] = 0 on basis triples (H enters the other relations only)."""
    fc = FastCtx(ctx.n)
    els = sweep_elements(fc, poly_degree, range(min(mv_degree, ctx.n) + 1))
    pool = _Pool(fc, els)
    checked = trivial = 0
    n = ctx.n
    plan, signs = subset_plan(3, 2)
    tms = pool.tms
    for idx in itertools.combinations_with_replacement(range(len(els)), 3):
        degs = [pool.degs[i] for i in idx]
        out_deg = sum(degs) - 2
        if out_deg < 0 or out_deg > n:
            trivial += 1
            continue
        checked += 1
        acc: TermMap = {}
        par = odd_mask(degs)
        for ((s1, s2), (rest,)), eps in zip(plan, signs[par]):
            inner = pool.m_pair(idx[s1], idx[s2])
            if not inner:
                continue
            m_into(fc, inner, tms[idx[rest]], degs[s1] + degs[s2] - 1, 2 * eps, acc)
        if acc:
            els3 = tuple(els[i] for i in idx)
            return CheckReport(
                "linfty-jacobi",
                False,
                checked,
                trivial,
                _witness(ctx.names, fc, els3, acc),
            )
    return CheckReport("linfty-jacobi", True, checked, trivial, None)


def _coframe_need(fc: FastCtx, H: DiffForm) -> Optional[int]:
    """Smallest coverage requirement: intersection works only for one coframe."""
    masks = [fc.mask_of(cof) for cof in H.terms]
    if not masks:
        return 0
    if len(masks) == 1:
        return masks[0]
    return None


def linfty_mixed(
    ctx: VarContext, H: DiffForm, *, poly_degree: int = 1, mv_degree: int = 3
) -> CheckReport:
    """[l2, l3] = 0 on basis 4-tuples; fails when H is not closed."""
    if form_degree(H) not in (None, 3):
        raise ValueError("the ternary operation takes a 3-form")
    fc = FastCtx(ctx.n)
    els = sweep_elements(fc, poly_degree, range(min(mv_degree, ctx.n) + 1))
    pool = _Pool(fc, els)
    Hfast = to_termmap(fc, H)
    phis = _PhiSubsetCache(pool, Hfast)
    need = _coframe_need(fc, H)
    checked = trivial = 0
    n = ctx.n
    plan3, signs3 = subset_plan(4, 3)
    plan2, signs2 = subset_plan(4, 2)
    tms = pool.tms
    for idx in itertools.combinations_with_replacement(range(len(els)), 4):
        union = 0
        sd = 0
        for i in idx:
            union |= pool.masks[i]
            sd += pool.degs[i]
        out_deg = sd - 4
        if out_deg < 0 or out_deg > n or (need is not None and (need & ~union)):
            trivial += 1
            continue
        checked += 1
        degs = [pool.degs[i] for i in idx]
        par = odd_mask(degs)
        acc: TermMap = {}
        # l2 . l3 + l3 . l2  (the bracket sign is -(-1)^{1*1} = +)
        for ((a, b, c), (rest,)), eps in zip(plan3, signs3[par]):
            inner = phis.value((idx[a], idx[b], idx[c]))
            if not inner:
                continue
            inner_deg = degs[a] + degs[b] + degs[c] - 3
            m_into(fc, inner, tms[idx[rest]], inner_deg, eps, acc)
        for ((a, b), (c, d)), eps in zip(plan2, signs2[par]):
            inner = pool.m_pair(idx[a], idx[b])
            if not inner:
                continue
            phi_into(
                fc,
                Hfast,
                [inner, tms[idx[c]], tms[idx[d]]],
                [degs[a] + degs[b] - 1, degs[c], degs[d]],
                eps,
                acc,
            )
        if acc:
            cur = tuple(els[i] for i in idx)
            return CheckReport(
                "linfty-mixed",
                False,
                checked,
                trivial,
                _witness(ctx.names, fc, cur, acc),
            )
    return CheckReport("linfty-mixed", True, checked, trivial, None)


def linfty_ternary(
    ctx: VarContext, H: DiffForm, *, poly_degree: int = 0, mv_degree: int = 3
) -> CheckReport:
    """[l3, l3] = 0 on basis 5-tuples."""
    if form_degree(H) not in (None, 3):
        raise ValueError("the ternary operation takes a 3-form")
    fc = FastCtx(ctx.n)
    els = sweep_elements(fc, poly_degree, range(min(mv_degree, ctx.n) + 1))
    pool = _Pool(fc, els)
    Hfast = to_termmap(fc, H)
    phis = _PhiSubsetCache(pool, Hfast)
    need = _coframe_need(fc, H)
    checked = trivial = 0
    n = ctx.n
    plan, signs = subset_plan(5, 3)
    tms = pool.tms
    for idx in itertools.combinations_with_replacement(range(len(els)), 5):
        union = 0
        sd = 0
        for i in idx:
            union |= pool.masks[i]
            sd += pool.degs[i]
        out_deg = sd - 6
        if out_deg < 0 or out_deg > n or (need is not None and (need & ~union)):
            trivial += 1
            continue
        checked += 1
        degs = [pool.degs[i] for i in idx]
        par = odd_mask(degs)
        acc: TermMap = {}
        for ((a, b, c), (d, e)), eps in zip(plan, signs[par]):
            inner = phis.value((idx[a], idx[b], idx[c]))
            if not inner:
                continue
            phi_into(
                fc,
                Hfast,
                [inner, tms[idx[d]], tms[idx[e]]],
                [degs[a] + degs[b] + degs[c] - 3, degs[d], degs[e]],
                2 * eps,
                acc,
            )
        if acc:
            cur = tuple(els[i] for i in idx)
            return CheckReport(
                "linfty-ternary",
                False,
                checked,
                trivial,
                _witness(ctx.names, fc, cur, acc),
            )
    return CheckReport("linfty-ternary", True, checked, trivial, None)
