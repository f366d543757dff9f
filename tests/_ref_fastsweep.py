"""Reference sweeps: the per-subset sign and temporary-TermMap code the library replaced.

Verbatim copies of the sweep drivers as they were before the unshuffle
signs moved to ``_fastterms.subset_plan``'s parity table and the terms of
an identity were accumulated in place.  Each subset's sign is recomputed
by ``unshuffle_sign_fast`` (a private copy of the old routine), and every
bracket or contraction value is built as its own TermMap before being
added into the accumulator.  The antisymmetry and Leibniz sweeps, and
the memo classes ``_Pool`` and ``_PhiSubsetCache`` that all of them use,
are verbatim copies of the code the library ran before its sweeps moved
to interned term ids and memoised unit products: every sweep here keeps
per-element TermMaps and evaluates each tuple with the general
``_fastterms`` producers.  Slow, and kept only as an independent oracle
for ``gdcalc._fastsweep``; ``tests/test_fastsweep_oracle.py`` pins the
library's reports against these.
"""
from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence, Tuple

from gdcalc._fastsweep import (
    CheckReport,
    Element,
    _lemma_index_tuples,
    _mono_label,
    _monomial_forms,
    _witness,
    sweep_elements,
)
from _ref_fastterms import m_terms, schouten_terms
from _ref_polyvec import to_termmap as form_to_fast
from gdcalc._fastterms import FastCtx, TermMap, phi_eval, tm_add_into, wedge_into
from gdcalc.exactcore import Exponents, VarContext, poly_from_terms
from gdcalc.polyvec import DiffForm, d_form, form_degree, form_make


def unshuffle_sign_fast(degs: Sequence[int], subset: Sequence[int]) -> int:
    exponent = 0
    chosen = set(subset)
    for i in subset:
        if degs[i] & 1:
            for j in range(i):
                if j not in chosen and degs[j] & 1:
                    exponent += 1
    return -1 if exponent & 1 else 1


class _Pool:
    """Shared element tables plus memoized pair operations."""

    def __init__(self, fc: FastCtx, elements: Sequence[Element]):
        self.fc = fc
        self.els = elements
        self.tms = [{(el.mask, el.exps): 1} for el in elements]
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
            got = m_terms(self.fc, self.tms[i], self.tms[j])
            self._mpairs[(i, j)] = got
        return got


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
            got = phi_eval(pool.fc, self.form_terms, [pool.tms[i] for i in ids])
            self.store[ids] = got
        return got


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


def _coframe_need(fc: FastCtx, H: DiffForm) -> Optional[int]:
    """Smallest coverage requirement: intersection works only for one coframe."""
    masks = [fc.mask_of(cof) for cof in H.terms]
    if not masks:
        return 0
    if len(masks) == 1:
        return masks[0]
    return None


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
        t1 = schouten_terms(fc, pool.bracket(i, j), pool.tms[k])
        tm_add_into(acc, t1, -1 if ((a.deg - 1) * (c.deg - 1)) & 1 else 1)
        t2 = schouten_terms(fc, pool.bracket(j, k), pool.tms[i])
        tm_add_into(acc, t2, -1 if ((b.deg - 1) * (a.deg - 1)) & 1 else 1)
        t3 = schouten_terms(fc, pool.bracket(k, i), pool.tms[j])
        tm_add_into(acc, t3, -1 if ((c.deg - 1) * (b.deg - 1)) & 1 else 1)
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
        return m_terms(fc, {(0, exps): 1}, args[0])
    acc: TermMap = {}
    outer_sign = 1 if e & 1 else -1  # -(-1)^(e-2)
    for subset in itertools.combinations(range(r), e):
        eps = unshuffle_sign_fast(degs, subset)
        if phi_subset is not None:
            inner = phi_subset(subset)
        else:
            inner = phi_eval(fc, form_terms, [args[s] for s in subset])
        if not inner:
            continue
        (rest,) = [s for s in range(r) if s not in subset]
        tm_add_into(acc, m_terms(fc, inner, args[rest]), eps)
    for subset in itertools.combinations(range(r), 2):
        eps = unshuffle_sign_fast(degs, subset)
        s1, s2 = subset
        if m_pair is not None:
            inner = m_pair(s1, s2)
        else:
            inner = m_terms(fc, args[s1], args[s2])
        if not inner:
            continue
        rest = [s for s in range(r) if s not in subset]
        val = phi_eval(fc, form_terms, [inner] + [args[s] for s in rest])
        tm_add_into(acc, val, eps * outer_sign)
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
        dform_fast = form_to_fast(fc, d_form(alpha))
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
                phi_subset=lambda sub: phis.value(tuple(idx[s] for s in sub)),
                m_pair=lambda s1, s2: pool.m_pair(idx[s1], idx[s2]),
            )
            if dform_fast:
                rhs = phi_eval(fc, dform_fast, [pool.tms[i] for i in idx])
                tm_add_into(acc, rhs, -1)
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
            sub_b = tuple(itertools.combinations(range(r), eb))
            sub_a = tuple(itertools.combinations(range(r), ea))
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
                acc: TermMap = {}
                for subset in sub_b:
                    eps = unshuffle_sign_fast(degs, subset)
                    inner = phis_b.value(tuple(idx[s] for s in subset))
                    if inner:
                        rest = [s for s in range(r) if s not in subset]
                        tm_add_into(
                            acc,
                            phi_eval(fc, terms_a, [inner] + [pool.tms[idx[s]] for s in rest]),
                            eps,
                        )
                for subset in sub_a:
                    eps = unshuffle_sign_fast(degs, subset)
                    inner = phis_a.value(tuple(idx[s] for s in subset))
                    if inner:
                        rest = [s for s in range(r) if s not in subset]
                        tm_add_into(
                            acc,
                            phi_eval(fc, terms_b, [inner] + [pool.tms[idx[s]] for s in rest]),
                            -sign * eps,
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


def linfty_jacobi(
    ctx: VarContext, H: DiffForm, *, poly_degree: int = 2, mv_degree: int = 3
) -> CheckReport:
    """[l2, l2] = 0 on basis triples (H enters the other relations only)."""
    fc = FastCtx(ctx.n)
    els = sweep_elements(fc, poly_degree, range(min(mv_degree, ctx.n) + 1))
    pool = _Pool(fc, els)
    checked = trivial = 0
    n = ctx.n
    subsets2 = tuple(itertools.combinations(range(3), 2))
    for idx in itertools.combinations_with_replacement(range(len(els)), 3):
        degs = [pool.degs[i] for i in idx]
        out_deg = sum(degs) - 2
        if out_deg < 0 or out_deg > n:
            trivial += 1
            continue
        checked += 1
        acc: TermMap = {}
        for subset in subsets2:
            eps = unshuffle_sign_fast(degs, subset)
            s1, s2 = subset
            inner = pool.m_pair(idx[s1], idx[s2])
            if not inner:
                continue
            (rest,) = [s for s in range(3) if s not in subset]
            tm_add_into(acc, m_terms(fc, inner, pool.tms[idx[rest]]), 2 * eps)
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


def linfty_mixed(
    ctx: VarContext, H: DiffForm, *, poly_degree: int = 1, mv_degree: int = 3
) -> CheckReport:
    """[l2, l3] = 0 on basis 4-tuples; fails when H is not closed."""
    if form_degree(H) not in (None, 3):
        raise ValueError("the ternary operation takes a 3-form")
    fc = FastCtx(ctx.n)
    els = sweep_elements(fc, poly_degree, range(min(mv_degree, ctx.n) + 1))
    pool = _Pool(fc, els)
    Hfast = form_to_fast(fc, H)
    phis = _PhiSubsetCache(pool, Hfast)
    need = _coframe_need(fc, H)
    checked = trivial = 0
    n = ctx.n
    subsets3 = tuple(itertools.combinations(range(4), 3))
    subsets2 = tuple(itertools.combinations(range(4), 2))
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
        acc: TermMap = {}
        # l2 . l3 + l3 . l2  (the bracket sign is -(-1)^{1*1} = +)
        for subset in subsets3:
            eps = unshuffle_sign_fast(degs, subset)
            inner = phis.value(tuple(idx[s] for s in subset))
            if not inner:
                continue
            (rest,) = [s for s in range(4) if s not in subset]
            tm_add_into(acc, m_terms(fc, inner, pool.tms[idx[rest]]), eps)
        for subset in subsets2:
            eps = unshuffle_sign_fast(degs, subset)
            s1, s2 = subset
            inner = pool.m_pair(idx[s1], idx[s2])
            if not inner:
                continue
            rest = [s for s in range(4) if s not in subset]
            inner_args = [inner] + [pool.tms[idx[s]] for s in rest]
            tm_add_into(acc, phi_eval(fc, Hfast, inner_args), eps)
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
    Hfast = form_to_fast(fc, H)
    phis = _PhiSubsetCache(pool, Hfast)
    need = _coframe_need(fc, H)
    checked = trivial = 0
    n = ctx.n
    subsets3 = tuple(itertools.combinations(range(5), 3))
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
        acc: TermMap = {}
        for subset in subsets3:
            eps = unshuffle_sign_fast(degs, subset)
            inner = phis.value(tuple(idx[s] for s in subset))
            if not inner:
                continue
            rest = [s for s in range(5) if s not in subset]
            inner_args = [inner] + [pool.tms[idx[s]] for s in rest]
            tm_add_into(acc, phi_eval(fc, Hfast, inner_args), 2 * eps)
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
