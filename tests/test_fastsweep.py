"""Sweep drivers must agree with the tuple-frame cochain route and pass at small scale.

The reference side of each comparison is built from ``_ref_polyvec`` (its
bracket, ``phi`` kernel and evaluator) and ``_ref_cochains``, so the term
engine the sweeps run on is never compared with itself.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdcalc import _fastsweep
from gdcalc._fastsweep import (
    _differential_of_phi,
    _Pool,
    lemma_bracket_vanishes,
    lemma_differential,
    lemma_pairing_on_vectors,
    linfty_jacobi,
    linfty_mixed,
    linfty_ternary,
    schouten_antisymmetry,
    schouten_jacobi,
    schouten_leibniz,
    sweep_elements,
)
from gdcalc._fastterms import FastCtx
from _ref_cochains import (
    RelationBounds,
    cochain_bracket,
    cochain_differential,
    linfty_relations_check,
)
from _ref_polyvec import evaluate, from_termmap, phi, structure_cochain, to_termmap
from gdcalc.exactcore import VarContext, poly_from_terms
from gdcalc.polyvec import PolyVector, basis_multivectors, form_make, mv_eq

CTX2 = VarContext(("x", "y"))
CTX3 = VarContext(("x", "y", "z"))
CTX4 = VarContext(("x1", "x2", "x3", "x4"))

ONE3 = poly_from_terms(3, [(1, (0, 0, 0))])
ONE4 = poly_from_terms(4, [(1, (0, 0, 0, 0))])
H3 = form_make(CTX3, [((0, 1, 2), ONE3)])
H4_CLOSED = form_make(CTX4, [((0, 1, 2), ONE4)])
H4_OPEN = form_make(CTX4, [((0, 1, 2), poly_from_terms(4, [(1, (0, 0, 0, 1))]))])


# ---------------------------------------------------------------------------
# the Schouten sweeps pass at small scale


def test_schouten_sweeps_pass_n2():
    for rep in (
        schouten_antisymmetry(CTX2, poly_degree=2, mv_degree=2),
        schouten_jacobi(CTX2, poly_degree=2, mv_degree=2),
        schouten_leibniz(CTX2, poly_degree=2, mv_degree=2),
    ):
        assert rep.passed, rep
        assert rep.checked > 0


def test_schouten_sweeps_pass_n3_small():
    for rep in (
        schouten_antisymmetry(CTX3, poly_degree=1, mv_degree=3),
        schouten_jacobi(CTX3, poly_degree=1, mv_degree=3),
        schouten_leibniz(CTX3, poly_degree=1, mv_degree=3),
    ):
        assert rep.passed, rep
        assert rep.checked > 0
        assert rep.trivial > 0  # the grading prune must actually engage


# ---------------------------------------------------------------------------
# fast lemma evaluators against the generic cochain route


def _elements_and_basis(ctx, fc, poly_degree, mv_max):
    els = sweep_elements(fc, poly_degree, range(mv_max + 1))
    basis = basis_multivectors(ctx, poly_degree, range(mv_max + 1))
    assert len(els) == len(basis)
    return els, basis


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fast_differential_matches_cochain_route(data):
    fc = FastCtx(2)
    els, basis = _elements_and_basis(CTX2, fc, 1, 2)
    e = data.draw(st.integers(0, 2))
    coframe = data.draw(
        st.sampled_from(list(itertools.combinations(range(2), e)))
    )
    mono = data.draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]))
    alpha = form_make(CTX2, [(coframe, poly_from_terms(2, [(1, mono)]))])
    pick = st.integers(0, len(els) - 1)
    idx = [data.draw(pick) for _ in range(e + 1)]
    pool = _Pool(CTX2.names, fc, els)
    table = pool.contraction({(fc.mask_of(coframe), mono): 1}, e)
    fast = pool.termmap(_differential_of_phi(pool, table, pool.packed(pool.bracket, 2))(idx))
    generic = evaluate(
        cochain_differential(phi(alpha, e)), tuple(basis[i] for i in idx)
    )
    assert mv_eq(from_termmap(PolyVector, CTX2, fc, fast), generic)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fast_linfty_mixed_matches_cochain_route(data):
    fc = FastCtx(3)
    els, basis = _elements_and_basis(CTX3, fc, 1, 2)
    idx = [data.draw(st.integers(0, len(els) - 1)) for _ in range(4)]
    l2 = structure_cochain(CTX3)
    l3 = phi(H3, arity=3)
    generic = evaluate(cochain_bracket(l2, l3), tuple(basis[i] for i in idx))

    # mirror the linfty_mixed inner loop on one tuple
    from _ref_fastterms import m_terms
    from gdcalc._fastterms import phi_eval, tm_add_into
    from gdcalc.exactcore import koszul_unshuffle_sign

    Hfast = to_termmap(fc, H3)
    degs = [els[i].deg for i in idx]
    args = [{(els[i].mask, els[i].exps): 1} for i in idx]
    acc = {}
    for subset in itertools.combinations(range(4), 3):
        eps = koszul_unshuffle_sign(degs, subset)
        inner = phi_eval(fc, Hfast, [args[s] for s in subset])
        if inner:
            (rest,) = [s for s in range(4) if s not in subset]
            tm_add_into(acc, m_terms(fc, inner, args[rest]), eps)
    for subset in itertools.combinations(range(4), 2):
        eps = koszul_unshuffle_sign(degs, subset)
        s1, s2 = subset
        inner = m_terms(fc, args[s1], args[s2])
        if inner:
            rest = [s for s in range(4) if s not in subset]
            tm_add_into(acc, phi_eval(fc, Hfast, [inner] + [args[s] for s in rest]), eps)
    assert mv_eq(from_termmap(PolyVector, CTX3, fc, acc), generic)


# ---------------------------------------------------------------------------
# lemma sweeps at small scale


def test_lemma_sweeps_pass_n2():
    rep = lemma_differential(CTX2, form_degree_max=2, coeff_degree=2)
    assert rep.passed and rep.checked > 0, rep
    rep = lemma_bracket_vanishes(CTX2, form_degree_max=2, coeff_degree=2)
    assert rep.passed and rep.checked > 0, rep
    rep = lemma_pairing_on_vectors(CTX2)
    assert rep.passed and rep.checked == 6 * 6 * 2 * 2, rep


def test_lemma_sweeps_pass_n3_small():
    rep = lemma_differential(CTX3, form_degree_max=3, coeff_degree=1)
    assert rep.passed and rep.checked > 0, rep
    rep = lemma_bracket_vanishes(CTX3, form_degree_max=3, coeff_degree=1)
    assert rep.passed and rep.checked > 0, rep


# ---------------------------------------------------------------------------
# reduced-relation sweeps against the generic relation checker


def test_linfty_sweeps_match_generic_small_closed():
    bounds = RelationBounds(
        mv_degree=2, jacobi_poly_degree=1, mixed_poly_degree=1, ternary_poly_degree=0
    )
    generic = linfty_relations_check(
        structure_cochain(CTX3), phi(H3, arity=3), bounds=bounds
    )
    assert generic.passed
    assert linfty_jacobi(CTX3, H3, poly_degree=1, mv_degree=2).passed
    assert linfty_mixed(CTX3, H3, poly_degree=1, mv_degree=2).passed
    assert linfty_ternary(CTX3, H3, poly_degree=0, mv_degree=2).passed


def test_linfty_mixed_fails_for_open_form_like_generic():
    bounds = RelationBounds(
        mv_degree=1, jacobi_poly_degree=1, mixed_poly_degree=1, ternary_poly_degree=0
    )
    generic = linfty_relations_check(
        structure_cochain(CTX4), phi(H4_OPEN, arity=3), bounds=bounds
    )
    assert not generic.mixed.passed
    fast = linfty_mixed(CTX4, H4_OPEN, poly_degree=1, mv_degree=1)
    assert not fast.passed
    assert fast.witness is not None


def test_linfty_closed_passes_fast_small():
    assert linfty_mixed(CTX4, H4_CLOSED, poly_degree=1, mv_degree=1).passed


# ---------------------------------------------------------------------------
# bounds


# each public sweep: its arguments after the context, and its bounds
SWEEP_BOUNDS = {
    "schouten_antisymmetry": ((), ("poly_degree", "mv_degree")),
    "schouten_jacobi": ((), ("poly_degree", "mv_degree")),
    "schouten_leibniz": ((), ("poly_degree", "mv_degree")),
    "lemma_differential": ((), ("form_degree_max", "coeff_degree", "tuple_poly_degree", "mv_degree")),
    "lemma_bracket_vanishes": ((), ("form_degree_max", "coeff_degree", "mv_degree")),
    "lemma_pairing_on_vectors": ((), ("coeff_degree",)),
    "linfty_jacobi": ((H3,), ("poly_degree", "mv_degree")),
    "linfty_mixed": ((H3,), ("poly_degree", "mv_degree")),
    "linfty_ternary": ((H3,), ("poly_degree", "mv_degree")),
}


@pytest.mark.parametrize(
    "name, bound", [(name, bound) for name, (_, bounds) in SWEEP_BOUNDS.items() for bound in bounds]
)
def test_sweeps_refuse_negative_bounds(monkeypatch, name, bound):
    # refused before any engine context is made, where a negative bound
    # would otherwise sweep nothing and pass with checked == 0
    def no_work(n):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(_fastsweep, "FastCtx", no_work)
    args, _ = SWEEP_BOUNDS[name]
    with pytest.raises(ValueError, match=f"{bound}=-1"):
        getattr(_fastsweep, name)(CTX3, *args, **{bound: -1})
