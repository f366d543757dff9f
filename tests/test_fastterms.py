"""The term engine must agree with the tuple-frame reference route of ``_ref_polyvec``."""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _ref_polyvec as ref
from _ref_fastterms import m_terms, schouten_terms
from _ref_polyvec import from_termmap, to_termmap as to_fast
from gdcalc._fastterms import (
    FastCtx,
    m_into,
    phi_eval,
    phi_into,
    schouten_into,
    tm_add_into,
    wedge_into,
)
from gdcalc._fastsweep import Element
from gdcalc.exactcore import VarContext, poly_from_terms
from gdcalc.polyvec import PolyVector, form_make, mv_add, mv_eq, mv_frame, mv_make

CTX2 = VarContext(("x", "y"))
CTX3 = VarContext(("x", "y", "z"))
CTX4 = VarContext(("x1", "x2", "x3", "x4"))
FC2, FC3, FC4 = FastCtx(2), FastCtx(3), FastCtx(4)


def from_fast(fc, ctx, tm):
    return from_termmap(PolyVector, ctx, fc, tm)


def _frames(n, degrees):
    return [f for k in degrees for f in itertools.combinations(range(n), k)]


def multivectors(ctx, degrees, max_deg=2, max_terms=3):
    n = ctx.n
    frames = _frames(n, degrees)
    exps = st.tuples(*([st.integers(0, max_deg)] * n))
    coeff = st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
    )
    term = st.tuples(st.sampled_from(frames), coeff, exps)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: mv_make(ctx, [(f, poly_from_terms(n, [(c, e)])) for f, c, e in ts])
    )


def homogeneous(ctx, k, max_deg=1, max_terms=2):
    return multivectors(ctx, [k], max_deg=max_deg, max_terms=max_terms)


def forms(ctx, k, max_deg=1, max_terms=2):
    n = ctx.n
    coframes = list(itertools.combinations(range(n), k))
    exps = st.tuples(*([st.integers(0, max_deg)] * n))
    coeff = st.fractions(
        min_value=Fraction(-2), max_value=Fraction(2), max_denominator=3
    )
    term = st.tuples(st.sampled_from(coframes), coeff, exps)
    return st.lists(term, min_size=1, max_size=max_terms).map(
        lambda ts: form_make(ctx, [(f, poly_from_terms(n, [(c, e)])) for f, c, e in ts])
    )


# ---------------------------------------------------------------------------
# round trip and bracket agreement


@given(multivectors(CTX3, range(0, 4)))
def test_fast_roundtrip(v):
    assert mv_eq(from_fast(FC3, CTX3, to_fast(FC3, v)), v)


@settings(max_examples=120)
@given(multivectors(CTX3, range(0, 4)), multivectors(CTX3, range(0, 4)))
def test_fast_schouten_matches_reference_n3(a, b):
    fast = from_fast(FC3, CTX3, schouten_terms(FC3, to_fast(FC3, a), to_fast(FC3, b)))
    assert mv_eq(fast, ref.schouten(a, b))


@settings(max_examples=60)
@given(multivectors(CTX4, range(0, 5), max_deg=1), multivectors(CTX4, range(0, 5)))
def test_fast_schouten_matches_reference_n4(a, b):
    fast = from_fast(FC4, CTX4, schouten_terms(FC4, to_fast(FC4, a), to_fast(FC4, b)))
    assert mv_eq(fast, ref.schouten(a, b))


@settings(max_examples=120)
@given(multivectors(CTX3, range(0, 4)), multivectors(CTX3, range(0, 4)))
def test_fast_wedge_matches_reference_n3(a, b):
    fast = from_fast(FC3, CTX3, _wedge(FC3, to_fast(FC3, a), to_fast(FC3, b)))
    assert mv_eq(fast, ref.wedge_mv(a, b))


@settings(max_examples=60)
@given(
    st.integers(0, 2).flatmap(lambda k: st.tuples(st.just(k), homogeneous(CTX2, k))),
    multivectors(CTX2, range(0, 3)),
)
def test_fast_structure_op_matches_cochain(ka, b):
    k, a = ka
    m = ref.structure_cochain(CTX2)
    fast = from_fast(FC2, CTX2, m_terms(FC2, to_fast(FC2, a), to_fast(FC2, b)))
    assert mv_eq(fast, ref.evaluate(m, (a, b)))


# ---------------------------------------------------------------------------
# contraction cochain agreement


@settings(max_examples=80, deadline=None)
@given(
    forms(CTX3, 2),
    st.tuples(st.integers(1, 2), st.integers(1, 2)).flatmap(
        lambda ds: st.tuples(homogeneous(CTX3, ds[0]), homogeneous(CTX3, ds[1]))
    ),
)
def test_fast_phi_matches_reference_two_form(omega, args):
    a1, a2 = args
    fast = from_fast(
        FC3,
        CTX3,
        phi_eval(
            FC3,
            to_fast(FC3, omega),
            [to_fast(FC3, a1), to_fast(FC3, a2)],
        ),
    )
    assert mv_eq(fast, ref.evaluate(ref.phi(omega, 2), (a1, a2)))


@settings(max_examples=40, deadline=None)
@given(
    forms(CTX3, 3, max_deg=1, max_terms=1),
    homogeneous(CTX3, 2),
    homogeneous(CTX3, 2),
    homogeneous(CTX3, 1),
)
def test_fast_phi_matches_reference_three_form(omega, a1, a2, a3):
    fast = from_fast(
        FC3,
        CTX3,
        phi_eval(
            FC3,
            to_fast(FC3, omega),
            [to_fast(FC3, a1), to_fast(FC3, a2), to_fast(FC3, a3)],
        ),
    )
    assert mv_eq(fast, ref.evaluate(ref.phi(omega, 3), (a1, a2, a3)))


def test_fast_phi_frozen_r4_oracle():
    one = poly_from_terms(4, [(1, (0, 0, 0, 0))])
    H = form_make(CTX4, [((0, 1, 2), one)])
    pi = mv_add(mv_frame(CTX4, (0, 1)), mv_frame(CTX4, (2, 3)))
    t = to_fast(FC4, pi)
    val = from_fast(
        FC4, CTX4, phi_eval(FC4, to_fast(FC4, H), [t, t, t])
    )
    assert mv_eq(val, mv_make(CTX4, [((0, 1, 3), poly_from_terms(4, [(6, (0,) * 4)]))]))


def test_fast_phi_rejects_degree_mismatch():
    one = poly_from_terms(3, [(1, (0, 0, 0))])
    H = to_fast(FC3, form_make(CTX3, [((0, 1, 2), one)]))
    with pytest.raises(ValueError):
        phi_eval(FC3, H, [to_fast(FC3, mv_frame(CTX3, (0,)))])


# ---------------------------------------------------------------------------
# zero-free TermMaps: the sweeps test `if acc:` instead of scanning for zeros


def _term_maps(n, max_terms=3):
    masks = list(range(1 << n))
    exps = st.tuples(*([st.integers(0, 1)] * n))
    coeff = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    return st.dictionaries(st.tuples(st.sampled_from(masks), exps), coeff, max_size=max_terms)


def _zero_free(tm):
    return all(c for c in tm.values())


def _wedge(fc, a, b):
    acc = {}
    wedge_into(fc, a, b, 1, acc)
    return acc


@settings(max_examples=150, deadline=None)
@given(_term_maps(3), _term_maps(3), st.data())
def test_producers_store_no_zeros(a, b, data):
    assert _zero_free(schouten_terms(FC3, a, b))
    assert _zero_free(m_terms(FC3, a, b))
    acc = dict(a)
    tm_add_into(acc, b, data.draw(st.sampled_from([1, -1, 2])))
    assert _zero_free(acc)
    (ma, ea), (mb, eb) = data.draw(st.tuples(*[st.tuples(
        st.integers(0, 7), st.tuples(*([st.integers(0, 1)] * 3))
    )] * 2))
    x = Element(ma, ea, FC3.pop[ma])
    y = Element(mb, eb, FC3.pop[mb])
    assert _zero_free(_wedge(FC3, {(x.mask, x.exps): 1}, {(y.mask, y.exps): 1}))
    assert _zero_free(_wedge(FC3, a, {(y.mask, y.exps): 1}))
    assert _zero_free(_wedge(FC3, {(x.mask, x.exps): 1}, b))
    k = FC3.pop[ma]
    args = [data.draw(_term_maps(3)) for _ in range(k)]
    assert _zero_free(phi_eval(FC3, {(ma, ea): 2, (ma, eb): Fraction(1, 3)}, args))


def test_producers_drop_exact_cancellations():
    z = (0, 0, 0)
    euler = {(0b001, (1, 0, 0)): 1}  # x d/dx: [X, X] = 0 for a vector field
    assert schouten_terms(FC3, euler, euler) == {}
    assert m_terms(FC3, euler, euler) == {}
    pi = {(0b011, z): 1, (0b110, (1, 0, 0)): Fraction(-1, 2)}
    acc = dict(pi)
    tm_add_into(acc, pi, -1)
    assert acc == {}
    theta = Element(0b001, z, 1)
    assert _wedge(FC3, {(theta.mask, theta.exps): 1}, {(theta.mask, theta.exps): 1}) == {}
    form = {(0b001, z): 1, (0b010, z): 1}
    assert phi_eval(FC3, form, [{(0b001, z): 1, (0b010, z): -1}]) == {}


# ---------------------------------------------------------------------------
# in-place forms: op_into(..., scale, acc) == tm_add_into(acc, op(...), scale)

SCALES = [1, -1, 2, Fraction(1, 3)]


def _into_cases(data):
    """(op_into(acc, scale), op()) pairs for one drawn input of each operation."""
    a, b = data.draw(_term_maps(3)), data.draw(_term_maps(3))
    comask = data.draw(st.integers(0, 7))
    z = (0, 0, 0)
    form = {(comask, z): 2, (comask, (1, 0, 0)): Fraction(-1, 3)}
    k = FC3.pop[comask]
    args = [data.draw(_term_maps(3)) for _ in range(k)]
    return [
        (lambda acc, s: schouten_into(FC3, a, b, s, acc), lambda: schouten_terms(FC3, a, b)),
        (lambda acc, s: m_into(FC3, a, b, s, acc), lambda: m_terms(FC3, a, b)),
        (lambda acc, s: wedge_into(FC3, a, b, s, acc), lambda: _wedge(FC3, a, b)),
        (lambda acc, s: phi_into(FC3, form, args, s, acc), lambda: phi_eval(FC3, form, args)),
    ]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_into_forms_add_scaled_values_in_place(data):
    start = data.draw(_term_maps(3).filter(bool))
    scale = data.draw(st.sampled_from(SCALES))
    for op_into, op in _into_cases(data):
        got = dict(start)
        op_into(got, scale)
        want = dict(start)
        tm_add_into(want, op(), scale)
        assert got == want
        assert _zero_free(got)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_into_forms_drop_exact_cancellations(data):
    scale = data.draw(st.sampled_from(SCALES))
    other = (0b111, (9, 9, 9))  # exponents no operation on the drawn inputs reaches
    for op_into, op in _into_cases(data):
        acc = {k: -scale * c for k, c in op().items()}
        acc[other] = 5
        op_into(acc, scale)
        assert acc == {other: 5}


def test_phi_into_rejects_degree_mismatch_without_touching_acc():
    one = poly_from_terms(3, [(1, (0, 0, 0))])
    H = to_fast(FC3, form_make(CTX3, [((0, 1, 2), one)]))
    theta = to_fast(FC3, mv_frame(CTX3, (0,)))
    acc = {(0b001, (0, 0, 0)): 3}
    with pytest.raises(ValueError):
        phi_into(FC3, H, [theta], 2, acc)
    assert acc == {(0b001, (0, 0, 0)): 3}
