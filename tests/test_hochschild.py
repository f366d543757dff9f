"""Oracle tests for multidifferential cochains.

Independent references used here: direct operator application on sample
polynomials (for composition/commutator claims), hand-expanded differentials
for small operators, and round-trips through the primitive solver.
"""
from __future__ import annotations

import copy
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _ref_hochschild import apply_mdo
from gdcalc import hochschild as hs
from gdcalc.exactcore import VarContext, monomials_upto, poly_from_terms, poly_mul, poly_sub, poly_var
from gdcalc.hochschild import (
    MultiDiffOp,
    brace,
    cup,
    delta_primitive,
    gerstenhaber,
    hkr,
    hoch_delta,
    i_func_hoch,
    mdo_add,
    mdo_eq,
    mdo_from_poly,
    mdo_is_zero,
    mdo_make,
    mdo_neg,
    mdo_scale,
    mdo_sub,
    mdo_zero,
    mult_cochain,
    poly_derive_multi,
)
from gdcalc.polyvec import i_func_mv, mv_frame, mv_func, mv_is_zero, mv_make, schouten

CTX1 = VarContext(("x",))
CTX2 = VarContext(("x", "y"))
CTX3 = VarContext(("x", "y", "z"))

ONE2 = poly_from_terms(2, [(1, (0, 0))])
X = poly_var(2, 0)
Y = poly_var(2, 1)


def op(ctx, arity, terms):
    """terms: list of (coeff poly, orders) with orders a tuple of exponent tuples."""
    return mdo_make(ctx, arity, [(tuple(o), p) for p, o in terms])


DX = op(CTX2, 1, [(ONE2, ((1, 0),))])
DY = op(CTX2, 1, [(ONE2, ((0, 1),))])
DXX = op(CTX2, 1, [(ONE2, ((2, 0),))])
XDX = op(CTX2, 1, [(X, ((1, 0),))])
IDENT = op(CTX2, 1, [(ONE2, ((0, 0),))])
DX_DY = op(CTX2, 2, [(ONE2, ((1, 0), (0, 1)))])  # a,b -> dx(a)*dy(b)


# ---------------------------------------------------------------------------
# representation and application


def test_apply_multidifferential():
    D = op(CTX2, 2, [(X, ((1, 0), (0, 1)))])
    a = poly_from_terms(2, [(1, (2, 0))])  # x^2
    b = poly_from_terms(2, [(1, (0, 3))])  # y^3
    out = apply_mdo(D, (a, b))
    assert out == poly_from_terms(2, [(6, (2, 2))])


def test_canonical_form_merges_and_drops_zeros():
    t = ((1, 0),)
    D = mdo_make(CTX2, 1, [(t, X), (t, poly_from_terms(2, [(-1, (1, 0))]))])
    assert mdo_is_zero(D)
    E = mdo_make(CTX2, 1, [(t, X), (t, X)])
    assert mdo_eq(E, op(CTX2, 1, [(poly_from_terms(2, [(2, (1, 0))]), t)]))


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        mdo_make(CTX2, 2, [(((1, 0),), ONE2)])
    with pytest.raises(ValueError):
        apply_mdo(DX, (X, Y))


@pytest.mark.parametrize(
    "coeffs",
    [
        [{(0, 1): Fraction(1), (1, 0, 0): Fraction(2)}],
        [{(0, 1): Fraction(1), (1,): Fraction(2)}],
        [{(1, 0, 0): Fraction(2)}, {(1, 0, 0): Fraction(-2)}],
    ],
    ids=["exps0", "exps1", "cancels-between-terms"],
)
def test_coefficient_variable_count_rejected_at_construction(coeffs):
    """A malformed monomial is refused, also one that cancels between two terms."""
    with pytest.raises(ValueError, match="not over 2 variables"):
        mdo_make(CTX2, 1, [(((1, 0),), c) for c in coeffs])


@pytest.mark.parametrize("c", [0.1, 0.0, "1/2"])
def test_inexact_coefficient_rejected_at_construction(c):
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        mdo_make(CTX2, 1, [(((1, 0),), {(0, 1): 1, (0, 0): c})])


@pytest.mark.parametrize("c", [0.1, 0.0, "1/2"])
def test_mdo_scale_refuses_inexact_scalars(c):
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        mdo_scale(DXX, c)
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        mdo_scale(mdo_zero(CTX2, 1), c)


# maps given to MultiDiffOp directly, bypassing mdo_make's per-term check:
# (arity, terms)
MALFORMED = {
    "short-multi-index": (1, {((1,),): ONE2}),
    "negative-entry": (1, {((1, -1),): ONE2}),
    "wrong-slot-count": (2, {((1, 0),): ONE2}),
    "coefficient-variable-count": (1, {((1, 0),): {(1, 0, 0): Fraction(1)}}),
    "stored-zero-coefficient": (1, {((1, 0),): {(0, 0): Fraction(0)}}),
    "empty-coefficient": (1, {((1, 0),): {}}),
    "float-coefficient": (1, {((1, 0),): {(0, 0): 0.5}}),
    "float-coefficient-0-ary": (0, {(): {(0, 0): 0.5}}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_operations_validate_their_inputs(name):
    """No operation can meet a malformed operator: none can be built."""
    arity, terms = MALFORMED[name]
    with pytest.raises(ValueError):
        MultiDiffOp(CTX2, arity, terms)


@pytest.mark.parametrize(
    "terms",
    [
        [(((1,),), ONE2)],  # short multi-index
        [(((1, -1),), ONE2)],  # negative entry
        [(((1,),), ONE2), (((1,),), poly_from_terms(2, [(-1, (0, 0))]))],  # cancels away
    ],
    ids=["short-multi-index", "negative-entry", "malformed-term-that-cancels"],
)
def test_mdo_make_refuses_each_malformed_term(terms):
    with pytest.raises(ValueError, match="bad multi-index"):
        mdo_make(CTX2, 1, terms)


def test_terms_is_a_fresh_map():
    """Writing to a map read from an operator, or to the map it was built from
    after construction, changes nothing and slips nothing past the check."""
    given = {((1, 0),): {(0, 0): Fraction(1, 2)}}
    D = MultiDiffOp(CTX2, 1, given)
    half_dx = mdo_scale(DX, Fraction(1, 2))
    assert mdo_eq(D, half_dx)
    given[((1, 0),)][(0, 0)] = 0.5
    D.terms[((1, 0),)][(0, 0)] = 0.5
    assert D.terms == {((1, 0),): {(0, 0): Fraction(1, 2)}}
    assert D == half_dx and hoch_delta(D) == mdo_scale(hoch_delta(DX), Fraction(1, 2))


@pytest.mark.parametrize("beta", [(1, 0, 0), (1,), (), (1, -1)])
def test_derive_multi_refuses_bad_multi_index(beta):
    with pytest.raises(ValueError):
        poly_derive_multi(X, beta)


def test_derive_multi_on_zero_polynomial():
    # no variable count to compare with, but a negative entry is wrong for any count
    assert poly_derive_multi({}, (1, 0, 0)) == {}
    with pytest.raises(ValueError):
        poly_derive_multi({}, (0, -1))


# ---------------------------------------------------------------------------
# the differential


def test_delta_of_identity_is_multiplication():
    assert mdo_eq(hoch_delta(IDENT), mult_cochain(CTX2))


def test_delta_of_multiplication_vanishes():
    assert mdo_is_zero(hoch_delta(mult_cochain(CTX2)))


def test_delta_of_constant_vanishes():
    c = mdo_from_poly(CTX2, poly_from_terms(2, [(3, (0, 0))]))
    assert mdo_is_zero(hoch_delta(c))


def test_delta_of_derivation_vanishes():
    assert mdo_is_zero(hoch_delta(DX))
    x2dy = op(CTX2, 1, [(poly_from_terms(2, [(1, (2, 0))]), ((0, 1),))])
    assert mdo_is_zero(hoch_delta(x2dy))


def test_delta_of_second_order_operator():
    # delta(d^2/dx^2)(a,b) = -2 dx(a) dx(b): the binomial cross term
    expected = op(CTX2, 2, [(poly_from_terms(2, [(-2, (0, 0))]), ((1, 0), (1, 0)))])
    assert mdo_eq(hoch_delta(DXX), expected)


def test_delta_squared_is_zero_on_samples():
    samples = [
        DXX,
        DX_DY,
        IDENT,
        op(CTX2, 1, [(X, ((2, 0),))]),
        op(CTX2, 2, [(Y, ((1, 0), (2, 0)))]),
        op(CTX2, 0, [(poly_mul(X, Y), ())]),
    ]
    for D in samples:
        assert mdo_is_zero(hoch_delta(hoch_delta(D)))


# ---------------------------------------------------------------------------
# braces, bracket, cup


def test_empty_brace_is_identity():
    assert mdo_eq(brace(DX_DY, []), DX_DY)


def test_single_brace_on_unary_is_composition():
    # (x d/dx){d^2/dx^2} = x d^3/dx^3
    got = brace(XDX, [DXX])
    expected = op(CTX2, 1, [(X, ((3, 0),))])
    assert mdo_eq(got, expected)


def test_brace_leibniz_splitting():
    # (d^2/dx^2){x d/dx} needs the product rule inside the second derivative
    got = brace(DXX, [XDX])
    expected = mdo_make(
        CTX2,
        1,
        [((((2, 0),)), poly_from_terms(2, [(2, (0, 0))])), ((((3, 0),)), X)],
    )
    assert mdo_eq(got, expected)


def test_too_many_insertions_rejected():
    with pytest.raises(ValueError):
        brace(DX, [DX, DY])


def test_mu_brace_is_cup():
    assert mdo_eq(brace(mult_cochain(CTX2), [DX, DY]), cup(DX, DY))


def test_cup_oracle_and_unit():
    got = cup(DX, DY)
    assert mdo_eq(got, DX_DY)
    one = mdo_from_poly(CTX2, ONE2)
    assert mdo_eq(cup(one, DX_DY), DX_DY)
    assert mdo_eq(cup(DX_DY, one), DX_DY)


def test_cup_associativity_instance():
    A, B, C = XDX, DY, DX_DY
    assert mdo_eq(cup(cup(A, B), C), cup(A, cup(B, C)))


def test_commutator_oracle_dx_xdx():
    assert mdo_eq(gerstenhaber(DX, XDX), DX)


def test_bracket_of_derivation_with_itself_vanishes():
    D = op(CTX2, 1, [(poly_from_terms(2, [(1, (2, 0))]), ((0, 1),))])
    assert mdo_is_zero(gerstenhaber(D, D))


@st.composite
def unary_ops(draw):
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        o = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        c = (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
        coeff = draw(st.integers(-2, 2))
        if coeff:
            terms.append((((o,)), poly_from_terms(2, [(coeff, c)])))
    return mdo_make(CTX2, 1, terms)


@given(unary_ops(), unary_ops())
@settings(max_examples=40, deadline=None)
def test_bracket_of_unary_ops_is_operator_commutator(D, E):
    got = gerstenhaber(D, E)
    probes = [
        poly_from_terms(2, [(1, (2, 1))]),
        poly_from_terms(2, [(1, (0, 3)), (2, (1, 0))]),
        poly_from_terms(2, [(1, (1, 1)), (-1, (0, 0))]),
    ]
    for a in probes:
        direct = apply_mdo(D, (apply_mdo(E, (a,)),))
        swapped = apply_mdo(E, (apply_mdo(D, (a,)),))
        assert apply_mdo(got, (a,)) == poly_sub(direct, swapped)


def test_bracket_with_multiplication_is_signed_differential():
    # [mu, D] = (-1)^(k-1) delta(D)
    mu = mult_cochain(CTX2)
    for D in [DXX, XDX, IDENT]:  # arity 1: sign +1
        assert mdo_eq(gerstenhaber(mu, D), hoch_delta(D))
    for D in [DX_DY, op(CTX2, 2, [(X, ((2, 0), (0, 1)))])]:  # arity 2: sign -1
        assert mdo_eq(gerstenhaber(mu, D), mdo_scale(hoch_delta(D), -1))


def test_bracket_graded_antisymmetry():
    for D, E in [(DXX, DX_DY), (DX_DY, DX_DY), (XDX, DXX)]:
        sign = (-1) ** ((D.arity - 1) * (E.arity - 1))
        assert mdo_eq(gerstenhaber(D, E), mdo_scale(gerstenhaber(E, D), -sign))


def test_bracket_graded_jacobi_instance():
    A, B, C = DXX, DX_DY, XDX
    a, b, c = A.arity - 1, B.arity - 1, C.arity - 1
    lhs = gerstenhaber(A, gerstenhaber(B, C))
    mid = gerstenhaber(gerstenhaber(A, B), C)
    rhs = mdo_scale(gerstenhaber(B, gerstenhaber(A, C)), (-1) ** (a * b))
    assert mdo_eq(lhs, mdo_add(mid, rhs))


def test_delta_is_derivation_of_cup():
    # delta(D cup E) = delta(D) cup E + (-1)^{arity D} D cup delta(E)
    for D, E in [(DXX, DY), (DX_DY, DXX), (XDX, DX_DY)]:
        lhs = hoch_delta(cup(D, E))
        rhs = mdo_add(
            cup(hoch_delta(D), E),
            mdo_scale(cup(D, hoch_delta(E)), (-1) ** D.arity),
        )
        assert mdo_eq(lhs, rhs)


# ---------------------------------------------------------------------------
# contraction by a function


def test_contraction_of_zero_arity_vanishes():
    c = mdo_from_poly(CTX2, X)
    assert mdo_is_zero(i_func_hoch(Y, c))


def test_contraction_of_multiplication_vanishes():
    assert mdo_is_zero(i_func_hoch(X, mult_cochain(CTX2)))


def test_contraction_two_term_alternation():
    assert mdo_eq(i_func_hoch(X, DX_DY), DY)


def test_contraction_is_brace_with_constant():
    got = brace(DX_DY, [mdo_from_poly(CTX2, X)])
    assert mdo_eq(got, i_func_hoch(X, DX_DY))


def test_contraction_anticommutes_with_delta():
    x2 = poly_from_terms(2, [(1, (2, 0))])
    samples = [
        (x2, op(CTX2, 2, [(ONE2, ((1, 0), (2, 0)))])),
        (X, DX_DY),
        (poly_mul(X, Y), op(CTX2, 2, [(Y, ((0, 1), (1, 0)))])),
        (x2, op(CTX2, 3, [(ONE2, ((1, 0), (0, 1), (1, 1)))])),
    ]
    for a, D in samples:
        lhs = i_func_hoch(a, hoch_delta(D))
        rhs = hoch_delta(i_func_hoch(a, D))
        assert mdo_is_zero(mdo_add(lhs, rhs))


def test_contraction_is_derivation_of_cup():
    # i_a(D cup E) = i_a(D) cup E + (-1)^{arity D} D cup i_a(E)
    for a, D, E in [(X, DX_DY, DY), (Y, DY, DX_DY), (poly_mul(X, Y), DX_DY, DX_DY)]:
        lhs = i_func_hoch(a, cup(D, E))
        rhs = mdo_add(
            cup(i_func_hoch(a, D), E),
            mdo_scale(cup(D, i_func_hoch(a, E)), (-1) ** D.arity),
        )
        assert mdo_eq(lhs, rhs)


# ---------------------------------------------------------------------------
# the antisymmetrization map


def test_hkr_on_vector_field_is_itself():
    assert mdo_eq(hkr(mv_frame(CTX2, (0,))), DX)


def test_hkr_on_function_is_zero_cochain():
    f = poly_mul(X, Y)
    assert mdo_eq(hkr(mv_func(CTX2, f)), mdo_from_poly(CTX2, f))


def test_hkr_on_wedge_is_halved_alternation():
    got = hkr(mv_frame(CTX2, (0, 1)))
    expected = mdo_make(
        CTX2,
        2,
        [
            (((1, 0), (0, 1)), poly_from_terms(2, [(Fraction(1, 2), (0, 0))])),
            (((0, 1), (1, 0)), poly_from_terms(2, [(Fraction(-1, 2), (0, 0))])),
        ],
    )
    assert mdo_eq(got, expected)


def test_hkr_carries_coefficients():
    pi = mv_make(CTX2, [((0, 1), poly_mul(X, Y))])
    got = hkr(pi)
    a = poly_from_terms(2, [(1, (1, 0))])
    b = poly_from_terms(2, [(1, (0, 1))])
    assert apply_mdo(got, (a, b)) == poly_from_terms(2, [(Fraction(1, 2), (1, 1))])


def test_hkr_is_a_cocycle():
    samples = [
        mv_frame(CTX2, (0, 1)),
        mv_make(CTX2, [((0, 1), poly_mul(X, Y))]),
        mv_make(CTX2, [((0,), poly_from_terms(2, [(1, (0, 2))]))]),
        mv_frame(CTX3, (0, 1, 2)),
        mv_make(CTX3, [((0, 1, 2), poly_var(3, 2))]),
    ]
    for pi in samples:
        assert mdo_is_zero(hoch_delta(hkr(pi)))


def test_hkr_intertwines_contractions_with_parity_sign():
    # hkr(i_a pi) = (-1)^(k-1) i_a(hkr pi) for degree-k fields
    cases = [
        (X, mv_frame(CTX2, (0,))),  # k = 1
        (poly_mul(X, Y), mv_frame(CTX2, (0, 1))),  # k = 2
        (X, mv_make(CTX2, [((0, 1), Y)])),
        (poly_var(3, 0), mv_frame(CTX3, (0, 1, 2))),  # k = 3
    ]
    for a, pi in cases:
        k = len(next(iter(pi.terms)))
        lhs = hkr(i_func_mv(a, pi))
        rhs = mdo_scale(i_func_hoch(a, hkr(pi)), (-1) ** (k - 1))
        assert mdo_eq(lhs, rhs)


# ---------------------------------------------------------------------------
# the primitive solver


def test_primitive_round_trip():
    xi0 = op(CTX2, 1, [(X, ((2, 0),)), (ONE2, ((1, 1),))])
    T = hoch_delta(xi0)
    res = delta_primitive(T, poly_degree=2, op_order=2)
    assert res.found
    assert mdo_eq(hoch_delta(res.primitive), T)


def test_found_primitive_is_checked_against_its_residual(monkeypatch):
    """A wrong δ in the final check makes the residual nonzero: delta_primitive
    refuses to report that primitive as found."""
    T = hoch_delta(op(CTX2, 1, [(X, ((2, 0),)), (ONE2, ((1, 1),))]))
    monkeypatch.setattr(hs, "hoch_delta", lambda D: mdo_zero(D.ctx, D.arity + 1))
    with pytest.raises(RuntimeError, match="internal error"):
        delta_primitive(T, poly_degree=2, op_order=2)


@pytest.mark.parametrize("poly_degree, op_order", [(-1, 2), (2, -1), (-1, -1)])
def test_primitive_refuses_negative_bounds(poly_degree, op_order):
    # a negative bound searches nothing; it must not read as "no primitive"
    T = hoch_delta(op(CTX2, 1, [(Y, ((2, 0),))]))
    with pytest.raises(ValueError):
        delta_primitive(T, poly_degree=poly_degree, op_order=op_order)


def test_primitive_of_zero_is_zero():
    res = delta_primitive(mdo_zero(CTX2, 2), poly_degree=1, op_order=1)
    assert res.found
    assert mdo_is_zero(res.primitive)
    assert mdo_is_zero(hoch_delta(res.primitive))


def test_bracket_defect_primitive_on_large_system():
    """The n=3 shape of the formality shadow: a 684x400 system of rank 320.

    Bracket defect of a linear and a constant bivector, with the parity
    factor on the bracket term as in criterion 5; exact within degree 1 and
    order 2.
    """
    a = mv_make(CTX3, [((0, 1), poly_from_terms(3, [(2, (1, 0, 0))]))])
    b = mv_make(CTX3, [((0, 2), poly_from_terms(3, [(-1, (0, 0, 0))]))])
    br = schouten(a, b)
    assert not mv_is_zero(br)
    s = (-1) ** ((2 - 1) * (2 - 1))
    T = mdo_sub(gerstenhaber(hkr(a), hkr(b)), mdo_scale(hkr(br), s))
    res = delta_primitive(T, poly_degree=1, op_order=2)
    assert res.found
    assert res.rank == 320
    assert mdo_eq(hoch_delta(res.primitive), T)


def test_hkr_class_has_no_primitive():
    T = hkr(mv_frame(CTX2, (0, 1)))
    res = delta_primitive(T, poly_degree=2, op_order=2)
    assert not res.found
    assert res.primitive is None
    assert not mdo_is_zero(res.residual)
    # the reported residual is exactly T - delta(best candidate)
    assert mdo_eq(res.residual, mdo_sub(T, hoch_delta(res.candidate)))


def test_formality_shadow_bracket_defect_is_exact():
    cases = [
        (mv_make(CTX2, [((0, 1), X)]), mv_frame(CTX2, (0,))),
        (mv_make(CTX2, [((0, 1), X)]), mv_make(CTX2, [((0,), Y)])),
        (mv_make(CTX2, [((0, 1), poly_mul(X, Y))]), mv_make(CTX2, [((1,), X)])),
    ]
    for pi, rho in cases:
        br = schouten(pi, rho)
        assert not mv_is_zero(br)
        defect = mdo_sub(gerstenhaber(hkr(pi), hkr(rho)), hkr(br))
        res = delta_primitive(defect, poly_degree=2, op_order=2)
        assert res.found
        assert mdo_eq(hoch_delta(res.primitive), defect)


def test_formality_shadow_when_bracket_vanishes():
    # bivector brackets land in degree 3 and vanish over two variables, so
    # the whole defect is the bracket of the alternations; still exact
    pi = mv_make(CTX2, [((0, 1), X)])
    rho = mv_frame(CTX2, (0, 1))
    assert mv_is_zero(schouten(pi, rho))
    defect = gerstenhaber(hkr(pi), hkr(rho))
    res = delta_primitive(defect, poly_degree=2, op_order=2)
    assert res.found
    assert mdo_eq(hoch_delta(res.primitive), defect)


# ---------------------------------------------------------------------------
# the packed slot-order field: 8 bits per variable, so orders up to 255

TOP = 255  # 2^8 - 1, the largest order a packed field holds


def test_largest_slot_order_round_trips():
    """Fields at 2^8 - 1 next to each other and next to zeros come back as
    given through construction, sums, differences and the cup product: no
    field carries into its neighbour."""
    half = {(0, 0): Fraction(1, 2)}
    D = MultiDiffOp(CTX2, 1, {((TOP, 0),): half, ((0, TOP),): {(1, 0): 3}, ((TOP, TOP),): {(0, 1): -1}})
    assert D.terms == {((TOP, 0),): half, ((0, TOP),): {(1, 0): 3}, ((TOP, TOP),): {(0, 1): -1}}
    E = MultiDiffOp(CTX2, 2, {((TOP, TOP), (0, TOP)): {(1, 1): Fraction(2, 3)}})
    assert E.terms == {((TOP, TOP), (0, TOP)): {(1, 1): Fraction(2, 3)}}
    assert mdo_add(D, D).terms == {
        ((TOP, 0),): {(0, 0): 1}, ((0, TOP),): {(1, 0): 6}, ((TOP, TOP),): {(0, 1): -2}
    }
    assert mdo_sub(D, mdo_scale(D, 2)).terms == mdo_neg(D).terms
    assert mdo_sub(D, D).terms == {}
    assert cup(D, E).terms == {
        ((TOP, 0), (TOP, TOP), (0, TOP)): {(1, 1): Fraction(1, 3)},
        ((0, TOP), (TOP, TOP), (0, TOP)): {(2, 1): 2},
        ((TOP, TOP), (TOP, TOP), (0, TOP)): {(1, 2): Fraction(-2, 3)},
    }
    C3 = MultiDiffOp(CTX3, 1, {((TOP, TOP, TOP),): {(0, 0, 0): 1}})
    assert cup(C3, C3).terms == {((TOP, TOP, TOP), (TOP, TOP, TOP)): {(0, 0, 0): 1}}


def test_delta_splits_the_largest_slot_order():
    """δ(∂_y^255) = −Σ_{0<γ<255} C(255, γ)·∂_y^γ ⊗ ∂_y^{255−γ}: the ends cancel
    the splits γ = 0 and γ = 255."""
    got = hoch_delta(op(CTX2, 1, [(ONE2, ((0, TOP),))]))
    want = {((0, g), (0, TOP - g)): {(0, 0): -comb(TOP, g)} for g in range(1, TOP)}
    assert got.terms == want


@pytest.mark.parametrize("orders", [((TOP + 1, 0),), ((0, TOP + 1),), ((1, 1), (TOP + 1, TOP + 1))])
def test_slot_order_of_2_to_the_8_is_refused(orders):
    arity = len(orders)
    with pytest.raises(ValueError, match="packed 8 bits"):
        MultiDiffOp(CTX2, arity, {orders: ONE2})
    with pytest.raises(ValueError, match="packed 8 bits"):
        mdo_make(CTX2, arity, [(orders, ONE2)])


@pytest.mark.parametrize("other", [((128, 0),), ((0, 128),)], ids=["same-variable", "other-variable"])
def test_bracket_whose_order_bound_reaches_2_to_the_8_is_refused(other):
    """The bound adds the operands' largest orders, whichever variables they
    sit on: 128 + 128 is refused, 128 + 127 is computed."""
    D = op(CTX2, 1, [(ONE2, ((128, 0),))])
    E = op(CTX2, 1, [(ONE2, other)])
    with pytest.raises(ValueError, match="packed 8 bits"):
        gerstenhaber(D, E)
    with pytest.raises(ValueError, match="packed 8 bits"):
        brace(D, [E])
    F = op(CTX2, 1, [(ONE2, ((127, 0),))])
    assert gerstenhaber(D, F).terms == {}  # constant-coefficient derivations commute
    assert brace(D, [F]).terms == {((255, 0),): {(0, 0): 1}}


def test_primitive_search_refuses_an_order_bound_of_2_to_the_8():
    with pytest.raises(ValueError, match="packed 8 bits"):
        delta_primitive(DX, poly_degree=0, op_order=TOP + 1)


# ---------------------------------------------------------------------------
# the δ-image block: built and factored once per (n, arity, op_order)


def _random_op(rng, ctx, arity, degree, order):
    orders = list(monomials_upto(ctx.n, order))
    monos = list(monomials_upto(ctx.n, degree))
    return mdo_make(ctx, arity, [
        (tuple(rng.choice(orders) for _ in range(arity)),
         {rng.choice(monos): Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))})
        for _ in range(rng.randint(1, 3))
    ])


def _outcome(res):
    return res.found, res.rank, res.candidate.terms, res.residual.terms


def _factored(block):
    return copy.deepcopy((block._index, block._scale, block._steps, block._pivots, block._rest))


@pytest.fixture
def cold_blocks():
    hs._delta_block.cache_clear()
    yield
    hs._delta_block.cache_clear()


def test_one_shape_factors_its_block_once(monkeypatch, cold_blocks):
    made = []

    class Counted(hs.Factorisation):
        def __init__(self, columns, keys):
            made.append(len(columns))
            super().__init__(columns, keys)

    monkeypatch.setattr(hs, "Factorisation", Counted)
    # two targets with a primitive and one without (the verify case
    # hkr-class-not-exact): a near-solution is read off the same block
    first = hoch_delta(op(CTX2, 1, [(X, ((2, 0),))]))
    second = hoch_delta(op(CTX2, 1, [(Y, ((1, 1),)), (ONE2, ((0, 2),))]))
    assert delta_primitive(first, poly_degree=2, op_order=2).found
    assert delta_primitive(second, poly_degree=1, op_order=2).found
    assert not delta_primitive(hkr(mv_frame(CTX2, (0, 1))), poly_degree=2, op_order=2).found
    assert made == [6]
    assert delta_primitive(hoch_delta(op(CTX2, 1, [(ONE2, ((1, 0),))])), poly_degree=0, op_order=1).found
    assert delta_primitive(hoch_delta(DX_DY), poly_degree=0, op_order=2).found
    T3 = hoch_delta(mdo_make(CTX3, 1, [(((0, 2, 0),), {(1, 0, 0): 1})]))
    assert delta_primitive(T3, poly_degree=1, op_order=2).found
    # a new order bound, a new arity, a new variable count: one block each
    assert made == [6, 3, 36, 10]
    assert delta_primitive(first, poly_degree=1, op_order=2).found
    assert made == [6, 3, 36, 10]


def test_cached_blocks_answer_as_cold_ones_and_stay_unchanged(cold_blocks):
    rng = random.Random(2025)
    shapes = [(CTX1, 2, 2, 2), (CTX2, 2, 1, 1), (CTX2, 3, 1, 1), (CTX3, 2, 1, 1)]
    cases = []
    for _ in range(6):
        for ctx, arity, degree, order in shapes:
            if rng.random() < 0.5:
                T = hoch_delta(_random_op(rng, ctx, arity - 1, degree, order))
            else:
                T = _random_op(rng, ctx, arity, degree, order)
            cases.append((T, degree, order))
    rng.shuffle(cases)
    warm, blocks = [], {}
    for T, degree, order in cases:
        warm.append(_outcome(delta_primitive(T, poly_degree=degree, op_order=order)))
        shape = (T.ctx.n, T.arity, order)
        if shape not in blocks:
            block = hs._delta_block(*shape)[1]
            blocks[shape] = (block, _factored(block))
    assert len(blocks) == len(shapes)
    assert {found for found, *_ in warm} == {True, False}
    # Factorisation.solve only reads the block it replays on
    for shape, (block, before) in blocks.items():
        assert hs._delta_block(*shape)[1] is block
        assert _factored(block) == before
    for (T, degree, order), got in zip(cases, warm):
        hs._delta_block.cache_clear()
        assert _outcome(delta_primitive(T, poly_degree=degree, op_order=order)) == got


@pytest.mark.parametrize("poly_degree, op_order", [(0, -1), (-1, 1), (0, TOP + 1)])
def test_refused_bounds_stay_refused_and_cache_nothing(cold_blocks, poly_degree, op_order):
    for _ in range(2):
        with pytest.raises(ValueError):
            delta_primitive(DX_DY, poly_degree=poly_degree, op_order=op_order)
        assert hs._delta_block.cache_info().currsize == 0


def test_an_order_bound_of_another_type_is_not_served_a_cached_block(cold_blocks):
    assert delta_primitive(hoch_delta(DX_DY), poly_degree=0, op_order=2).found
    with pytest.raises(TypeError):
        delta_primitive(hoch_delta(DX_DY), poly_degree=0, op_order=2.0)
