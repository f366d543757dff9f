"""Oracle tests for multivector fields and differential forms.

The Schouten bracket oracles are independent of the implementation: on
vector fields the bracket must agree with the classical commutator of
derivations, computed here by a reference routine; on decomposables the
expected values are hand-expanded.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gdcalc.exactcore import (
    VarContext,
    partial_derive,
    poly_add,
    poly_from_terms,
    poly_mul,
    poly_sub,
    poly_var,
    poly_zero,
)
from gdcalc.polyvec import (
    DiffForm,
    PolyVector,
    basis_multivectors,
    contract,
    d_form,
    form_add,
    form_is_zero,
    form_make,
    form_wedge,
    i_func_mv,
    mv_add,
    mv_component,
    mv_eq,
    mv_frame,
    mv_func,
    mv_is_zero,
    mv_make,
    mv_neg,
    mv_scale,
    mv_sub,
    mv_zero,
    schouten,
    wedge_mv,
)

CTX2 = VarContext(("x", "y"))
CTX3 = VarContext(("x", "y", "z"))


def V(ctx, frame, coeff_terms):
    """Single-term multivector with polynomial coefficient."""
    return mv_make(ctx, [(frame, poly_from_terms(ctx.n, coeff_terms))])


def _direct(cls):
    return lambda ctx, terms: cls(ctx, dict(terms))


@pytest.mark.parametrize(
    "make", [mv_make, form_make, _direct(PolyVector), _direct(DiffForm)],
    ids=["mv_make", "form_make", "PolyVector", "DiffForm"],
)
@pytest.mark.parametrize("c", [0.1, 0.0, 0.5, "1/2", "1"])
def test_make_refuses_inexact_coefficients(make, c):
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        make(CTX2, [((0,), {(1, 0): Fraction(1, 2), (0, 0): c})])


@pytest.mark.parametrize("cls", [PolyVector, DiffForm])
@pytest.mark.parametrize(
    "poly, match",
    [
        ({}, "empty polynomial"),
        ({(0, 0): Fraction(0)}, "stores a zero"),
        ({(0, 0): 0}, "stores a zero"),
        ({(1, 0): 1, (0, 0): Fraction(0)}, "stores a zero"),
    ],
)
def test_direct_construction_refuses_empty_and_zero_coefficients(cls, poly, match):
    # mv_make/form_make sum and drop what cancels; a map given directly is
    # stored as given, so a zero in it would make a nonzero-looking zero value
    with pytest.raises(ValueError, match=match):
        cls(CTX2, {(0,): poly})


@pytest.mark.parametrize("c", [0.1, 0.0, "1/2"])
def test_mv_scale_refuses_inexact_scalars(c):
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        mv_scale(mv_frame(CTX2, (0,)), c)
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        mv_scale(mv_zero(CTX2), c)


# a multivector and a form of the same shape: x d/dx against x dx
_MV = mv_make(CTX2, [((0,), {(1, 0): 1})])
_FORM = form_make(CTX2, [((0,), {(1, 0): 1})])


@pytest.mark.parametrize(
    "op, args",
    [
        (wedge_mv, (_MV, _FORM)),
        (wedge_mv, (_FORM, _FORM)),
        (form_wedge, (_MV, _FORM)),
        (form_wedge, (_FORM, _MV)),
        (mv_add, (_MV, _FORM)),
        (mv_sub, (_FORM, _MV)),
        (form_add, (_FORM, _MV)),
        (form_add, (_MV, _MV)),
        (schouten, (_FORM, _FORM)),
        (schouten, (_MV, _FORM)),
        (contract, (_MV, _MV)),
        (contract, (_FORM, _FORM)),
        (d_form, (_MV,)),
        (mv_neg, (_FORM,)),
        (mv_scale, (_FORM, 2)),
        (mv_component, (_FORM, 1)),
    ],
    ids=lambda x: x.__name__ if callable(x) else "-".join(type(a).__name__ for a in x),
)
def test_multivector_and_form_operands_are_not_interchangeable(op, args):
    with pytest.raises(ValueError, match="expected a (PolyVector|DiffForm), got a"):
        op(*args)


def test_library_built_values_are_not_checked_again(monkeypatch):
    """The constructor check runs on caller-supplied terms only."""
    from gdcalc import polyvec
    from gdcalc.twistcheck import m_value, phi_value
    from gdcalc.deform import ArtinRing, ArtinSeries, GaugeParam, gauge_flow, mc_solve
    from gdcalc.twistcheck import make_twisted, mc_defect

    one = {(0, 0, 0): 1}
    a = mv_make(CTX3, [((0,), {(1, 0, 0): 1}), ((1, 2), {(0, 1, 0): Fraction(1, 2)})])
    b = mv_make(CTX3, [((1,), {(0, 0, 2): 3}), ((0, 2), one)])
    pi = mv_make(CTX3, [((0, 1), {(0, 0, 1): 1}), ((1, 2), {(1, 0, 0): 1})])
    w = form_make(CTX3, [((0,), {(0, 1, 0): 1}), ((2,), {(1, 0, 0): -2})])
    u = form_make(CTX3, [((1,), {(0, 0, 1): 1})])
    h = form_make(CTX3, [((0, 1, 2), one)])
    S = make_twisted(h)
    ring = ArtinRing(2)
    gamma = ArtinSeries(ring, {1: pi})
    xi = GaugeParam(ring, {1: mv_make(CTX3, [((2,), {(1, 0, 0): 1})])})

    def refuse(*args):
        raise AssertionError("a library-built value was checked again")

    monkeypatch.setattr(polyvec, "_termmap", refuse)
    for value in [
        schouten(a, b),
        wedge_mv(a, b),
        form_wedge(w, u),
        contract(w, b),
        d_form(w),
        phi_value(h, [a, b, pi]),
        m_value(a, b),
    ]:
        assert value.terms
    assert mv_is_zero(mc_defect(S, pi))  # pi solves the twisted equation
    assert gauge_flow(S, gamma, xi).coeffs[2].terms
    assert mc_solve(S, pi, 3, poly_degree=1).status == "solved"


# ---------------------------------------------------------------------------
# wedge


def test_wedge_repeated_generator_vanishes():
    dx = mv_frame(CTX2, (0,))
    assert mv_is_zero(wedge_mv(dx, dx))


def test_wedge_antisymmetry_of_vectors():
    dx = mv_frame(CTX2, (0,))
    dy = mv_frame(CTX2, (1,))
    assert mv_eq(wedge_mv(dy, dx), mv_neg(wedge_mv(dx, dy)))
    assert mv_eq(wedge_mv(dx, dy), mv_frame(CTX2, (0, 1)))


def test_wedge_bilinear_expansion():
    # (x del_x) ^ (y del_y) = xy del_x^del_y
    a = V(CTX2, (0,), [(1, (1, 0))])
    b = V(CTX2, (1,), [(1, (0, 1))])
    expected = V(CTX2, (0, 1), [(1, (1, 1))])
    assert mv_eq(wedge_mv(a, b), expected)


def test_wedge_graded_commutative():
    # bivector ^ vector == vector ^ bivector (degrees 2*1 even)
    bv = V(CTX3, (0, 1), [(1, (0, 0, 1))])
    v = V(CTX3, (2,), [(1, (1, 0, 0))])
    assert mv_eq(wedge_mv(bv, v), wedge_mv(v, bv))


# ---------------------------------------------------------------------------
# Schouten bracket: reference commutator oracle for vector fields


def _lie_bracket_reference(X, Y):
    """[X,Y] for vector fields via the commutator formula X(g_i) - Y(f_i)."""
    ctx = X.ctx
    comps_x = {f[0]: p for f, p in X.terms.items()}
    comps_y = {f[0]: p for f, p in Y.terms.items()}
    out = mv_zero(ctx)
    for i in range(ctx.n):
        gi = comps_y.get(i, poly_zero())
        fi = comps_x.get(i, poly_zero())
        acc = poly_zero()
        for j in range(ctx.n):
            fj = comps_x.get(j, poly_zero())
            gj = comps_y.get(j, poly_zero())
            acc = poly_add(acc, poly_mul(fj, partial_derive(gi, j)))
            acc = poly_sub(acc, poly_mul(gj, partial_derive(fi, j)))
        out = mv_add(out, mv_make(ctx, [((i,), acc)]))
    return out


def vector_fields(ctx, max_deg=2, max_terms=3):
    n = ctx.n
    exps = st.tuples(*([st.integers(0, max_deg)] * n))
    coeff = st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
    )
    term = st.tuples(st.integers(0, n - 1), coeff, exps)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: mv_make(
            ctx, [((i,), poly_from_terms(n, [(c, e)])) for i, c, e in ts]
        )
    )


@settings(max_examples=80)
@given(vector_fields(CTX2), vector_fields(CTX2))
def test_schouten_matches_commutator_on_vector_fields(X, Y):
    assert mv_eq(schouten(X, Y), _lie_bracket_reference(X, Y))


@settings(max_examples=40)
@given(vector_fields(CTX3), vector_fields(CTX3))
def test_schouten_matches_commutator_on_vector_fields_n3(X, Y):
    assert mv_eq(schouten(X, Y), _lie_bracket_reference(X, Y))


def test_schouten_vector_on_function_is_directional_derivative():
    # [del_x, x^2] = 2x
    dx = mv_frame(CTX2, (0,))
    f = mv_func(CTX2, poly_from_terms(2, [(1, (2, 0))]))
    expected = mv_func(CTX2, poly_from_terms(2, [(2, (1, 0))]))
    assert mv_eq(schouten(dx, f), expected)


def test_schouten_classic_rotation_pair():
    # [x del_y, y del_x] = x del_x - y del_y
    a = V(CTX2, (1,), [(1, (1, 0))])
    b = V(CTX2, (0,), [(1, (0, 1))])
    expected = mv_add(
        V(CTX2, (0,), [(1, (1, 0))]), V(CTX2, (1,), [(-1, (0, 1))])
    )
    assert mv_eq(schouten(a, b), expected)


def test_schouten_constant_bivector_self_bracket():
    pi = mv_frame(CTX2, (0, 1))
    assert mv_is_zero(schouten(pi, pi))


def test_schouten_euler_field_with_constant_bivector():
    # [x del_x, del_x ^ del_y] = -del_x ^ del_y
    e = V(CTX2, (0,), [(1, (1, 0))])
    pi = mv_frame(CTX2, (0, 1))
    assert mv_eq(schouten(e, pi), mv_neg(pi))


def test_schouten_graded_antisymmetry_spot():
    a = V(CTX3, (0, 1), [(1, (0, 0, 1))])  # z del_x^del_y, |a|=2
    b = V(CTX3, (2,), [(1, (1, 0, 0))])  # x del_z,       |b|=1
    # [a,b] = -(-1)^{(2-1)(1-1)} [b,a] = -[b,a]
    assert mv_eq(schouten(a, b), mv_neg(schouten(b, a)))


def test_schouten_jacobi_spot():
    a = V(CTX3, (0,), [(1, (0, 1, 0))])  # y del_x
    b = V(CTX3, (1, 2), [(1, (1, 0, 0))])  # x del_y^del_z
    c = V(CTX3, (2,), [(1, (0, 0, 1))])  # z del_z
    da, db, dc = 1, 2, 1
    t1 = mv_scale(
        schouten(schouten(a, b), c), (-1) ** ((da - 1) * (dc - 1))
    )
    t2 = mv_scale(
        schouten(schouten(b, c), a), (-1) ** ((db - 1) * (da - 1))
    )
    t3 = mv_scale(
        schouten(schouten(c, a), b), (-1) ** ((dc - 1) * (db - 1))
    )
    assert mv_is_zero(mv_add(mv_add(t1, t2), t3))


def test_schouten_leibniz_spot():
    # [a, b^c] = [a,b]^c + (-1)^{(|a|-1)|b|} b^[a,c]
    a = V(CTX3, (0,), [(1, (0, 2, 0))])  # y^2 del_x
    b = V(CTX3, (1,), [(1, (1, 0, 0))])  # x del_y
    c = V(CTX3, (2,), [(1, (0, 0, 1))])  # z del_z
    lhs = schouten(a, wedge_mv(b, c))
    rhs = mv_add(
        wedge_mv(schouten(a, b), c),
        mv_scale(wedge_mv(b, schouten(a, c)), (-1) ** ((1 - 1) * 1)),
    )
    assert mv_eq(lhs, rhs)


def test_schouten_n0_degenerate():
    ctx0 = VarContext(())
    f = mv_func(ctx0, poly_from_terms(0, [(3, ())]))
    g = mv_func(ctx0, poly_from_terms(0, [(5, ())]))
    assert mv_is_zero(schouten(f, g))


# ---------------------------------------------------------------------------
# exterior derivative


def test_d_coordinate_example():
    # d(x dy) = dx ^ dy
    w = form_make(CTX2, [((1,), poly_var(2, 0))])
    expected = form_make(CTX2, [((0, 1), poly_from_terms(2, [(1, (0, 0))]))])
    assert d_form(w).terms == expected.terms


def test_d_squared_zero_example():
    w = form_make(CTX3, [((2,), poly_from_terms(3, [(1, (2, 1, 0))]))])
    assert form_is_zero(d_form(d_form(w)))


def test_d_of_constant_form():
    w = form_make(CTX3, [((), poly_from_terms(3, [(7, (0, 0, 0))]))])
    assert form_is_zero(d_form(w))


def small_forms(ctx, max_cofr=2, max_deg=2, max_terms=3):
    n = ctx.n
    import itertools

    coframes = [
        f
        for k in range(0, max_cofr + 1)
        for f in itertools.combinations(range(n), k)
    ]
    exps = st.tuples(*([st.integers(0, max_deg)] * n))
    coeff = st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
    )
    term = st.tuples(st.sampled_from(coframes), coeff, exps)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: form_make(ctx, [(f, poly_from_terms(n, [(c, e)])) for f, c, e in ts])
    )


@settings(max_examples=60)
@given(small_forms(CTX3))
def test_d_squared_is_zero(w):
    assert form_is_zero(d_form(d_form(w)))


@settings(max_examples=40)
@given(small_forms(CTX3, max_cofr=1), small_forms(CTX3, max_cofr=2))
def test_d_is_a_derivation_of_form_wedge(a, b):
    # homogeneous split is handled inside: restrict a to single degree
    for k in (0, 1):
        ak = DiffForm(a.ctx, {f: p for f, p in a.terms.items() if len(f) == k})
        lhs = d_form(form_wedge(ak, b))
        rhs = form_add(
            form_wedge(d_form(ak), b),
            DiffForm(
                b.ctx,
                {
                    f: (p if k % 2 == 0 else {e: -c for e, c in p.items()})
                    for f, p in form_wedge(ak, d_form(b)).terms.items()
                },
            ),
        )
        assert lhs.terms == rhs.terms


# ---------------------------------------------------------------------------
# contraction


def test_contract_dual_pairing():
    alpha = form_make(CTX2, [((0,), poly_from_terms(2, [(1, (0, 0))]))])
    assert mv_eq(contract(alpha, mv_frame(CTX2, (0,))), mv_func(CTX2, poly_from_terms(2, [(1, (0, 0))])))


def test_contract_no_matching_generator():
    alpha = form_make(CTX3, [((2,), poly_from_terms(3, [(1, (0, 0, 0))]))])
    assert mv_is_zero(contract(alpha, mv_frame(CTX3, (0, 1))))


def test_contract_into_bivector():
    alpha = form_make(CTX2, [((0,), poly_from_terms(2, [(1, (0, 0))]))])
    assert mv_eq(contract(alpha, mv_frame(CTX2, (0, 1))), mv_frame(CTX2, (1,)))
    # second slot picks up the alternating sign
    beta = form_make(CTX2, [((1,), poly_from_terms(2, [(1, (0, 0))]))])
    assert mv_eq(contract(beta, mv_frame(CTX2, (0, 1))), mv_neg(mv_frame(CTX2, (0,))))


def test_contract_requires_one_form():
    two_form = form_make(CTX2, [((0, 1), poly_from_terms(2, [(1, (0, 0))]))])
    with pytest.raises(ValueError):
        contract(two_form, mv_frame(CTX2, (0,)))


def test_contract_is_degree_minus_one_derivation():
    # <alpha, pi ^ rho> = <alpha,pi> ^ rho + (-1)^{|pi|} pi ^ <alpha,rho>
    alpha = form_make(CTX3, [((0,), poly_var(3, 1))])  # y dx
    for pi_frame, rho_frame in [((0,), (1, 2)), ((0, 1), (2,)), ((1,), (0,))]:
        pi = V(CTX3, pi_frame, [(1, (0, 0, 1))])
        rho = V(CTX3, rho_frame, [(1, (1, 0, 0))])
        lhs = contract(alpha, wedge_mv(pi, rho))
        rhs = mv_add(
            wedge_mv(contract(alpha, pi), rho),
            mv_scale(wedge_mv(pi, contract(alpha, rho)), (-1) ** len(pi_frame)),
        )
        assert mv_eq(lhs, rhs)


# ---------------------------------------------------------------------------
# i_a


def test_i_func_on_function_is_zero():
    f = mv_func(CTX2, poly_var(2, 0))
    assert mv_is_zero(i_func_mv(poly_var(2, 0), f))


def test_i_func_orthogonal_vector():
    assert mv_is_zero(i_func_mv(poly_var(2, 0), mv_frame(CTX2, (1,))))


def test_i_func_bivector_orientation():
    # i_x(del_x ^ del_y) = -del_y under the shipped orientation
    out = i_func_mv(poly_var(2, 0), mv_frame(CTX2, (0, 1)))
    assert mv_eq(out, mv_neg(mv_frame(CTX2, (1,))))


def test_i_func_equals_signed_contraction_with_da():
    # i_a(pi) = (-1)^{|pi|-1} <da, pi> on homogeneous pi
    a = poly_from_terms(3, [(1, (1, 1, 0))])  # xy
    da = d_form(form_make(CTX3, [((), a)]))
    for frame in [(0,), (1,), (0, 1), (0, 2), (0, 1, 2)]:
        pi = V(CTX3, frame, [(1, (0, 0, 1))])
        lhs = i_func_mv(a, pi)
        rhs = mv_scale(contract(da, pi), (-1) ** (len(frame) - 1))
        assert mv_eq(lhs, rhs)


# ---------------------------------------------------------------------------
# construction and basis enumeration


def test_frames_must_strictly_increase():
    with pytest.raises(ValueError):
        PolyVector(CTX2, {(1, 0): poly_var(2, 0)})
    with pytest.raises(ValueError):
        mv_make(CTX2, [((0, 0), poly_var(2, 0))])


@pytest.mark.parametrize("exps", [(1, 2, 3), (1,), ()])
def test_exponent_tuples_must_have_one_entry_per_variable(exps):
    with pytest.raises(ValueError, match="different variable counts: .* in a 2-variable context"):
        mv_make(CTX2, [((0,), {exps: 1})])
    with pytest.raises(ValueError, match="different variable counts: .* in a 2-variable context"):
        form_make(CTX2, [((0,), {exps: 1})])
    with pytest.raises(ValueError, match="different variable counts: .* in a 2-variable context"):
        PolyVector(CTX2, {(0,): {exps: Fraction(1)}})
    with pytest.raises(ValueError, match="different variable counts: .* in a 2-variable context"):
        DiffForm(CTX2, {(): {exps: Fraction(1)}})


def test_bracket_never_sees_a_short_exponent_tuple():
    # the term engine adds exponent tuples with zip, which would silently drop the
    # third entry; construction refuses the field before any bracket sees it
    with pytest.raises(ValueError):
        schouten(mv_make(CTX2, [((0,), {(1, 2, 3): 1})]), V(CTX2, (1,), [(1, (0, 1))]))


def test_mv_component_and_degrees():
    v = mv_add(mv_frame(CTX2, (0,)), mv_frame(CTX2, (0, 1)))
    assert mv_eq(mv_component(v, 1), mv_frame(CTX2, (0,)))
    assert mv_eq(mv_component(v, 2), mv_frame(CTX2, (0, 1)))
    assert mv_is_zero(mv_component(v, 0))


def test_basis_multivectors_count():
    # n=2, coefficient degree <= 1, degrees {0,1,2}: frames 1+2+1, monos 3
    basis = basis_multivectors(CTX2, max_poly_degree=1, mv_degrees=(0, 1, 2))
    assert len(basis) == 4 * 3
    seen = set()
    for b in basis:
        (frame, poly), = b.terms.items()
        (exps, c), = poly.items()
        assert c == 1
        seen.add((frame, exps))
    assert len(seen) == len(basis)
