"""Oracle tests for the contraction cochain map and the cochain calculus.

The two structural identities — the differential of a contraction cochain
equals the contraction cochain of the exterior derivative, and contraction
cochains bracket to zero — are the calibration anchor for every sign in
this package. They are spot-checked here on hand-picked mixed-degree
instances and exhaustively swept (small contexts) further down; the
acceptance suite re-runs them at full bounds.

The cochains here are the library's values ``phi_value`` and ``m_value``
wrapped as test-side cochains (``_ref_cochains.phi_cochain``/``m_cochain``)
and evaluated by the reference evaluator, so every identity still runs the
library kernels; the ``phi_value``/``m_value`` checks on mixed-degree
arguments and refused inputs call the library directly.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import pytest

from gdcalc.exactcore import koszul_sign, poly_from_terms, poly_var
from _ref_cochains import (
    cochain_bracket,
    cochain_compose,
    cochain_differential,
    m_cochain as structure_cochain,
    phi_cochain as phi,
)
from _ref_polyvec import Cochain, cochain_zero, evaluate
from gdcalc.twistcheck import m_value, phi_value
from gdcalc.polyvec import (
    PolyVector,
    VarContext,
    basis_multivectors,
    contract,
    d_form,
    form_make,
    form_zero,
    mv_add,
    mv_eq,
    mv_frame,
    mv_func,
    mv_homogeneous_degree,
    mv_is_zero,
    mv_make,
    mv_neg,
    mv_scale,
    mv_sub,
    schouten,
    wedge_mv,
)

CTX2 = VarContext(("x", "y"))
CTX3 = VarContext(("x", "y", "z"))
CTX4 = VarContext(("x1", "x2", "x3", "x4"))

ONE2 = poly_from_terms(2, [(1, (0, 0))])
ONE3 = poly_from_terms(3, [(1, (0, 0, 0))])
ONE4 = poly_from_terms(4, [(1, (0, 0, 0, 0))])


def m_of(ctx):
    return structure_cochain(ctx)


def sch_m(a, b):
    """Reference m(a,b) = (-1)^{|a|-1}[a,b] written out by hand."""
    if mv_is_zero(a):
        return a
    da = mv_homogeneous_degree(a)
    return mv_scale(schouten(a, b), -1 if (da - 1) % 2 else 1)


# ---------------------------------------------------------------------------
# phi basics


def test_phi_arity_one_is_contraction():
    alpha = form_make(CTX2, [((1,), poly_var(2, 0))])  # x dy
    c = phi(alpha)
    assert c.arity == 1
    for frame in [(0,), (1,), (0, 1)]:
        v = mv_frame(CTX2, frame)
        assert mv_eq(evaluate(c, (v,)), contract(alpha, v))
    mixed = mv_add(mv_frame(CTX2, (0,)), mv_frame(CTX2, (0, 1)))
    assert mv_eq(phi_value(alpha, (mixed,)), contract(alpha, mixed))


def test_phi_degree_zero_form_is_the_function():
    f = poly_from_terms(2, [(1, (1, 1))])  # xy
    c = phi(form_make(CTX2, [((), f)]))
    assert c.arity == 0
    assert mv_eq(evaluate(c, ()), mv_func(CTX2, f))
    assert mv_eq(phi_value(form_make(CTX2, [((), f)]), ()), mv_func(CTX2, f))


def test_phi_top_form_on_repeated_decomposable_bivector_vanishes():
    # n=3: every permutation term carries the contraction <dz, del_x^del_y> = 0
    H = form_make(CTX3, [((0, 1, 2), ONE3)])
    pi = mv_frame(CTX3, (0, 1))
    assert mv_is_zero(evaluate(phi(H), (pi, pi, pi)))


def test_phi_r4_frozen_value():
    # H = dx1^dx2^dx3, pi = d1^d2 + d3^d4:
    # all six permutations coincide, giving 6 * <dx1,pi>^<dx2,pi>^<dx3,pi>
    H = form_make(CTX4, [((0, 1, 2), ONE4)])
    pi = mv_add(mv_frame(CTX4, (0, 1)), mv_frame(CTX4, (2, 3)))
    got = evaluate(phi(H), (pi, pi, pi))
    c1 = contract(form_make(CTX4, [((0,), ONE4)]), pi)
    c2 = contract(form_make(CTX4, [((1,), ONE4)]), pi)
    c3 = contract(form_make(CTX4, [((2,), ONE4)]), pi)
    expected = mv_scale(wedge_mv(wedge_mv(c1, c2), c3), 6)
    assert mv_eq(got, expected)
    assert mv_eq(got, mv_scale(mv_frame(CTX4, (0, 1, 3)), 6))


def test_phi_linear_in_the_form():
    a1 = form_make(CTX2, [((0,), poly_var(2, 1))])
    a2 = form_make(CTX2, [((1,), poly_var(2, 0))])
    both = form_make(CTX2, list(a1.terms.items()) + list(a2.terms.items()))
    args = (mv_frame(CTX2, (0, 1)),)
    assert mv_eq(
        evaluate(phi(both), args),
        mv_add(evaluate(phi(a1), args), evaluate(phi(a2), args)),
    )


def test_phi_zero_form_needs_explicit_arity():
    z = form_zero(CTX3)
    c = phi(z, arity=3)
    assert c.arity == 3
    assert mv_is_zero(evaluate(c, (mv_frame(CTX3, (0,)),) * 3))
    with pytest.raises(ValueError):
        phi(z)
    # phi_value takes the arity from its arguments, so the zero form gives zero on any number
    for k in range(4):
        assert mv_is_zero(phi_value(z, (mv_frame(CTX3, (0,)),) * k))


def test_phi_rejects_mixed_degree_form():
    mixed = form_make(CTX2, [((0,), ONE2), ((0, 1), ONE2)])
    with pytest.raises(ValueError):
        phi(mixed)
    with pytest.raises(ValueError, match="phi expects a homogeneous form"):
        phi_value(mixed, (mv_frame(CTX2, (0,)),))


def test_evaluator_is_multilinear_over_components():
    H = form_make(CTX4, [((0, 1, 2), ONE4)])
    c = phi(H)
    pi = mv_add(mv_frame(CTX4, (0, 1)), mv_frame(CTX4, (2, 3)))
    # expand the first slot by hand
    p1, p2 = mv_frame(CTX4, (0, 1)), mv_frame(CTX4, (2, 3))
    assert mv_eq(
        evaluate(c, (pi, pi, pi)),
        mv_add(evaluate(c, (p1, pi, pi)), evaluate(c, (p2, pi, pi))),
    )
    # phi_value splits mixed-degree arguments by frame degree itself
    v = mv_add(mv_frame(CTX4, (0,)), mv_make(CTX4, [((1, 3), poly_var(4, 2))]))
    w = mv_add(mv_frame(CTX4, (1, 2)), mv_frame(CTX4, (0, 1, 3)))
    parts = [mv_frame(CTX4, (0,)), mv_make(CTX4, [((1, 3), poly_var(4, 2))])]
    assert mv_eq(
        phi_value(H, (v, w, pi)),
        mv_add(phi_value(H, (parts[0], w, pi)), phi_value(H, (parts[1], w, pi))),
    )
    assert mv_eq(phi_value(H, (v, w, pi)), evaluate(c, (v, w, pi)))
    assert not mv_is_zero(phi_value(H, (v, w, pi)))


# ---------------------------------------------------------------------------
# structure cochain


def test_m_spec_values():
    m = m_of(CTX2)
    dx = mv_frame(CTX2, (0,))
    f = mv_func(CTX2, poly_from_terms(2, [(1, (2, 0))]))
    assert mv_eq(evaluate(m, (dx, f)), mv_func(CTX2, poly_from_terms(2, [(2, (1, 0))])))
    g = mv_func(CTX2, poly_var(2, 1))
    assert mv_is_zero(evaluate(m, (f, g)))
    pi = mv_frame(CTX2, (0, 1))
    assert mv_is_zero(evaluate(m, (pi, pi)))
    # mixed degrees: m_value sums (-1)^{|a_i|-1}[a_i, b] over a's components
    mixed = mv_add(dx, f)
    assert mv_eq(m_value(mixed, f), mv_add(m_value(dx, f), m_value(f, f)))
    assert mv_eq(m_value(mixed, mv_add(f, pi)), evaluate(m, (mixed, mv_add(f, pi))))
    with pytest.raises(ValueError, match="context mismatch"):
        m_value(dx, mv_frame(CTX3, (0,)))


def test_m_graded_symmetry_unshifted_koszul():
    # m(b,a) = (-1)^{|a||b|} m(a,b) — check across parities
    cases = [
        (mv_frame(CTX3, (0,)), mv_make(CTX3, [((1,), poly_var(3, 0))])),  # 1,1
        (mv_frame(CTX3, (0, 1)), mv_make(CTX3, [((2,), poly_var(3, 0))])),  # 2,1
        (
            mv_make(CTX3, [((0, 1), poly_var(3, 2))]),
            mv_make(CTX3, [((1, 2), poly_var(3, 0))]),
        ),  # 2,2
        (mv_func(CTX3, poly_var(3, 0)), mv_frame(CTX3, (1,))),  # 0,1
    ]
    m = m_of(CTX3)
    for a, b in cases:
        da, db = mv_homogeneous_degree(a), mv_homogeneous_degree(b)
        lhs = evaluate(m, (b, a))
        rhs = mv_scale(evaluate(m, (a, b)), (-1) ** (da * db))
        assert mv_eq(lhs, rhs), (da, db)


def test_phi_evaluator_graded_symmetry():
    H = form_make(CTX4, [((0, 1, 2), poly_var(4, 3))])
    c = phi(H)
    args = (
        mv_frame(CTX4, (0,)),
        mv_make(CTX4, [((1, 2), poly_var(4, 0))]),
        mv_frame(CTX4, (2, 3)),
    )
    degs = [mv_homogeneous_degree(a) for a in args]
    base = evaluate(c, args)
    for i in range(2):
        perm = list(range(3))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        swapped = tuple(args[p] for p in perm)
        expected = mv_scale(base, koszul_sign(degs, perm))
        assert mv_eq(evaluate(c, swapped), expected), (i, degs)


# ---------------------------------------------------------------------------
# compose and bracket


def test_compose_arity_one_pair_is_plain_composition():
    alpha = form_make(CTX2, [((0,), poly_var(2, 1))])
    beta = form_make(CTX2, [((1,), ONE2)])
    F, G = phi(alpha), phi(beta)
    FG = cochain_compose(F, G)
    assert FG.arity == 1
    v = mv_frame(CTX2, (0, 1))
    assert mv_eq(evaluate(FG, (v,)), evaluate(F, (evaluate(G, (v,)),)))


def test_compose_with_zero_cochain():
    F = m_of(CTX2)
    Z = cochain_zero(CTX2, arity=2, degree=1)
    FZ = cochain_compose(F, Z)
    args = (mv_frame(CTX2, (0,)), mv_frame(CTX2, (1,)), mv_frame(CTX2, (0, 1)))
    assert mv_is_zero(evaluate(FZ, args))


def test_bracket_arities_one_two_has_three_partitions():
    # [phi(alpha), m](p1,p2)
    #   = <alpha, m(p1,p2)> + m(<alpha,p1>, p2) + (-1)^{d1 d2} m(<alpha,p2>, p1)
    alpha = form_make(CTX3, [((1,), poly_var(3, 0))])  # x dy
    F = phi(alpha)
    G = m_of(CTX3)
    B = cochain_bracket(F, G)
    assert B.arity == 2
    cases = [
        (mv_frame(CTX3, (0,)), mv_make(CTX3, [((1,), poly_var(3, 1))])),
        (mv_make(CTX3, [((0, 1), poly_var(3, 2))]), mv_frame(CTX3, (2,))),
        (mv_make(CTX3, [((0, 2), ONE3)]), mv_make(CTX3, [((1, 2), poly_var(3, 0))])),
    ]
    for p1, p2 in cases:
        d1, d2 = mv_homogeneous_degree(p1), mv_homogeneous_degree(p2)
        expected = mv_add(
            contract(alpha, sch_m(p1, p2)),
            mv_add(
                sch_m(contract(alpha, p1), p2),
                mv_scale(sch_m(contract(alpha, p2), p1), (-1) ** (d1 * d2)),
            ),
        )
        assert mv_eq(evaluate(B, (p1, p2)), expected), (d1, d2)


def test_bracket_with_zero_is_zero():
    F = phi(form_make(CTX2, [((0,), ONE2)]))
    Z = cochain_zero(CTX2, arity=2, degree=1)
    B = cochain_bracket(F, Z)
    args = (mv_frame(CTX2, (0,)), mv_frame(CTX2, (1,)))
    assert mv_is_zero(evaluate(B, args))


# ---------------------------------------------------------------------------
# the differential: calibration identities


def _basis_tuples(ctx, poly_degree, mv_degree, arity):
    basis = basis_multivectors(ctx, poly_degree, range(0, mv_degree + 1))
    return itertools.product(basis, repeat=arity)


def test_differential_of_function_cochain():
    # d(phi(f)) = phi(df) — exercises arity-0 composition
    f = poly_from_terms(2, [(1, (1, 1))])  # xy
    F = phi(form_make(CTX2, [((), f)]))
    dF = cochain_differential(F)
    target = phi(d_form(form_make(CTX2, [((), f)])))
    assert dF.arity == 1
    for v in basis_multivectors(CTX2, 1, (0, 1, 2)):
        assert mv_eq(evaluate(dF, (v,)), evaluate(target, (v,)))


def test_differential_matches_exterior_derivative_one_forms_n2():
    # exhaustive small sweep: alpha = x^e dx_j, e over degree <= 2
    from gdcalc.exactcore import monomials_upto

    for j in range(2):
        for exps in monomials_upto(2, 2):
            alpha = form_make(CTX2, [((j,), {exps: Fraction(1)})])
            lhs = cochain_differential(phi(alpha))
            rhs = phi(d_form(alpha), arity=2)
            for p1, p2 in _basis_tuples(CTX2, 1, 2, 2):
                assert mv_eq(
                    evaluate(lhs, (p1, p2)), evaluate(rhs, (p1, p2))
                ), (j, exps, p1.terms, p2.terms)


def test_differential_matches_exterior_derivative_two_forms_n3():
    alpha = form_make(CTX3, [((0, 1), poly_var(3, 2))])  # z dx^dy
    lhs = cochain_differential(phi(alpha))
    rhs = phi(d_form(alpha))
    basis = basis_multivectors(CTX3, 1, (1, 2))
    for args in itertools.combinations_with_replacement(basis, 3):
        assert mv_eq(evaluate(lhs, args), evaluate(rhs, args))


def test_phi_cochains_bracket_to_zero_spot():
    pairs = [
        (
            form_make(CTX3, [((0,), poly_var(3, 1))]),
            form_make(CTX3, [((1, 2), poly_var(3, 0))]),
        ),
        (
            form_make(CTX3, [((0, 1), ONE3)]),
            form_make(CTX3, [((0, 1, 2), poly_var(3, 0))]),
        ),
        (
            form_make(CTX2, [((0,), poly_var(2, 0))]),
            form_make(CTX2, [((1,), poly_var(2, 0))]),
        ),
    ]
    for a, b in pairs:
        B = cochain_bracket(phi(a), phi(b))
        ctx = a.ctx
        basis = basis_multivectors(ctx, 1, (1, 2))
        for args in itertools.islice(
            itertools.combinations_with_replacement(basis, B.arity), 400
        ):
            assert mv_is_zero(evaluate(B, args)), (a.terms, b.terms)


def test_m_self_bracket_vanishes_spot():
    # [m,m] = 0 is the cochain shadow of the graded Jacobi identity
    B = cochain_bracket(m_of(CTX2), m_of(CTX2))
    basis = basis_multivectors(CTX2, 1, (0, 1, 2))
    for args in itertools.combinations_with_replacement(basis, 3):
        assert mv_is_zero(evaluate(B, args))


def test_differential_squares_to_zero_spot():
    alpha = form_make(CTX2, [((0,), poly_var(2, 1))])
    dd = cochain_differential(cochain_differential(phi(alpha)))
    basis = basis_multivectors(CTX2, 1, (1, 2))
    for args in itertools.islice(
        itertools.combinations_with_replacement(basis, 3), 300
    ):
        assert mv_is_zero(evaluate(dd, args))


def test_differential_of_m_vanishes_spot():
    dm = cochain_differential(m_of(CTX2))
    basis = basis_multivectors(CTX2, 1, (1, 2))
    for args in itertools.islice(
        itertools.combinations_with_replacement(basis, 3), 300
    ):
        assert mv_is_zero(evaluate(dm, args))


# ---------------------------------------------------------------------------
# pointwise equality checker (a test oracle on the slow Cochain route; the
# library sweeps compare on the bitmask engine instead)


@dataclass(frozen=True)
class EqReport:
    equal: bool
    witness: Optional[Tuple[Tuple[PolyVector, ...], PolyVector, PolyVector]]
    cases: int


def cochain_equal_on_basis(
    a: Cochain, b: Cochain, *, poly_degree: int = 2, mv_degree: int = 3
) -> EqReport:
    """Compare two cochains on every tuple of canonical basis multivectors.

    On disagreement returns the first witness tuple together with both
    values (deterministic enumeration order).
    """
    if a.arity != b.arity:
        raise ValueError("cochains of different arity are never compared")
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")
    basis = basis_multivectors(a.ctx, poly_degree, range(mv_degree + 1))
    cases = 0
    for args in itertools.product(basis, repeat=a.arity):
        cases += 1
        va = evaluate(a, args)
        vb = evaluate(b, args)
        if not mv_eq(va, vb):
            return EqReport(False, (args, va, vb), cases)
    return EqReport(True, None, cases)


def test_equal_on_basis_trivially_true():
    F = phi(form_make(CTX2, [((0,), ONE2)]))
    report = cochain_equal_on_basis(F, F, poly_degree=1, mv_degree=2)
    assert report.equal
    assert report.witness is None


def test_equal_on_basis_lemma_instance():
    alpha = form_make(CTX2, [((0,), poly_var(2, 1))])  # y dx
    report = cochain_equal_on_basis(
        cochain_differential(phi(alpha)), phi(d_form(alpha)), poly_degree=2, mv_degree=2
    )
    assert report.equal


def test_equal_on_basis_distinguishes_closed_three_forms():
    H1 = form_make(CTX4, [((0, 1, 2), ONE4)])
    H2 = form_make(CTX4, [((0, 1, 3), ONE4)])
    report = cochain_equal_on_basis(phi(H1), phi(H2), poly_degree=0, mv_degree=1)
    assert not report.equal
    args, va, vb = report.witness
    assert not mv_eq(va, vb)
    assert mv_eq(evaluate(phi(H1), args), va)
    assert mv_eq(evaluate(phi(H2), args), vb)


def test_arity_mismatch_rejected():
    F = phi(form_make(CTX2, [((0,), ONE2)]))
    with pytest.raises(ValueError):
        evaluate(F, (mv_frame(CTX2, (0,)), mv_frame(CTX2, (1,))))
    with pytest.raises(ValueError, match="arity 2 contradicts form degree 1"):
        phi_value(form_make(CTX2, [((0,), ONE2)]), (mv_frame(CTX2, (0,)), mv_frame(CTX2, (1,))))
    with pytest.raises(ValueError, match="context mismatch"):
        phi_value(form_make(CTX2, [((0,), ONE2)]), (mv_frame(CTX3, (0,)),))
    with pytest.raises(ValueError):
        cochain_equal_on_basis(F, m_of(CTX2), poly_degree=1, mv_degree=1)
