"""Oracle tests for twisted structures, the defect, and the relation checker.

A ``TwistedStructure`` carries its form only; the relation checks wrap the
library's ``m_value`` and ``phi_value`` of that form as test-side cochains
(``_ref_cochains.m_cochain``/``phi_cochain``).
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from gdcalc.exactcore import VarContext, poly_from_terms, poly_var
from gdcalc.polyvec import (
    d_form,
    form_add,
    form_make,
    form_zero,
    mv_add,
    mv_eq,
    mv_frame,
    mv_is_zero,
    mv_make,
    mv_scale,
    mv_sub,
    schouten,
)
from _ref_cochains import RelationBounds, linfty_relations_check, m_cochain, phi_cochain
from gdcalc.twistcheck import (
    NotClosedError,
    is_twisted_poisson,
    make_twisted,
    mc_defect,
    phi_value,
)

CTX2 = VarContext(("x", "y"))
CTX3 = VarContext(("x", "y", "z"))
CTX4 = VarContext(("x1", "x2", "x3", "x4"))

ONE3 = poly_from_terms(3, [(1, (0, 0, 0))])
ONE4 = poly_from_terms(4, [(1, (0, 0, 0, 0))])

H3 = form_make(CTX3, [((0, 1, 2), ONE3)])
H4 = form_make(CTX4, [((0, 1, 2), ONE4)])
R4_PI = mv_add(mv_frame(CTX4, (0, 1)), mv_frame(CTX4, (2, 3)))

SMALL = RelationBounds(
    mv_degree=2, jacobi_poly_degree=1, mixed_poly_degree=1, ternary_poly_degree=0
)


# ---------------------------------------------------------------------------
# construction


def test_constant_top_form_accepted():
    S = make_twisted(H3)
    assert S.ctx == CTX3 and S.H is H3
    assert m_cochain(S.ctx).arity == 2
    assert phi_cochain(S.H).arity == 3


def test_non_closed_three_form_rejected_with_residual():
    Hbad = form_make(CTX4, [((0, 1, 2), poly_var(4, 3))])  # x4 dx1^dx2^dx3
    with pytest.raises(NotClosedError) as exc:
        make_twisted(Hbad)
    dH = exc.value.d_h
    # d(x4 dx1^dx2^dx3) = dx4^dx1^dx2^dx3 = -dx1^dx2^dx3^dx4
    assert dH.terms == {(0, 1, 2, 3): {(0, 0, 0, 0): Fraction(-1)}}


def test_zero_form_accepted_with_zero_ternary_operation():
    S = make_twisted(form_zero(CTX3))
    assert phi_cochain(S.H, arity=3).arity == 3
    args = (mv_frame(CTX3, (0, 1)),) * 3
    assert mv_is_zero(phi_value(S.H, args))


def test_wrong_degree_rejected():
    two_form = form_make(CTX3, [((0, 1), ONE3)])
    with pytest.raises(ValueError):
        make_twisted(two_form)


# ---------------------------------------------------------------------------
# defect and predicate


def test_defect_vanishes_in_two_variables():
    S = make_twisted(form_zero(CTX2))
    for terms in [
        [((0, 1), poly_from_terms(2, [(1, (0, 0))]))],
        [((0, 1), poly_from_terms(2, [(1, (2, 1)), (Fraction(-1, 2), (0, 1))]))],
    ]:
        pi = mv_make(CTX2, terms)
        assert mv_is_zero(mc_defect(S, pi))


def test_defect_r3_decomposable_bivector():
    S = make_twisted(H3)
    assert mv_is_zero(mc_defect(S, mv_frame(CTX3, (0, 1))))


def test_defect_r4_frozen_value():
    S = make_twisted(H4)
    defect = mc_defect(S, R4_PI)
    assert mv_eq(defect, mv_scale(mv_frame(CTX4, (0, 1, 3)), -6))
    # [pi,pi] = 0 by constancy, so the defect is minus the ternary value
    assert mv_is_zero(schouten(R4_PI, R4_PI))


def test_defect_scaling_is_quadratic_cubic():
    S = make_twisted(H4)
    lam = 2
    lhs = mc_defect(S, mv_scale(R4_PI, lam))
    rhs = mv_sub(
        mv_scale(schouten(R4_PI, R4_PI), lam**2),
        mv_scale(phi_value(S.H, (R4_PI, R4_PI, R4_PI)), lam**3),
    )
    assert mv_eq(lhs, rhs)


def test_defect_requires_degree_two():
    S = make_twisted(H3)
    with pytest.raises(ValueError):
        mc_defect(S, mv_frame(CTX3, (0,)))


def test_twisted_poisson_oracle_triple():
    S3 = make_twisted(H3)
    assert is_twisted_poisson(S3, mv_frame(CTX3, (0, 1)))
    # y del_x ^ del_z
    pi = mv_make(CTX3, [((0, 2), poly_var(3, 1))])
    assert is_twisted_poisson(S3, pi)
    S4 = make_twisted(H4)
    assert not is_twisted_poisson(S4, R4_PI)


def test_untwisted_predicate_is_classical_poisson():
    S = make_twisted(form_zero(CTX3))
    good = mv_frame(CTX3, (0, 1))
    bad = mv_add(
        mv_frame(CTX3, (0, 1)), mv_make(CTX3, [((0, 2), poly_var(3, 0))])
    )  # del_x^del_y + x del_x^del_z: the brackets {x,y}=1, {x,z}=x fail Jacobi
    assert is_twisted_poisson(S, good) == mv_is_zero(schouten(good, good))
    assert is_twisted_poisson(S, bad) == mv_is_zero(schouten(bad, bad))
    assert not is_twisted_poisson(S, bad)


def test_every_small_bivector_twisted_poisson_in_two_variables():
    # degree reasons: no trivectors over two variables
    from gdcalc.polyvec import basis_multivectors

    S = make_twisted(form_zero(CTX2))
    for b in basis_multivectors(CTX2, 2, (2,)):
        assert is_twisted_poisson(S, b)


# ---------------------------------------------------------------------------
# relation checker


def test_relations_pass_for_closed_twist():
    S = make_twisted(H3)
    report = linfty_relations_check(m_cochain(S.ctx), phi_cochain(S.H, arity=3), SMALL)
    assert report.passed
    assert report.jacobi.passed and report.mixed.passed and report.ternary.passed
    assert report.jacobi.cases > 0


def test_relations_mixed_fails_for_non_closed_twist():
    Hbad = form_make(CTX4, [((0, 1, 2), poly_var(4, 3))])
    l3 = phi_cochain(Hbad)  # bypasses the closedness gate on purpose
    S = make_twisted(form_zero(CTX4))
    # the violation already shows on vector-field tuples
    tiny = RelationBounds(
        mv_degree=1, jacobi_poly_degree=0, mixed_poly_degree=1, ternary_poly_degree=0
    )
    report = linfty_relations_check(m_cochain(S.ctx), l3, tiny)
    assert not report.passed
    assert not report.mixed.passed
    args, value = report.mixed.witness
    assert not mv_is_zero(value)
    assert len(args) == 4


def test_relations_reduce_to_jacobi_when_ternary_vanishes():
    S = make_twisted(form_zero(CTX3))
    tiny = RelationBounds(
        mv_degree=2, jacobi_poly_degree=1, mixed_poly_degree=0, ternary_poly_degree=0
    )
    report = linfty_relations_check(m_cochain(S.ctx), phi_cochain(S.H, arity=3), tiny)
    assert report.passed


def test_cohomologous_twists_both_pass():
    # H and H + dB for a 2-form B of polynomial degree <= 1
    B = form_make(CTX3, [((0, 1), poly_var(3, 2)), ((1, 2), ONE3)])
    H2 = form_add(H3, d_form(B))
    S1 = make_twisted(H3)
    S2 = make_twisted(H2)
    tiny = RelationBounds(
        mv_degree=2, jacobi_poly_degree=0, mixed_poly_degree=0, ternary_poly_degree=0
    )
    for S in (S1, S2):
        assert linfty_relations_check(m_cochain(S.ctx), phi_cochain(S.H), tiny).passed
