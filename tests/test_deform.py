"""Oracle tests for truncated deformation series, the solver, and gauge flows."""
from __future__ import annotations

import time
from fractions import Fraction

import pytest

from gdcalc.exactcore import VarContext, poly_from_terms, poly_var
from gdcalc.deform import (
    ArtinRing,
    ArtinSeries,
    GaugeParam,
    gauge_equivalent,
    gauge_flow,
    defect_series,
    mc_solve,
    series_eq,
    series_make,
)
from gdcalc.polyvec import (
    form_make,
    form_zero,
    mv_add,
    mv_eq,
    mv_frame,
    mv_is_zero,
    mv_make,
    mv_scale,
    schouten,
)
from gdcalc.twistcheck import make_twisted, phi_value

CTX2 = VarContext(("x", "y"))
CTX3 = VarContext(("x", "y", "z"))
CTX4 = VarContext(("x1", "x2", "x3", "x4"))

ONE3 = poly_from_terms(3, [(1, (0, 0, 0))])
ONE4 = poly_from_terms(4, [(1, (0, 0, 0, 0))])

S2 = make_twisted(form_zero(CTX2))
S3 = make_twisted(form_make(CTX3, [((0, 1, 2), ONE3)]))
S4 = make_twisted(form_make(CTX4, [((0, 1, 2), ONE4)]))

PI1_R4 = mv_add(mv_frame(CTX4, (0, 1)), mv_frame(CTX4, (2, 3)))


# ---------------------------------------------------------------------------
# containers


def test_ring_requires_positive_truncation():
    with pytest.raises(ValueError):
        ArtinRing(0)


def test_series_rejects_order_zero_and_beyond_truncation():
    ring = ArtinRing(2)
    with pytest.raises(ValueError):
        series_make(ring, {0: mv_frame(CTX2, (0, 1))})
    with pytest.raises(ValueError):
        series_make(ring, {3: mv_frame(CTX2, (0, 1))})


def test_series_drops_zero_coefficients():
    ring = ArtinRing(3)
    s = series_make(ring, {1: mv_frame(CTX2, (0, 1)), 2: mv_scale(mv_frame(CTX2, (0, 1)), 0)})
    assert set(s.coeffs) == {1}


def test_gauge_param_requires_vector_fields():
    ring = ArtinRing(2)
    with pytest.raises(ValueError):
        GaugeParam(ring, {1: mv_frame(CTX2, (0, 1))})
    GaugeParam(ring, {1: mv_frame(CTX2, (0,))})  # fine


# ---------------------------------------------------------------------------
# the defect series


def test_defect_zero_for_constant_poisson():
    ring = ArtinRing(4)
    pi = series_make(ring, {1: mv_frame(CTX2, (0, 1))})
    d = defect_series(S2, pi)
    assert set(d) == {1, 2, 3, 4}
    assert all(mv_is_zero(v) for v in d.values())


def test_defect_zero_in_two_variables_for_any_series():
    ring = ArtinRing(3)
    pi = series_make(
        ring,
        {
            1: mv_make(CTX2, [((0, 1), poly_var(2, 0))]),
            2: mv_make(CTX2, [((0, 1), poly_from_terms(2, [(2, (1, 1))]))]),
            3: mv_frame(CTX2, (0, 1)),
        },
    )
    d = defect_series(S2, pi)
    assert all(mv_is_zero(v) for v in d.values())


def test_defect_r4_frozen_order_three():
    ring = ArtinRing(3)
    pi = series_make(ring, {1: PI1_R4})
    d = defect_series(S4, pi)
    assert mv_is_zero(d[1]) and mv_is_zero(d[2])
    assert mv_eq(d[3], mv_scale(mv_frame(CTX4, (0, 1, 3)), -6))


def test_defect_rejects_non_bivector_coefficients():
    ring = ArtinRing(2)
    pi = series_make(ring, {1: mv_frame(CTX3, (0,))})
    with pytest.raises(ValueError):
        defect_series(S3, pi)


def test_defect_cost_follows_the_series_not_the_truncation():
    """Only the orders the series holds are visited: an empty series at
    truncation 2000 gives 2000 zero orders in under 5 s."""
    t0 = time.perf_counter()
    d = defect_series(S3, series_make(ArtinRing(2000), {}))
    assert time.perf_counter() - t0 < 5
    assert list(d) == list(range(1, 2001))
    assert all(mv_is_zero(v) for v in d.values())


# ---------------------------------------------------------------------------
# the order-by-order solver


def test_solve_trivial_for_constant_poisson():
    rep = mc_solve(S2, mv_frame(CTX2, (0, 1)), 4, poly_degree=2)
    assert rep.status == "solved"
    assert set(rep.solution.coeffs) == {1}
    d = defect_series(S2, rep.solution)
    assert all(mv_is_zero(v) for v in d.values())


def test_solve_r4_order_two_with_linear_coefficients():
    rep = mc_solve(S4, PI1_R4, 2, poly_degree=1)
    assert rep.status == "solved"
    pi2 = rep.solution.coeffs[2]
    lhs = mv_scale(schouten(PI1_R4, pi2), 2)
    rhs = phi_value(S4.H, (PI1_R4, PI1_R4, PI1_R4))
    assert mv_eq(lhs, rhs)
    # frozen canonical output (first-nonzero pivot, free variables at zero)
    canonical = mv_make(
        CTX4, [((0, 1), poly_from_terms(4, [(-3, (0, 0, 1, 0))]))]
    )
    assert mv_eq(pi2, canonical)


def test_solve_r4_obstructed_at_constant_coefficients():
    rep = mc_solve(S4, PI1_R4, 2, poly_degree=0)
    assert rep.status == "obstructed"
    assert rep.order == 3
    # the reported residual is the order-3 defect at the best candidate:
    # constant unknowns bracket to zero, leaving -Phi(H)(pi1,pi1,pi1)
    assert mv_eq(rep.residual, mv_scale(mv_frame(CTX4, (0, 1, 3)), -6))
    assert rep.solution is None


def test_solve_refuses_negative_degree():
    # a negative bound searches nothing; it must not read as "obstructed"
    assert mc_solve(S4, PI1_R4, 2, poly_degree=1).status == "solved"
    with pytest.raises(ValueError):
        mc_solve(S4, PI1_R4, 2, poly_degree=-1)


def test_solve_n_equals_one_is_always_solved():
    bad = mv_add(
        mv_frame(CTX3, (0, 1)), mv_make(CTX3, [((0, 2), poly_var(3, 0))])
    )  # not Poisson
    rep = mc_solve(S3, bad, 1, poly_degree=1)
    assert rep.status == "solved"


def test_solve_obstructed_at_order_two_for_non_poisson_start():
    bad = mv_add(
        mv_frame(CTX3, (0, 1)), mv_make(CTX3, [((0, 2), poly_var(3, 0))])
    )
    rep = mc_solve(S3, bad, 2, poly_degree=2)
    assert rep.status == "obstructed"
    assert rep.order == 2
    assert mv_eq(rep.residual, schouten(bad, bad))


# ---------------------------------------------------------------------------
# gauge flow


def test_flow_with_zero_parameter_is_identity():
    ring = ArtinRing(3)
    g = series_make(ring, {1: mv_frame(CTX3, (0, 1)), 2: mv_frame(CTX3, (1, 2))})
    out = gauge_flow(S3, g, GaugeParam(ring, {}))
    assert series_eq(out, g)


def test_flow_fixes_origin():
    ring = ArtinRing(3)
    xi = GaugeParam(ring, {1: mv_make(CTX3, [((0,), poly_var(3, 2))])})
    out = gauge_flow(S3, series_make(ring, {}), xi)
    assert not out.coeffs


def test_flow_frozen_second_order_coefficient():
    ring = ArtinRing(2)
    g = series_make(ring, {1: mv_frame(CTX2, (0, 1))})
    xi = GaugeParam(ring, {1: mv_make(CTX2, [((0,), poly_var(2, 0))])})  # t·x del_x
    out = gauge_flow(S2, g, xi)
    assert mv_eq(out.coeffs[1], mv_frame(CTX2, (0, 1)))
    assert mv_eq(out.coeffs[2], mv_frame(CTX2, (0, 1)))  # = -[x del_x, del_x^del_y]


def test_flow_order_k_linear_part_is_minus_bracket_with_leading_term():
    ring = ArtinRing(3)
    g1 = mv_frame(CTX3, (0, 1))
    g = series_make(ring, {1: g1})
    for m in (2, 3):
        v = mv_make(CTX3, [((2,), poly_var(3, 0))])  # x del_z
        xi = GaugeParam(ring, {m - 1: v})
        out = gauge_flow(S3, g, xi)
        got = out.coeffs.get(m, mv_scale(g1, 0))
        assert mv_eq(got, mv_scale(schouten(v, g1), -1))


def test_flow_preserves_solutions_of_the_twisted_equation():
    # exercises the cubic term: dz-contractions against xi = t·x del_z are nonzero
    ring = ArtinRing(3)
    g = series_make(ring, {1: mv_frame(CTX3, (0, 1))})
    assert all(mv_is_zero(v) for v in defect_series(S3, g).values())
    for xi in [
        GaugeParam(ring, {1: mv_make(CTX3, [((2,), poly_var(3, 0))])}),
        GaugeParam(
            ring,
            {
                1: mv_make(CTX3, [((2,), poly_var(3, 0))]),
                2: mv_make(CTX3, [((0,), poly_var(3, 1))]),
            },
        ),
    ]:
        out = gauge_flow(S3, g, xi)
        d = defect_series(S3, out)
        assert all(mv_is_zero(v) for v in d.values())


# ---------------------------------------------------------------------------
# gauge equivalence


def test_equivalent_to_itself_with_zero_witness():
    ring = ArtinRing(2)
    g = series_make(ring, {1: mv_frame(CTX2, (0, 1))})
    rep = gauge_equivalent(S2, g, g, poly_degree=1)
    assert rep.equivalent
    assert not rep.witness.coeffs


def test_round_trip_recovers_equivalence():
    ring = ArtinRing(3)
    g1 = series_make(ring, {1: mv_frame(CTX3, (0, 1))})
    xi0 = GaugeParam(
        ring,
        {
            1: mv_make(CTX3, [((2,), poly_var(3, 0))]),
            2: mv_make(CTX3, [((0,), poly_var(3, 1))]),
        },
    )
    g2 = gauge_flow(S3, g1, xi0)
    rep = gauge_equivalent(S3, g1, g2, poly_degree=1)
    assert rep.equivalent
    assert series_eq(gauge_flow(S3, g1, rep.witness), g2)


def test_scaled_series_not_equivalent():
    # first-order coefficients never move under the flow, so t·pi and 2t·pi
    # are inequivalent regardless of bounds
    ring = ArtinRing(2)
    g1 = series_make(ring, {1: mv_frame(CTX2, (0, 1))})
    g2 = series_make(ring, {1: mv_scale(mv_frame(CTX2, (0, 1)), 2)})
    rep = gauge_equivalent(S2, g1, g2, poly_degree=2)
    assert not rep.equivalent
    assert rep.witness is None


def test_equivalence_refuses_negative_degree():
    ring = ArtinRing(2)
    g = series_make(ring, {1: mv_frame(CTX2, (0, 1))})
    with pytest.raises(ValueError):
        gauge_equivalent(S2, g, g, poly_degree=-1)


def test_equivalence_requires_solutions():
    ring = ArtinRing(2)
    bad = series_make(
        ring,
        {1: mv_add(mv_frame(CTX3, (0, 1)), mv_make(CTX3, [((0, 2), poly_var(3, 0))]))},
    )
    good = series_make(ring, {1: mv_frame(CTX3, (0, 1))})
    with pytest.raises(ValueError):
        gauge_equivalent(S3, bad, good, poly_degree=1)
