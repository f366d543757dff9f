"""Oracle and property tests for the exact scalar/polynomial/sign core."""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gdcalc.exactcore import (
    VarContext,
    add_term_into,
    format_rat,
    grlex_key,
    koszul_sign,
    koszul_unshuffle_sign,
    monomials_upto,
    mul_into,
    parse_rat,
    partial_derive,
    poly_add,
    poly_const,
    poly_from_terms,
    poly_is_zero,
    poly_mul,
    poly_neg,
    poly_scale,
    poly_sub,
    poly_total_degree,
    poly_var,
    poly_zero,
)

# ---------------------------------------------------------------------------
# strategies

coeffs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


def polys(n: int, max_deg: int = 3, max_terms: int = 4):
    exps = st.tuples(*([st.integers(0, max_deg)] * n))
    term = st.tuples(coeffs, exps)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: poly_from_terms(n, [(c, e) for c, e in ts])
    )


# ---------------------------------------------------------------------------
# polynomial arithmetic oracles


def test_mul_distributes_over_sum():
    # (x + y) * x == x^2 + xy
    x = poly_var(2, 0)
    y = poly_var(2, 1)
    lhs = poly_mul(poly_add(x, y), x)
    rhs = poly_from_terms(2, [(1, (2, 0)), (1, (1, 1))])
    assert lhs == rhs


def test_mul_by_zero_annihilates():
    p = poly_from_terms(2, [(3, (1, 2)), (Fraction(-1, 2), (0, 1))])
    assert poly_mul(poly_zero(), p) == poly_zero()
    assert poly_is_zero(poly_mul(p, poly_zero()))


def test_mul_exact_rational_coefficients():
    # (1/2)x * (2/3)y == (1/3)xy, computed independently by Fraction
    half_x = poly_from_terms(2, [(Fraction(1, 2), (1, 0))])
    two_thirds_y = poly_from_terms(2, [(Fraction(2, 3), (0, 1))])
    expected_coeff = Fraction(1, 2) * Fraction(2, 3)
    assert expected_coeff == Fraction(1, 3)
    assert poly_mul(half_x, two_thirds_y) == {(1, 1): expected_coeff}


@pytest.mark.parametrize("c", [0.1, 0.0, "1/2", True])
def test_poly_from_terms_refuses_inexact_coefficients(c):
    """Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10."""
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        poly_from_terms(2, [(1, (1, 0)), (c, (0, 0))])


@pytest.mark.parametrize("c", [0.1, 0.0, "1/2"])
def test_poly_scale_refuses_inexact_scalars(c):
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        poly_scale({(0, 0): Fraction(1)}, c)
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        poly_scale({}, c)


def test_canonical_form_drops_zero_terms():
    p = poly_from_terms(1, [(1, (2,)), (-1, (2,))])
    assert p == {}
    q = poly_sub(poly_var(1, 0), poly_var(1, 0))
    assert poly_is_zero(q)


@given(polys(2), polys(2))
def test_add_commutes(p, q):
    assert poly_add(p, q) == poly_add(q, p)


@given(polys(2), polys(2))
def test_mul_commutes(p, q):
    assert poly_mul(p, q) == poly_mul(q, p)


@settings(max_examples=60)
@given(polys(2, 2, 3), polys(2, 2, 3), polys(2, 2, 3))
def test_mul_associates_and_distributes(p, q, r):
    assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))
    assert poly_mul(p, poly_add(q, r)) == poly_add(poly_mul(p, q), poly_mul(p, r))


@settings(max_examples=60)
@given(polys(2, 2, 3), polys(2, 2, 3), polys(2, 2, 3))
def test_mul_into_accumulates_in_place(acc, p, q):
    out = dict(acc)
    before = (dict(p), dict(q))
    mul_into(out, p, q)
    assert out == poly_add(acc, poly_mul(p, q))
    assert all(type(c) is Fraction and c for c in out.values())
    assert (p, q) == before


def test_mul_into_drops_what_cancels():
    x = poly_var(1, 0)
    out = {(1,): Fraction(-1), (0,): Fraction(5)}
    mul_into(out, x, poly_const(1, 1))
    assert out == {(0,): Fraction(5)}


UNIT_POLY = {(1, 0): Fraction(2, 3), (0, 2): Fraction(-5)}


@pytest.mark.parametrize("factor", [1, -1, Fraction(1), Fraction(-1)])
def test_scale_by_unit_copies(factor):
    p = dict(UNIT_POLY)
    got = poly_scale(p, factor)
    assert got == {e: factor * c for e, c in UNIT_POLY.items()}
    assert all(type(c) is Fraction and c for c in got.values())
    assert got is not p
    got[(9, 9)] = Fraction(1)
    assert p == UNIT_POLY


@pytest.mark.parametrize("factor", [1, -1, 3])
def test_add_term_into_by_unit_owns_its_maps(factor):
    p = dict(UNIT_POLY)
    out = {}
    add_term_into(out, "k", p, factor)  # a new key: a copy, never p itself
    assert out["k"] == {e: factor * c for e, c in UNIT_POLY.items()}
    assert out["k"] is not p
    out["k"][(9, 9)] = Fraction(1)
    assert p == UNIT_POLY
    add_term_into(out, "k", p, -factor)  # an existing key: what cancels is dropped
    assert out == {"k": {(9, 9): Fraction(1)}}
    add_term_into(out, "k", {(9, 9): Fraction(-1)}, 1)
    assert out == {}
    assert p == UNIT_POLY
    for f in (factor, -factor):
        add_term_into(out, "k", p, f)
        assert all(type(c) is Fraction and c for c in out.get("k", {}).values())
    assert out == {}


@given(polys(3))
def test_stored_coefficients_are_reduced_and_nonzero(p):
    for exps, c in p.items():
        assert c != 0
        assert isinstance(c, Fraction)
        assert c.denominator > 0  # Fraction invariant: reduced, positive denom
        assert len(exps) == 3


# ---------------------------------------------------------------------------
# partial derivatives


def test_partial_power_rule():
    # d/dx (x^2 y) = 2xy
    p = poly_from_terms(2, [(1, (2, 1))])
    assert partial_derive(p, 0) == {(1, 1): Fraction(2)}


def test_partial_of_constant_in_that_variable():
    x = poly_var(2, 0)
    assert partial_derive(x, 1) == {}


def test_partial_exact_rational():
    # d/dx ((1/3) x^3) = x^2
    p = poly_from_terms(1, [(Fraction(1, 3), (3,))])
    assert partial_derive(p, 0) == {(2,): Fraction(1)}


def test_partial_index_out_of_range():
    with pytest.raises(IndexError):
        partial_derive(poly_var(2, 0), 2)


@pytest.mark.parametrize("p", [poly_var(2, 0), poly_zero()], ids=["nonzero", "zero"])
def test_partial_negative_index_refused(p):
    with pytest.raises(IndexError):
        partial_derive(p, -1)


def test_partial_of_zero_polynomial_is_zero():
    # the zero polynomial carries no variable count, so only the sign of the index is checked
    assert partial_derive(poly_zero(), 0) == {}


@settings(max_examples=60)
@given(polys(2, 2, 3), polys(2, 2, 3))
def test_partial_leibniz(p, q):
    for i in range(2):
        lhs = partial_derive(poly_mul(p, q), i)
        rhs = poly_add(
            poly_mul(partial_derive(p, i), q), poly_mul(p, partial_derive(q, i))
        )
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Koszul sign engine


def test_koszul_two_odds_swap():
    assert koszul_sign([1, 1], [1, 0]) == -1


def test_koszul_identity_permutation():
    assert koszul_sign([3, 7, 2, 5], [0, 1, 2, 3]) == 1


def test_koszul_odd_even_swap_is_plus():
    assert koszul_sign([1, 2], [1, 0]) == 1


def _bubble_reference(degrees, perm):
    """Reference: realize perm by adjacent swaps, multiplying (-1)^{d d'}."""
    word = list(perm)
    sign = 1
    # selection sort via adjacent transpositions
    for i in range(len(word)):
        j = word.index(i)
        while j > i:
            a, b = word[j - 1], word[j]
            sign *= (-1) ** (degrees[a] * degrees[b])
            word[j - 1], word[j] = b, a
            j -= 1
    return sign


def test_koszul_agrees_with_adjacent_transposition_reference():
    for k in range(1, 5):
        for degs in itertools.product((0, 1, 2), repeat=k):
            for perm in itertools.permutations(range(k)):
                assert koszul_sign(degs, perm) == _bubble_reference(degs, perm), (
                    degs,
                    perm,
                )


def test_koszul_length_mismatch():
    with pytest.raises(ValueError):
        koszul_sign([1, 1], [0, 1, 2])


def test_unshuffle_sign_matches_full_permutation():
    degs = (1, 2, 1, 1, 3)
    for r in range(len(degs) + 1):
        for subset in itertools.combinations(range(len(degs)), r):
            rest = [i for i in range(len(degs)) if i not in subset]
            perm = list(subset) + rest
            assert koszul_unshuffle_sign(degs, subset) == koszul_sign(degs, perm)


# ---------------------------------------------------------------------------
# enumeration, ordering, formatting


def test_monomials_upto_counts():
    # |{e : |e| <= d}| == C(n+d, d)
    import math

    for n in (1, 2, 3):
        for d in (0, 1, 2, 3):
            ms = list(monomials_upto(n, d))
            assert len(ms) == math.comb(n + d, d)
            assert len(set(ms)) == len(ms)
            # grlex sorted
            assert ms == sorted(ms, key=grlex_key)


def test_var_context_unique_names():
    with pytest.raises(ValueError):
        VarContext(("x", "x"))
    ctx = VarContext(("x", "y"))
    assert ctx.n == 2


def test_rat_formatting_round_trip():
    vals = [Fraction(0), Fraction(3), Fraction(-3), Fraction(1, 2), Fraction(-7, 3)]
    for v in vals:
        assert parse_rat(format_rat(v)) == v
    assert format_rat(Fraction(5)) == "5"
    assert format_rat(Fraction(-1, 2)) == "-1/2"
    with pytest.raises(ValueError):
        parse_rat("1/0")
    with pytest.raises(ValueError):
        parse_rat("x")


def test_total_degree():
    assert poly_total_degree(poly_zero()) == -1
    assert poly_total_degree(poly_const(2, Fraction(5))) == 0
    p = poly_from_terms(2, [(1, (2, 1)), (1, (0, 1))])
    assert poly_total_degree(p) == 3


def test_scale_and_neg():
    p = poly_from_terms(2, [(2, (1, 0))])
    assert poly_scale(p, Fraction(1, 2)) == {(1, 0): Fraction(1)}
    assert poly_scale(p, Fraction(0)) == {}
    assert poly_neg(p) == {(1, 0): Fraction(-2)}
