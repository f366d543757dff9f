"""The Hochschild engine against the term-by-term reference in ``_ref_hochschild``.

The library validates each input operator once and sums terms in place; the
reference re-validates and re-copies every produced term.  Both must give
equal ``terms`` with ``Fraction`` coefficients and no stored zeros, on
operators at n=1-3 with arity 0-3, slot orders and coefficient degrees up to
2, one to four terms, and alternations of fields (coefficients 1/k!).  The
coefficient denominators 1, 2, 3, 5, 6 and 7 make a call's common
denominator run well past 6, and meet the k! of the alternations.

Operators pass between operations in their int form (numerators over a
denominator that need not be the least); the chained cases feed outputs
into further operations and read every coefficient back.  The seeded cases
at n=4 and n=6 put slot orders up to 3 into every packed field of the
library's keys.
"""
import itertools
import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import _ref_hochschild as ref
from gdcalc import hochschild as hs
from gdcalc.exactcore import VarContext, monomials_upto, poly_from_terms, poly_scale
from gdcalc.polyvec import mv_make

CTXS = {n: VarContext(tuple(f"x{i + 1}" for i in range(n))) for n in (1, 2, 3)}
MONOS = {n: list(monomials_upto(n, 2)) for n in CTXS}
COEFFS = [Fraction(a, d) for a in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3, 5, 6, 7)]


def assert_same(got, want):
    assert (got.ctx, got.arity) == (want.ctx, want.arity)
    assert got.terms == want.terms
    for p in got.terms.values():
        assert p
        assert all(type(c) is Fraction and c for c in p.values())


def make_operator(pick, n, arity):
    """An operator of the given shape; ``pick(seq)`` chooses one element.

    One time in four, when the arity allows it, the operator is the
    alternation of a field, checked against the reference on the way.
    """
    ctx = CTXS[n]
    if 1 <= arity <= n and pick((0, 1, 2, 3)) == 0:
        frames = list(itertools.combinations(range(n), arity))
        pi = mv_make(ctx, [
            (pick(frames), poly_from_terms(n, [(pick(COEFFS), pick(MONOS[n]))]))
            for _ in range(pick((1, 2, 3)))
        ])
        if pi.terms:
            got = hs.hkr(pi)
            assert_same(got, ref.hkr(pi))
            return got
    terms = [
        (tuple(pick(MONOS[n]) for _ in range(arity)), poly_from_terms(n, [(pick(COEFFS), pick(MONOS[n]))]))
        for _ in range(pick((1, 2, 3, 4)))
    ]
    return hs.mdo_make(ctx, arity, terms)


def check_operations(A, B, C):
    """Every operation on (A, B), plus the sums with C, which has A's arity."""
    assert_same(hs.hoch_delta(A), ref.hoch_delta(A))
    assert_same(hs.cup(A, B), ref.cup(A, B))
    assert_same(hs.gerstenhaber(A, B), ref.gerstenhaber(A, B))
    assert_same(hs.mdo_add(A, C), ref.mdo_add(A, C))
    assert_same(hs.mdo_sub(A, C), ref.mdo_sub(A, C))
    if A.arity >= 1:
        assert_same(hs.brace(A, [B]), ref.brace(A, [B]))
    if A.arity >= 2:
        assert_same(hs.brace(A, [B, C]), ref.brace(A, [B, C]))
    if A.arity >= 3:  # only the first of the three blocks carries the block sign
        assert_same(hs.brace(A, [B, C, B]), ref.brace(A, [B, C, B]))


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_engine_matches_reference(n, arity_a, arity_b, data):
    pick = lambda seq: data.draw(st.sampled_from(seq))  # noqa: E731
    A = make_operator(pick, n, arity_a)
    B = make_operator(pick, n, arity_b)
    C = make_operator(pick, n, arity_a)
    check_operations(A, B, C)


def test_engine_matches_reference_seeded():
    rng = random.Random(20091)
    for n in (1, 2, 3):
        for arity_a, arity_b in itertools.product(range(4), repeat=2):
            for _ in range(3):
                A = make_operator(rng.choice, n, arity_a)
                B = make_operator(rng.choice, n, arity_b)
                C = make_operator(rng.choice, n, arity_a)
                check_operations(A, B, C)


def test_odd_arity_self_bracket_vanishes():
    """[A, A] = A{A} − A{A} for odd arity: every term cancels, nothing is stored."""
    rng = random.Random(20093)
    for n in (1, 2, 3):
        for arity in (1, 3):
            for _ in range(4):
                A = make_operator(rng.choice, n, arity)
                got = hs.gerstenhaber(A, A)
                assert (got.ctx, got.arity, got.terms) == (A.ctx, 2 * arity - 1, {})


def test_derive_multi_matches_repeated_partials():
    """One pass with falling factorials against one partial derivative at a time."""
    rng = random.Random(20092)
    for n in (1, 2, 3):
        betas = list(monomials_upto(n, 3))  # includes β = 0 and orders above the exponents
        for _ in range(40):
            terms = [(rng.choice(COEFFS), rng.choice(MONOS[n])) for _ in range(rng.randint(0, 4))]
            p = poly_from_terms(n, terms)
            beta = rng.choice(betas)
            for factor in (1, -1, rng.choice((-6, -2, 3, 12))):
                got = hs.poly_derive_multi(p, beta, factor)
                assert got == poly_scale(ref.poly_derive_multi(p, beta), factor)
                assert all(type(c) is Fraction and c for c in got.values())


def test_hkr_matches_reference_on_every_degree():
    rng = random.Random(7)
    for n in (1, 2, 3):
        for k in range(n + 1):
            frames = list(itertools.combinations(range(n), k))
            pi = mv_make(CTXS[n], [
                (f, poly_from_terms(n, [(rng.choice(COEFFS), rng.choice(MONOS[n]))])) for f in frames
            ])
            assert_same(hs.hkr(pi), ref.hkr(pi))


def assert_canonical(op):
    """Every coefficient read back is a reduced int or Fraction: no stored
    zero, no empty polynomial."""
    for p in op.terms.values():
        assert p
        for c in p.values():
            assert type(c) in (int, Fraction) and c
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def jacobi(m, A, B, C):
    """([A,[B,C]], [[A,B],C] ± [B,[A,C]], their difference) with module m's operations."""
    s = -1 if ((A.arity - 1) * (B.arity - 1)) % 2 else 1
    lhs = m.gerstenhaber(A, m.gerstenhaber(B, C))
    rhs = m.mdo_add(m.gerstenhaber(m.gerstenhaber(A, B), C), m.mdo_scale(m.gerstenhaber(B, m.gerstenhaber(A, C)), s))
    return lhs, rhs, m.mdo_sub(lhs, rhs)


def test_jacobi_chains_match_reference_seeded():
    """Five brackets, a scale, a sum and a difference, each fed the last one's output."""
    rng = random.Random(20094)
    for n in (1, 2, 3):
        for arities in itertools.product((1, 2), repeat=3):
            if n == 3 and sum(arities) > 4:
                continue
            A, B, C = (make_operator(rng.choice, n, k) for k in arities)
            got, want = jacobi(hs, A, B, C), jacobi(ref, A, B, C)
            for g, w in zip(got, want):
                assert_same(g, w)
                assert_canonical(g)
            assert hs.mdo_is_zero(got[2]) and got[2].terms == {}
            assert hs.mdo_eq(got[0], got[1]) and got[0] == got[1]


def test_scales_and_mixed_denominators_match_reference_seeded():
    """Scales by 1/6 and back by 6, sums across producers whose denominators
    differ (alternations carry 1/k!), and full cancellations."""
    rng = random.Random(20095)
    for n in (1, 2, 3):
        for arity in (1, 2):
            for _ in range(6):
                A, C = make_operator(rng.choice, n, arity), make_operator(rng.choice, n, arity)
                B = make_operator(rng.choice, n, 1)
                sixth = hs.mdo_scale(A, Fraction(1, 6))
                assert_same(sixth, ref.mdo_scale(A, Fraction(1, 6)))
                back = hs.mdo_scale(sixth, 6)
                assert_same(back, A)
                assert hs.mdo_eq(back, A) and back == A
                assert hs.mdo_eq(sixth, A) == (sixth.terms == A.terms)

                mixed = hs.mdo_add(hs.hoch_delta(A), hs.cup(C, B))
                assert_same(mixed, ref.mdo_add(ref.hoch_delta(A), ref.cup(C, B)))
                frames = list(itertools.combinations(range(n), arity))
                pi = mv_make(CTXS[n], [(f, poly_from_terms(n, [(rng.choice(COEFFS), rng.choice(MONOS[n]))])) for f in frames])
                alt = hs.hkr(pi) if arity <= n else C
                for got, want in (
                    (hs.mdo_add(alt, sixth), ref.mdo_add(ref.hkr(pi) if arity <= n else C, sixth)),
                    (hs.mdo_sub(hs.mdo_add(mixed, hs.hoch_delta(C)), hs.hoch_delta(C)), mixed),
                    (hs.mdo_sub(mixed, mixed), ref.mdo_zero(A.ctx, arity + 1)),
                    (hs.mdo_add(alt, hs.mdo_neg(alt)), ref.mdo_zero(A.ctx, arity)),
                    (hs.mdo_sub(hs.mdo_scale(sixth, 3), hs.mdo_scale(A, Fraction(1, 2))), ref.mdo_zero(A.ctx, arity)),
                ):
                    assert_same(got, want)
                    assert_canonical(got)


WIDE = {n: VarContext(tuple(f"x{i + 1}" for i in range(n))) for n in (4, 6)}


def make_wide_operator(rng, n, arity):
    """An operator at n = 4 or 6 with slot orders of total degree up to 3
    (so fields 0-3 in every packed position), or the alternation of a field
    one time in four."""
    ctx = WIDE[n]
    monos = list(monomials_upto(n, 2))
    if 1 <= arity and rng.randrange(4) == 0:
        frames = list(itertools.combinations(range(n), arity))
        pi = mv_make(ctx, [
            (rng.choice(frames), poly_from_terms(n, [(rng.choice(COEFFS), rng.choice(monos))]))
            for _ in range(rng.choice((1, 2)))
        ])
        if pi.terms:
            got = hs.hkr(pi)
            assert_same(got, ref.hkr(pi))
            return got
    orders = list(monomials_upto(n, 3))
    terms = [
        (tuple(rng.choice(orders) for _ in range(arity)), poly_from_terms(n, [(rng.choice(COEFFS), rng.choice(monos))]))
        for _ in range(rng.choice((1, 2)))
    ]
    return hs.mdo_make(ctx, arity, terms)


def test_engine_matches_reference_across_packed_fields_seeded():
    """n = 4 and 6, slot orders up to 3 and coefficients up to degree 2: δ,
    cup, bracket, braces, sums and alternations against the reference."""
    rng = random.Random(20096)
    for n in (4, 6):
        for arity_a, arity_b in itertools.product(range(4), repeat=2):
            if arity_a + arity_b > 5:  # 3 + 3 at n = 6 costs the reference minutes
                continue
            for _ in range(2):
                A = make_wide_operator(rng, n, arity_a)
                B = make_wide_operator(rng, n, arity_b)
                C = make_wide_operator(rng, n, arity_a)
                check_operations(A, B, C)
