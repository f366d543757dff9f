"""One factorisation replayed on several right-hand sides, against fresh solves.

``Factorisation`` eliminates a matrix once and solves each right-hand side
by replaying the recorded row operations.  Every replay must equal a fresh
factorisation of the same system and the dense oracle in ``_dense_gauss``,
field for field: the verdict, ``x`` with its types (also for inconsistent
systems) and the rank.  A factorisation of the columns' keys alone answers
the consistent right-hand sides of the system that also holds the
right-hand side's keys.  The primitive search factors one block and solves
each monomial against it; it must equal the fanned-out keyed system of
``_ref_hochschild.delta_primitive`` in ``found``, ``rank``, ``candidate``
and ``residual``.
"""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _ref_hochschild as ref
from _dense_gauss import dense_factorisation, dense_gaussian_solve, dense_keyed_solve, solve_dense
from gdcalc import hochschild as hs
from gdcalc._linalg import Factorisation
from gdcalc.exactcore import VarContext, monomials_upto


def assert_replays(rows, rhss):
    """Every right-hand side replayed on one factorisation of rows."""
    f = dense_factorisation(rows)
    verdicts = []
    for rhs in rhss:
        consistent, x = f.solve(dict(enumerate(rhs)))
        for want in (solve_dense(rows, rhs), dense_gaussian_solve(rows, rhs)):
            assert (consistent, f.rank) == (want.consistent, want.rank)
            assert x == want.x
            assert [type(v) for v in x] == [type(v) for v in want.x]
        verdicts.append(consistent)
    return verdicts


entry = st.one_of(
    st.just(0), st.just(0), st.just(Fraction(0)),
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_replays_match_fresh_solves(m, n, copies, nrhs, data):
    """Scaled copies of rows cancel to empty; their right-hand sides decide."""
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    for _ in range(copies):
        i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        c = data.draw(st.sampled_from([1, -2, Fraction(1, 3)]))
        rows.insert(data.draw(st.integers(min_value=0, max_value=len(rows))), [c * v for v in rows[i]])
    rhss = [[data.draw(entry) for _ in rows] for _ in range(nrhs)]
    assert_replays(rows, rhss)


def test_rows_that_cancel_to_empty():
    rows = [[1, 2, 0], [2, 4, 0], [0, 0, 0], [Fraction(1, 2), 1, 0], [0, 3, -1]]
    verdicts = assert_replays(rows, [
        [1, 2, 0, Fraction(1, 2), 5],  # the copies agree
        [1, 3, 0, Fraction(1, 2), 5],  # the second row disagrees
        [1, 2, 7, Fraction(1, 2), 5],  # the zero row holds a right-hand side
        [0, 0, 0, 0, 0],
    ])
    assert verdicts == [True, False, False, True]


def test_seeded_sparse_systems_with_several_right_hand_sides():
    """Sizes and densities closer to the callers' systems; each factorisation
    answers consistent and inconsistent right-hand sides in turn."""
    rng = random.Random(20262)
    vals = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]
    verdicts = []
    for _ in range(40):
        m, n = rng.randint(2, 30), rng.randint(1, 30)
        density = rng.choice([0.05, 0.1, 0.25])
        rows = [[rng.choice(vals) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
        for _ in range(rng.randint(0, 4)):
            i = rng.randrange(len(rows))
            rows.insert(rng.randrange(len(rows) + 1), [rng.choice(vals) * v for v in rows[i]])
        rhss = []
        for _ in range(rng.randint(1, 4)):
            x0 = [rng.choice(vals) if rng.random() < 0.5 else 0 for _ in range(n)]
            rhs = [sum(v * xj for v, xj in zip(row, x0)) for row in rows]
            if rng.random() < 0.5:
                rhs[rng.randrange(len(rhs))] += rng.choice(vals)
            rhss.append(rhs)
        verdicts += assert_replays(rows, rhss)
    assert True in verdicts and False in verdicts


def test_replay_refuses_inexact_right_hand_sides():
    f = Factorisation([{0: 1}], range(1))
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        f.solve({0: 0.5})
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        f.solve({1: 0.5})
    # a key outside the equations is a row that holds only a right-hand side
    assert f.solve({0: 1, 1: 2}) == (False, [Fraction(1)])
    assert f.solve({0: 1, 1: Fraction(0)}) == (True, [Fraction(1)])


@given(st.integers(min_value=0, max_value=6), st.data())
@settings(max_examples=100, deadline=None)
def test_keyed_factorisation_answers_consistent_systems(ncols, data):
    """The columns' keys alone give the verdict of the full system, and its x
    where it is consistent; keys of no column are rows of the full system
    that hold only a right-hand side."""
    keys = st.tuples(st.integers(0, 3), st.integers(0, 3))
    value = st.one_of(
        st.sampled_from([0, 1, -1, 2, -3]),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    columns = [
        data.draw(st.dictionaries(keys, value.filter(bool), max_size=5)) for _ in range(ncols)
    ]
    row_key = data.draw(st.sampled_from([None, lambda k: (k[1], -k[0])]))
    f = Factorisation(columns, sorted(set().union(*columns), key=row_key))
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        if columns and data.draw(st.booleans()):
            # a combination of the columns: always consistent
            x0 = [data.draw(value) for _ in columns]
            rhs = {}
            for c, col in zip(x0, columns):
                for k, v in col.items():
                    rhs[k] = rhs.get(k, 0) + c * v
        else:
            rhs = data.draw(st.dictionaries(keys, value, max_size=4))
        want = dense_keyed_solve(columns, rhs, row_key)
        assert f.rank == want.rank
        consistent, x = f.solve(rhs)
        assert consistent == want.consistent
        if consistent:
            assert x == want.x
            assert [type(v) for v in x] == [type(v) for v in want.x]


# ---------------------------------------------------------------------------
# the primitive search

CTXS = {n: VarContext(tuple(f"x{i + 1}" for i in range(n))) for n in (1, 2, 3)}
COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]


def assert_same_primitive(T, poly_degree, op_order):
    got = hs.delta_primitive(T, poly_degree=poly_degree, op_order=op_order)
    want = ref.delta_primitive(T, poly_degree=poly_degree, op_order=op_order)
    assert (got.found, got.rank) == (want.found, want.rank)
    assert got.candidate.terms == want.candidate.terms
    assert got.residual.terms == want.residual.terms
    assert (got.primitive is None) == (want.primitive is None)
    return got


def random_target(rng, n, arity, degree, order):
    """δ of a random operator of one arity less, plus a few stray terms
    that may leave the image or carry a monomial above the bounds."""
    monos = list(monomials_upto(n, degree))
    orders = list(monomials_upto(n, order))
    ctx = CTXS[n]
    terms = []
    if arity > 1 or rng.random() < 0.5:
        xi = hs.mdo_make(ctx, arity - 1, [
            (tuple(rng.choice(orders) for _ in range(arity - 1)), {rng.choice(monos): rng.choice(COEFFS)})
            for _ in range(rng.randint(1, 3))
        ])
        terms += [(o, p) for o, p in hs.hoch_delta(xi).terms.items()]
    stray = monos + [m for m in monomials_upto(n, degree + 1) if sum(m) > degree]
    for _ in range(rng.choice([0, 0, 1, 2])):
        terms.append((
            tuple(rng.choice(orders) for _ in range(arity)),
            {rng.choice(stray): rng.choice(COEFFS)},
        ))
    return hs.mdo_make(ctx, arity, terms)


def test_delta_primitive_matches_fanned_out_reference_seeded():
    rng = random.Random(18)
    found = {True: 0, False: 0}
    above = 0
    for case in range(80):
        n = 1 + case % 3
        arity = 1 + case % 4 if n < 3 else 1 + case % 3
        degree, order = rng.choice([(0, 1), (1, 1), (1, 2)] if n < 3 else [(0, 1), (1, 1)])
        T = random_target(rng, n, arity, degree, order)
        above += any(sum(m) > degree for p in T.terms.values() for m in p)
        found[assert_same_primitive(T, degree, order).found] += 1
    assert found[True] and found[False] > above > 0


def naive_per_block_candidate(T, poly_degree, op_order):
    """Each monomial's block solved as its own keyed system: a consistent
    answer, but not the near-solution of the whole system."""
    ctx = T.ctx
    zero = (0,) * ctx.n
    tuples = list(itertools.product(monomials_upto(ctx.n, op_order), repeat=T.arity - 1))
    images = []
    for orders in tuples:
        image = ref.hoch_delta(hs.MultiDiffOp(ctx, T.arity - 1, {orders: {zero: Fraction(1)}})).terms
        images.append({key: p[zero] for key, p in image.items()})
    acc = {}
    for mono in monomials_upto(ctx.n, poly_degree):
        rhs = {key: p[mono] for key, p in T.terms.items() if mono in p}
        for orders, x in zip(tuples, dense_keyed_solve(images, rhs).x):
            if x:
                acc.setdefault(orders, {})[mono] = x
    return hs.MultiDiffOp(ctx, T.arity - 1, acc)


def test_delta_primitive_pinned_near_solution():
    """Rows that hold only a right-hand side move the row choices of the
    whole system: here each block solved alone gives candidate 0, the whole
    system (1/2)·x2·∂2²⊗∂2²."""
    ctx = CTXS[2]
    T = hs.mdo_make(ctx, 3, [
        (((0, 2), (0, 1), (0, 1)), {(0, 1): 1}),
        (((0, 1), (0, 0), (1, 0)), {(0, 1): -1}),
    ])
    got = assert_same_primitive(T, 1, 2)
    assert not got.found and got.rank == 81
    assert got.candidate.terms == {((0, 2), (0, 2)): {(0, 1): Fraction(1, 2)}}
    assert naive_per_block_candidate(T, 1, 2).terms == {}
