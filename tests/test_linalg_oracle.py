"""The sparse ``Factorisation`` against the dense reference oracle.

Every field must agree, types included: ``consistent``, ``rank``, the
particular solution ``x`` (also for inconsistent systems, where it solves the
subsystem of the rows the pivot rule selected) and the residual, which the
oracle computes from the library's ``x``.
"""
from fractions import Fraction
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from _dense_gauss import dense_gaussian_solve, dense_keyed_solve, solve_dense
from gdcalc._linalg import Factorisation


def assert_same(rows, rhs, ncols=None):
    got = solve_dense(rows, rhs, ncols)
    want = dense_gaussian_solve(rows, rhs, ncols)
    assert got.consistent == want.consistent
    assert got.rank == want.rank
    for name in ("x", "residual"):
        g, w = getattr(got, name), getattr(want, name)
        assert g == w, name
        assert [type(v) for v in g] == [type(v) for v in w], name
    return got


# mostly zeros, as in the systems the callers build; zeros come as the int 0
# and as Fraction(0), and the dense-to-columns adapter leaves both out
entry = st.one_of(
    st.just(0), st.just(0), st.just(Fraction(0)),
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7), st.data())
@settings(max_examples=150, deadline=None)
def test_random_sparse_systems(m, n, data):
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    rhs = [data.draw(entry) for _ in range(m)]
    assert_same(rows, rhs)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_rank_deficient_systems(k, n, extra, perturb, data):
    """Rows that are combinations of other rows, zero rows, shuffled in."""
    base = [[data.draw(entry) for _ in range(n)] for _ in range(k)]
    x0 = [data.draw(entry) for _ in range(n)]
    base_rhs = [sum(v * xj for v, xj in zip(row, x0)) for row in base]
    rows, rhs = [list(r) for r in base], list(base_rhs)
    for _ in range(extra):
        coeffs = [data.draw(st.integers(min_value=-2, max_value=2)) for _ in range(k)]
        rows.append([sum(c * r[j] for c, r in zip(coeffs, base)) for j in range(n)])
        rhs.append(sum(c * v for c, v in zip(coeffs, base_rhs)))
    if data.draw(st.booleans()):
        rows.append([0] * n)
        rhs.append(0)
    order = data.draw(st.permutations(range(len(rows))))
    rows, rhs = [rows[i] for i in order], [rhs[i] for i in order]
    if perturb:
        i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        rhs[i] += data.draw(st.integers(min_value=1, max_value=3))
    res = assert_same(rows, rhs)
    if not perturb:
        assert res.consistent


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=100, deadline=None)
def test_inconsistent_systems(m, n, data):
    """Duplicate a row with a different right-hand side: never solvable."""
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    rhs = [data.draw(entry) for _ in range(m)]
    i = data.draw(st.integers(min_value=0, max_value=m - 1))
    rows.append(list(rows[i]))
    rhs.append(rhs[i] + data.draw(st.integers(min_value=1, max_value=3)))
    res = assert_same(rows, rhs)
    assert not res.consistent
    assert any(v != 0 for v in res.residual)


def test_zero_rows_and_empty_systems():
    assert_same([], [], ncols=0)
    assert_same([], [], ncols=4)
    assert_same([[0, 0, 0]], [0])
    assert_same([[0, 0, 0], [Fraction(0)] * 3], [1, Fraction(-2, 3)])
    assert_same([[0, 0], [1, 2], [0, 0]], [3, 4, 0])


def test_seeded_larger_sparse_systems():
    """Sizes and densities closer to the callers' systems, several pivot swaps deep."""
    rng = random.Random(20260)
    vals = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]
    inconsistent = 0
    for _ in range(60):
        m, n = rng.randint(1, 40), rng.randint(1, 40)
        density = rng.choice([0.03, 0.08, 0.2])
        rows = [[rng.choice(vals) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
        x0 = [rng.choice(vals) if rng.random() < 0.5 else 0 for _ in range(n)]
        rhs = [sum(v * xj for v, xj in zip(row, x0)) for row in rows]
        if rng.random() < 0.5:
            # copies of rows keep the rank below m; a shifted copy breaks consistency
            for _ in range(rng.randint(1, 5)):
                i, at = rng.randrange(len(rows)), rng.randrange(len(rows) + 1)
                rows.insert(at, list(rows[i]))
                rhs.insert(at, rhs[i])
            j = rng.randrange(len(rhs))
            rhs[j] += rng.choice(vals)
        inconsistent += not assert_same(rows, rhs).consistent
    assert inconsistent > 0


def test_seeded_rational_pivots():
    """No entry is ±1, so every elimination step cross-multiplies two rows and
    the common factors that it leaves behind are divided out."""
    rng = random.Random(20261)
    vals = [2, -3, 4, 6, -9, Fraction(2, 3), Fraction(-5, 4), Fraction(7, 6), Fraction(3, 10)]
    fractional = inconsistent = 0
    for _ in range(40):
        m, n = rng.randint(2, 18), rng.randint(2, 18)
        density = rng.choice([0.2, 0.4, 0.7])
        rows = [[rng.choice(vals) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
        x0 = [rng.choice(vals) if rng.random() < 0.6 else 0 for _ in range(n)]
        rhs = [sum(v * xj for v, xj in zip(row, x0)) for row in rows]
        if rng.random() < 0.4:
            i = rng.randrange(m)
            rows.append([2 * v for v in rows[i]])
            rhs.append(2 * rhs[i] + rng.choice(vals))
        res = assert_same(rows, rhs)
        fractional += any(v.denominator > 1 for v in res.x)
        inconsistent += not res.consistent
    assert fractional > 0 and inconsistent > 0


@given(st.integers(min_value=0, max_value=6), st.data())
@settings(max_examples=100, deadline=None)
def test_keyed_columns_match_dense_assembly(ncols, data):
    """Keyed columns with the keys in row_key order are the dense system with
    one row per key."""
    keys = st.tuples(st.integers(0, 3), st.integers(0, 3))
    nonzero = st.one_of(
        st.sampled_from([1, -1, 2, -3]),
        st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    )
    columns = [data.draw(st.dictionaries(keys, nonzero, max_size=5)) for _ in range(ncols)]
    rhs = data.draw(st.dictionaries(keys, nonzero, max_size=4))
    row_key = data.draw(st.sampled_from([None, lambda k: (k[1], -k[0])]))
    f = Factorisation(columns, sorted(set(rhs).union(*columns), key=row_key))
    consistent, x = f.solve(rhs)
    want = dense_keyed_solve(columns, rhs, row_key)
    assert (consistent, x, f.rank) == (want.consistent, want.x, want.rank)
    assert [type(v) for v in x] == [type(v) for v in want.x]
