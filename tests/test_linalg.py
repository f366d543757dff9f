from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _dense_gauss import solve_dense
from gdcalc._linalg import Factorisation


def matmul(rows, x):
    return [sum(Fraction(v) * xi for v, xi in zip(row, x)) for row in rows]


def test_unique_solution():
    res = solve_dense([[2, 0], [1, 3]], [4, 5])
    assert res.consistent
    assert res.x == [Fraction(2), Fraction(1)]
    assert res.rank == 2
    assert all(v == 0 for v in res.residual)


def test_free_variables_pinned_to_zero():
    # x + y = 1 has many solutions; the canonical one zeroes the free column
    res = solve_dense([[1, 1]], [1])
    assert res.consistent
    assert res.x == [Fraction(1), Fraction(0)]
    assert res.rank == 1


def test_inconsistent_reports_residual():
    res = solve_dense([[1, 0], [1, 0]], [1, 3])
    assert not res.consistent
    assert any(v != 0 for v in res.residual)
    assert res.residual == [1 - res.x[0], 3 - res.x[0]]


def test_zero_matrix_nonzero_rhs():
    res = solve_dense([[0, 0]], [5])
    assert not res.consistent
    assert res.x == [Fraction(0), Fraction(0)]
    assert res.rank == 0


def test_no_equations_needs_ncols():
    res = solve_dense([], [], ncols=3)
    assert res.consistent
    assert res.x == [Fraction(0)] * 3


def test_ragged_matrix_rejected():
    # every key of every column must be an equation key, a zero entry's too
    with pytest.raises(ValueError, match="not among the equation keys"):
        Factorisation([{0: 1, 1: 2}, {2: 1}], range(2))
    with pytest.raises(ValueError, match="not among the equation keys"):
        Factorisation([{"a": 1}, {"b": 0}], ["a"])
    with pytest.raises(ValueError, match="listed twice"):
        Factorisation([{"a": 1}], ["a", "a"])


small_frac = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_solvable_systems_are_solved(m, n, data):
    rows = [
        [data.draw(small_frac) for _ in range(n)] for _ in range(m)
    ]
    x0 = [data.draw(small_frac) for _ in range(n)]
    b = matmul(rows, x0)
    res = solve_dense(rows, b)
    assert res.consistent
    assert matmul(rows, res.x) == b
    assert all(v == 0 for v in res.residual)


def test_zero_pairs_are_skipped():
    f = Factorisation([{0: 0, 1: Fraction(0)}, {0: 2}], range(2))
    assert f.solve({0: 4, 1: 0}) == (True, [Fraction(0), Fraction(2)])
    assert f.rank == 1


@pytest.mark.parametrize("bad", [0.5, 0.0, "1/2", True])
def test_inexact_entries_are_refused(bad):
    # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        Factorisation([{0: bad}], range(1))
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        Factorisation([{0: 1}], range(1)).solve({0: bad})
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        Factorisation([{"a": bad}], ["a"])
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        Factorisation([{"a": 1}], ["a"]).solve({"a": bad})
    # a key outside the equations is checked too, not just skipped
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        Factorisation([{"a": 1}], ["a"]).solve({"b": bad})
