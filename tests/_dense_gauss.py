"""Reference oracle: the dense Fraction Gauss–Jordan that ``_linalg`` used to run.

Kept verbatim, bar the name, three skips of zero entries that change no
value or type and the residual's move into ``_residual``, so the sparse
``Factorisation`` can be checked field for field against it, the
inconsistent-case ``x`` included; it has the same pivot rule.  Test-only;
the library has a single elimination path.  ``solve_dense`` feeds a dense
test case to the library, one equation key per row, and
``dense_keyed_solve`` assembles a keyed system for the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, List, Mapping, Optional, Sequence

from gdcalc._linalg import Factorisation

ZERO = Fraction(0)


@dataclass(frozen=True)
class LinearSolution:
    consistent: bool
    x: List[Fraction]
    rank: int
    residual: List[Fraction]


def _residual(rows, rhs, x) -> List[Fraction]:
    """rhs − rows @ x, each value a Fraction."""
    ncols = len(x)
    return [
        rv - sum((rw[j] * x[j] for j in range(ncols) if x[j] != 0), Fraction(0))
        for rw, rv in zip(rows, rhs)
    ]


def dense_factorisation(rows: Sequence[Sequence[Fraction]], ncols: Optional[int] = None) -> Factorisation:
    """The library's factorisation of a dense matrix, row i the equation key i.

    Every row stays a row, zero rows included, so they still move the pivot
    choices.  ``ncols`` defaults to the first row's length.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]
    return Factorisation(columns, range(len(rows)))


def solve_dense(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    ncols: Optional[int] = None,
) -> LinearSolution:
    """The library solver on a dense system; the residual is the oracle's, from the library's x."""
    f = dense_factorisation(rows, ncols)
    consistent, x = f.solve(dict(enumerate(rhs)))
    return LinearSolution(consistent=consistent, x=x, rank=f.rank, residual=_residual(rows, rhs, x))


def dense_keyed_solve(
    columns: Sequence[Mapping[Hashable, Fraction]],
    rhs: Mapping[Hashable, Fraction],
    row_key: Optional[Callable] = None,
) -> LinearSolution:
    """Σ_b x_b·columns[b] = rhs by the oracle, one row per key of the columns
    and of rhs, sorted by ``row_key`` (natural order when None)."""
    keys = sorted(set(rhs).union(*columns), key=row_key)
    rows = [[col.get(k, 0) for col in columns] for k in keys]
    return dense_gaussian_solve(rows, [rhs.get(k, 0) for k in keys], len(columns))


def dense_gaussian_solve(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    ncols: Optional[int] = None,
) -> LinearSolution:
    """Solve rows @ x = rhs exactly.

    Returns the particular solution with every free variable set to zero.
    When the system is inconsistent, ``consistent`` is False and ``x`` still
    holds the least-committal candidate obtained by ignoring the violated
    equations, with the nonzero residual ``rhs - rows @ x`` reported.
    ``ncols`` only needs to be passed when the system has no equations.
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("matrix/right-hand-side size mismatch")
    a = [[Fraction(v) if v else ZERO for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    if ncols is None:
        ncols = len(a[0]) if m else 0
    for row in a:
        if len(row) != ncols:
            raise ValueError("ragged matrix")

    pivot_cols: List[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        b[r], b[pivot] = b[pivot], b[r]
        inv = 1 / a[r][col]
        a[r] = [v * inv if v else v for v in a[r]]
        b[r] = b[r] * inv
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [vi - f * vr if vr else vi for vi, vr in zip(a[i], a[r])]
                b[i] = b[i] - f * b[r]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break

    consistent = all(b[i] == 0 for i in range(r, m))
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivot_cols):
        x[col] = b[i]

    return LinearSolution(consistent=consistent, x=x, rank=r, residual=_residual(rows, rhs, x))
