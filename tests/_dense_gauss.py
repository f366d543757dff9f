"""Reference oracle: the dense Fraction Gauss–Jordan that ``_linalg`` used to run.

Kept verbatim (bar the name) so the sparse ``gaussian_solve`` can be checked
field for field against it, the inconsistent-case ``x`` included.  Test-only;
the library has a single elimination path.  ``solve_dense`` feeds a dense test
case to the library, which takes rows as ``(column, value)`` pairs.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from gdcalc._linalg import LinearSolution, gaussian_solve


def dense_to_pairs(rows: Sequence[Sequence[Fraction]]) -> List[List[tuple]]:
    """Each dense row as the (column, value) pairs of its nonzero entries."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in rows]


def solve_dense(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    ncols: Optional[int] = None,
) -> LinearSolution:
    """The library solver on a dense system; ``ncols`` defaults to the first row's length."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return gaussian_solve(dense_to_pairs(rows), rhs, ncols=ncols)


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
    a = [[Fraction(v) for v in row] for row in rows]
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
        a[r] = [v * inv for v in a[r]]
        b[r] = b[r] * inv
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
                b[i] = b[i] - f * b[r]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break

    consistent = all(b[i] == 0 for i in range(r, m))
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivot_cols):
        x[col] = b[i]

    residual = [
        rv - sum((rw[j] * x[j] for j in range(ncols) if x[j] != 0), Fraction(0))
        for rw, rv in zip(rows, rhs)
    ]
    return LinearSolution(consistent=consistent, x=x, rank=r, residual=residual)
