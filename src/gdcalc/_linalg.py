"""Sparse exact linear algebra over the rationals.

Small private helper used by the primitive search and the order-by-order
solver: Gauss–Jordan elimination with free variables pinned to zero and an
explicit consistency verdict.

Input: callers describe a system by its columns, each a ``{equation key:
value}`` map of its nonzero coefficients, and the right-hand side as one
more such map (``flatten_terms`` makes one from a map of polynomials, one
equation per coefficient); ``solve_keyed`` sorts the equation keys into rows and hands
``gaussian_solve`` each row as a list of ``(column, value)`` pairs, its
nonzero entries only.  Internally each row is a ``{column: Fraction}`` dict
and a column → row-id index records which rows have a nonzero in each
column, so pivot searches and eliminations touch nonzeros only.  The
callers' largest systems have hundreds of rows and columns and are well
under 1% nonzero.

Pivot rule: columns are taken left to right.  The pivot for a column is the
first row, in the current swapped order at or below position ``r``, with a
nonzero entry there; it is swapped into position ``r``, scaled to 1, and the
column is cleared from every other row, above and below.  Rows past the last
pivot must then have zero right-hand side for the system to be consistent.
The rule fixes which rows are selected, so for an inconsistent system ``x``
solves the subsystem of the selected rows; callers report that ``x`` and its
residual.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = ["LinearSolution", "flatten_terms", "gaussian_solve", "solve_keyed"]


@dataclass(frozen=True)
class LinearSolution:
    consistent: bool
    x: List[Fraction]
    rank: int
    residual: List[Fraction]


def flatten_terms(terms: Mapping[Hashable, Mapping[Hashable, Fraction]]) -> Dict[tuple, Fraction]:
    """{key: {monomial: value}} as one equation key (key, monomial) per value."""
    return {(k, mono): v for k, poly in terms.items() for mono, v in poly.items()}


def solve_keyed(
    columns: Sequence[Mapping[Hashable, Fraction]],
    rhs: Mapping[Hashable, Fraction],
    row_key: Optional[Callable] = None,
) -> LinearSolution:
    """Solve Σ_b x_b·columns[b] = rhs, one equation per key.

    The equations are the keys of the columns and of ``rhs``, sorted by
    ``row_key`` (natural order when None); that order is the row order the
    pivot rule sees.
    """
    keys = sorted(set(rhs).union(*columns), key=row_key)
    index = {key: i for i, key in enumerate(keys)}
    rows: List[List[Tuple[int, Fraction]]] = [[] for _ in keys]
    for b, col in enumerate(columns):
        for key, v in col.items():
            rows[index[key]].append((b, v))
    return gaussian_solve(rows, [rhs.get(key, 0) for key in keys], ncols=len(columns))


def gaussian_solve(
    rows: Sequence[Sequence[Tuple[int, Fraction]]],
    rhs: Sequence[Fraction],
    ncols: int,
) -> LinearSolution:
    """Solve rows @ x = rhs exactly, each row given as (column, value) pairs.

    Columns not named in a row are zero there.  Returns the particular
    solution with every free variable set to zero.  When the system is
    inconsistent, ``consistent`` is False and ``x`` still holds the
    least-committal candidate obtained by ignoring the violated equations,
    with the nonzero residual ``rhs - rows @ x`` reported.
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("matrix/right-hand-side size mismatch")
    original: List[Dict[int, Fraction]] = []
    col_rows: List[Set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        entries = {j: Fraction(v) for j, v in row if v}
        original.append(entries)
        for j in entries:
            if not 0 <= j < ncols:
                raise ValueError(f"column {j} outside a {ncols}-column system")
            col_rows[j].add(i)
    a = [dict(entries) for entries in original]
    b = [Fraction(v) for v in rhs]

    # order[pos] is the row id at position pos; where[id] is its position
    order = list(range(m))
    where = list(range(m))
    pivots: List[Tuple[int, int]] = []  # (column, pivot row id)
    r = 0
    for col in range(ncols):
        if r == m:
            break
        live = [i for i in col_rows[col] if where[i] >= r]
        if not live:
            continue
        p = min(live, key=where.__getitem__)
        q, pos = order[r], where[p]
        order[r], order[pos] = p, q
        where[p], where[q] = r, pos

        inv = 1 / a[p][col]
        prow = {j: v * inv for j, v in a[p].items()}
        a[p] = prow
        bp = b[p] = b[p] * inv
        targets = col_rows[col]
        col_rows[col] = {p}
        for i in targets:
            if i == p:
                continue
            row = a[i]
            f = row[col]
            for j, v in prow.items():
                w = row.get(j)
                if w is None:
                    row[j] = -f * v
                    col_rows[j].add(i)
                else:
                    w -= f * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                        col_rows[j].discard(i)
            if bp:
                b[i] -= f * bp
        pivots.append((col, p))
        r += 1

    consistent = all(b[order[pos]] == 0 for pos in range(r, m))
    x = [Fraction(0)] * ncols
    nonzero: Dict[int, Fraction] = {}
    for col, p in pivots:
        x[col] = b[p]
        if b[p]:
            nonzero[col] = b[p]

    residual = [
        rv - sum((v * nonzero[j] for j, v in entries.items() if j in nonzero), Fraction(0))
        for entries, rv in zip(original, rhs)
    ]
    return LinearSolution(consistent=consistent, x=x, rank=r, residual=residual)
