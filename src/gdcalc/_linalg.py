"""Sparse exact linear algebra over the rationals.

Small private helper used by the primitive search and the order-by-order
solver: Gauss–Jordan elimination with free variables pinned to zero and an
explicit consistency verdict.

Representation: each row is a ``{column: Fraction}`` dict holding only its
nonzero entries, and a column → row-id index records which rows have a
nonzero in each column, so pivot searches and eliminations touch nonzeros
only.  The callers' largest systems have hundreds of rows and columns and
are well under 1% nonzero.

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
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["LinearSolution", "gaussian_solve"]


@dataclass(frozen=True)
class LinearSolution:
    consistent: bool
    x: List[Fraction]
    rank: int
    residual: List[Fraction]


def gaussian_solve(
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
    Zero entries may be given as the int ``0``, which is cheaper to skip.
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("matrix/right-hand-side size mismatch")
    if ncols is None:
        ncols = len(rows[0]) if m else 0
    original: List[Dict[int, Fraction]] = []
    col_rows: List[Set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        entries = {j: Fraction(v) for j, v in enumerate(row) if v}
        original.append(entries)
        for j in entries:
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
