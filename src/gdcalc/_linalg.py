"""Sparse exact linear algebra over the rationals.

Small private helper used by the primitive search and the order-by-order
solver: Gauss–Jordan elimination with free variables pinned to zero and an
explicit consistency verdict.

Input: callers describe a system by its columns, each a ``{equation key:
value}`` map of its nonzero coefficients, and the right-hand side as one
more such map (``flatten_terms`` makes one from a map of polynomials, one
equation per coefficient); ``solve_keyed`` sorts the equation keys into rows
and hands ``gaussian_solve`` each row as a list of ``(column, value)``
pairs, its nonzero entries only.  Every entry and right-hand side must be
an ``int`` or a ``Fraction``; anything else (a float above all, whose binary
value ``Fraction`` would take) is refused with ``ValueError``.  The callers'
largest systems have hundreds of rows and columns and are well under 1%
nonzero.

Integer rows: each row and its right-hand side are scaled once, by the lcm
of their denominators, to ints, held as a ``{column: int}`` dict, and a
column → row-id index records which rows have a nonzero in each column, so
pivot searches and eliminations touch nonzeros only.  Clearing a pivot
column from a row with entry f, against the pivot row with entry p there,
replaces the row by s·row − t·(pivot row) with s/t = p/f in lowest terms and
s > 0, and then divides the row and its right-hand side by the gcd of their
entries.  So the elimination makes no ``Fraction`` arithmetic, and every
row stays a nonzero multiple of the row a ``Fraction`` elimination would
hold: the same nonzero pattern, so the same pivots, rank and consistency
verdict.

Pivot rule: columns are taken left to right.  The pivot for a column is the
first row, in the current swapped order at or below position ``r``, with a
nonzero entry there; it is swapped into position ``r`` (but not scaled),
and the column is cleared from every other row, above and below.  Rows past
the last pivot must then have zero right-hand side for the system to be
consistent.  At the end each pivot row has a nonzero entry a in its pivot
column, none in the other pivot columns, and right-hand side b, so the
pivot's variable is read off as ``Fraction(b, a)``.  The rule fixes which
rows are selected, so for an inconsistent system ``x`` solves the subsystem
of the selected rows; callers report that ``x`` and its residual, which is
computed from the rows as given.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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


def _check_exact(v, what: str) -> None:
    """Refuse anything but an int or a Fraction.

    ``Fraction()`` would take a float at its binary value (0.1 becomes
    3602879701896397/36028797018963968), so the solver refuses one.
    """
    if type(v) is not int and type(v) is not Fraction:
        raise ValueError(f"{what} {v!r} is not an int or a Fraction")


def gaussian_solve(
    rows: Sequence[Sequence[Tuple[int, Fraction]]],
    rhs: Sequence[Fraction],
    ncols: int,
) -> LinearSolution:
    """Solve rows @ x = rhs exactly, each row given as (column, value) pairs.

    Columns not named in a row are zero there.  Entries and right-hand sides
    must be ints or Fractions, else ``ValueError``.  Returns the particular
    solution with every free variable set to zero.  When the system is
    inconsistent, ``consistent`` is False and ``x`` still holds the
    least-committal candidate obtained by ignoring the violated equations,
    with the nonzero residual ``rhs - rows @ x`` reported.
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("matrix/right-hand-side size mismatch")
    original: List[Dict[int, Fraction]] = []
    a: List[Dict[int, int]] = []
    b: List[int] = []
    col_rows: List[Set[int]] = [set() for _ in range(ncols)]
    for i, (row, rv) in enumerate(zip(rows, rhs)):
        entries = {}
        for j, v in row:
            _check_exact(v, "entry")
            if v:
                if not 0 <= j < ncols:
                    raise ValueError(f"column {j} outside a {ncols}-column system")
                entries[j] = v
        original.append(entries)
        _check_exact(rv, "right-hand side")
        den = rv.denominator
        for v in entries.values():
            if den % v.denominator:
                den = lcm(den, v.denominator)
        a.append({j: v.numerator * (den // v.denominator) for j, v in entries.items()})
        b.append(rv.numerator * (den // rv.denominator))
        for j in entries:
            col_rows[j].add(i)

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

        prow = a[p]
        pv = prow[col]
        rest = [(j, v) for j, v in prow.items() if j != col]
        bp = b[p]
        targets = col_rows[col]
        col_rows[col] = {p}
        for i in targets:
            if i == p:
                continue
            # row ← s·row − t·prow with s/t = pv/f in lowest terms, s > 0
            row = a[i]
            f = row.pop(col)
            g = gcd(pv, f)
            if pv < 0:
                g = -g
            s, t = pv // g, f // g
            if s != 1:
                for j in row:
                    row[j] *= s
            for j, v in rest:
                w = row.get(j)
                if w is None:
                    row[j] = -t * v
                    col_rows[j].add(i)
                else:
                    w -= t * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                        col_rows[j].discard(i)
            bi = s * b[i] - t * bp
            g = gcd(bi, *row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
                bi //= g
            b[i] = bi
        pivots.append((col, p))
        r += 1

    consistent = all(b[order[pos]] == 0 for pos in range(r, m))
    x = [Fraction(0)] * ncols
    nonzero: Dict[int, Fraction] = {}
    for col, p in pivots:
        if b[p]:
            x[col] = nonzero[col] = Fraction(b[p], a[p][col])

    residual: List[Fraction] = []
    for entries, rv in zip(original, rhs):
        for j, v in entries.items():
            if j in nonzero:
                rv -= v * nonzero[j]
        residual.append(rv if type(rv) is Fraction else Fraction(rv))
    return LinearSolution(consistent=consistent, x=x, rank=r, residual=residual)
