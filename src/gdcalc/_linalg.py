"""Sparse exact linear algebra over the rationals.

Small private helper used by the primitive search and the order-by-order
solver: Gauss–Jordan elimination with free variables pinned to zero and an
explicit consistency verdict.  A matrix is eliminated once, by
``Factorisation``, which records its row operations; each right-hand side
is then solved by replaying them.  ``gaussian_solve`` and ``solve_keyed``
factor their matrix and replay their one right-hand side, so the library
has a single elimination loop.

Input: callers describe a system by its columns, each a ``{equation key:
value}`` map of its nonzero coefficients, and the right-hand side as one
more such map (``flatten_terms`` makes one from a map of polynomials, one
equation per coefficient).  ``KeyedFactorisation`` sorts the columns' keys
into rows and factors them, for callers that solve several right-hand
sides against the same columns; ``solve_keyed`` sorts the keys of the
columns and of its right-hand side and hands ``gaussian_solve`` each row as
a list of ``(column, value)`` pairs, its nonzero entries only.  Every entry
and right-hand side must be an ``int`` or a ``Fraction``; anything else (a
float above all, whose binary value ``Fraction`` would take) is refused
with ``ValueError``.  The callers' largest systems have hundreds of rows
and columns and are well under 1% nonzero.

Integer rows: each row is scaled once, by the lcm of its denominators, to
ints, held as a ``{column: int}`` dict, and a column → row-id index records
which rows have a nonzero in each column, so pivot searches and
eliminations touch nonzeros only.  Clearing a pivot column from a row with
entry f, against the pivot row with entry p there, replaces the row by
s·row − t·(pivot row) with s/t = p/f in lowest terms and s > 0, and then
divides the row by the gcd g of its entries (by 1 when it cancels to
empty).  So the elimination makes no ``Fraction`` arithmetic, and every row
stays a nonzero multiple of the row a ``Fraction`` elimination would hold:
the same nonzero pattern, so the same pivots and rank.  Each step is
recorded as (pivot row, [(row, s, t, g)]).

Replay: a right-hand side is carried as one int numerator and one positive
int denominator per row, starting from the value times the row's scale.
Each recorded step maps row i's value β to (s·β − t·β_pivot)/g, reduced by
one gcd, so the carried values are the exact right-hand sides of the
factor's rows.  Rows past the last pivot must end with zero right-hand side
for the system to be consistent.  Each pivot row has a nonzero entry a in
its pivot column, none in the other pivot columns, and right-hand side β,
so the pivot's variable is ``β / a``.

Pivot rule: columns are taken left to right.  The pivot for a column is the
first row, in the current swapped order at or below position ``r``, with a
nonzero entry there; it is swapped into position ``r`` (but not scaled),
and the column is cleared from every other row, above and below.  The rule
reads only nonzero patterns, so a factorisation made without the
right-hand side selects the rows a joint elimination would.  For an
inconsistent system ``x`` solves the subsystem of the selected rows; callers
report that ``x`` and its residual, which is computed from the rows as
given.  The selection depends on every row's position, those of rows that
hold only a right-hand side included, so a near-solution is computed from
the full system (``solve_keyed``).  A consistent system's solution with free
variables at zero is unique, whichever rows are selected, so
``KeyedFactorisation`` answers it from the columns' rows alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "Factorisation",
    "KeyedFactorisation",
    "LinearSolution",
    "flatten_terms",
    "gaussian_solve",
    "solve_keyed",
]


@dataclass(frozen=True)
class LinearSolution:
    consistent: bool
    x: List[Fraction]
    rank: int
    residual: List[Fraction]


def flatten_terms(terms: Mapping[Hashable, Mapping[Hashable, Fraction]]) -> Dict[tuple, Fraction]:
    """{key: {monomial: value}} as one equation key (key, monomial) per value."""
    return {(k, mono): v for k, poly in terms.items() for mono, v in poly.items()}


def _check_exact(v, what: str) -> None:
    """Refuse anything but an int or a Fraction.

    ``Fraction()`` would take a float at its binary value (0.1 becomes
    3602879701896397/36028797018963968), so the solver refuses one.
    """
    if type(v) is not int and type(v) is not Fraction:
        raise ValueError(f"{what} {v!r} is not an int or a Fraction")


class Factorisation:
    """rows @ x = rhs eliminated once; ``solve`` replays it on a right-hand side.

    Rows are given as (column, value) pairs, as to ``gaussian_solve``;
    columns not named in a row are zero there.  Entries must be ints or
    Fractions, else ``ValueError``.  ``rank`` is the matrix rank.
    """

    __slots__ = ("m", "ncols", "rank", "_scale", "_steps", "_pivots", "_rest")

    def __init__(self, rows: Sequence[Sequence[Tuple[int, Fraction]]], ncols: int):
        m = len(rows)
        a: List[Dict[int, int]] = []
        scale: List[int] = []
        col_rows: List[Set[int]] = [set() for _ in range(ncols)]
        for i, row in enumerate(rows):
            entries = {}
            for j, v in row:
                _check_exact(v, "entry")
                if v:
                    if not 0 <= j < ncols:
                        raise ValueError(f"column {j} outside a {ncols}-column system")
                    entries[j] = v
            den = 1
            for v in entries.values():
                if den % v.denominator:
                    den = lcm(den, v.denominator)
            a.append({j: v.numerator * (den // v.denominator) for j, v in entries.items()})
            scale.append(den)
            for j in entries:
                col_rows[j].add(i)

        # order[pos] is the row id at position pos; where[id] is its position
        order = list(range(m))
        where = list(range(m))
        steps: List[Tuple[int, List[Tuple[int, int, int, int]]]] = []
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
            targets = col_rows[col]
            col_rows[col] = {p}
            ops = []
            for i in targets:
                if i == p:
                    continue
                # row ← (s·row − t·prow)/g with s/t = pv/f in lowest terms, s > 0
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
                g = gcd(*row.values()) if row else 1
                if g > 1:
                    for j in row:
                        row[j] //= g
                ops.append((i, s, t, g))
            steps.append((p, ops))
            pivots.append((col, p))
            r += 1

        self.m, self.ncols, self.rank = m, ncols, r
        self._scale, self._steps, self._rest = scale, steps, order[r:]
        self._pivots = [(col, p, a[p][col]) for col, p in pivots]

    def solve(self, rhs: Sequence[Fraction]) -> Tuple[bool, List[Fraction]]:
        """(consistent, x) for one right-hand side, one value per row.

        x has every free variable at zero; for an inconsistent system it
        solves the subsystem of the selected rows.  Values must be ints or
        Fractions, else ``ValueError``.
        """
        if len(rhs) != self.m:
            raise ValueError("matrix/right-hand-side size mismatch")
        b: List[int] = []
        d: List[int] = []
        for v, sc in zip(rhs, self._scale):
            _check_exact(v, "right-hand side")
            b.append(v.numerator * sc)
            d.append(v.denominator)
        for p, ops in self._steps:
            bp = b[p]
            if bp:
                dp = d[p]
                for i, s, t, g in ops:
                    bi, di = b[i], d[i]
                    if di == dp:
                        num, den = s * bi - t * bp, g * di
                    else:
                        num, den = s * bi * dp - t * bp * di, g * di * dp
                    h = gcd(num, den)
                    b[i], d[i] = num // h, den // h
            else:
                for i, s, t, g in ops:
                    bi = b[i]
                    if bi and (s != 1 or g != 1):
                        num, den = s * bi, g * d[i]
                        h = gcd(num, den)
                        b[i], d[i] = num // h, den // h
        consistent = not any(b[i] for i in self._rest)
        x = [Fraction(0)] * self.ncols
        for col, p, a in self._pivots:
            if b[p]:
                x[col] = Fraction(b[p], d[p] * a)
        return consistent, x


def _keyed_rows(
    columns: Sequence[Mapping[Hashable, Fraction]], index: Mapping[Hashable, int]
) -> List[List[Tuple[int, Fraction]]]:
    rows: List[List[Tuple[int, Fraction]]] = [[] for _ in index]
    for b, col in enumerate(columns):
        for key, v in col.items():
            rows[index[key]].append((b, v))
    return rows


class KeyedFactorisation:
    """The columns' system factored once, one equation per key of a column.

    The keys are sorted by ``row_key`` (natural order when None).  ``solve``
    answers consistent right-hand sides only: a consistent system's solution
    with free variables at zero does not depend on the row order or on rows
    that hold only a right-hand side.
    """

    __slots__ = ("rank", "_index", "_f")

    def __init__(self, columns: Sequence[Mapping[Hashable, Fraction]], row_key: Optional[Callable] = None):
        keys = sorted(set().union(*columns), key=row_key)
        self._index = {key: i for i, key in enumerate(keys)}
        self._f = Factorisation(_keyed_rows(columns, self._index), len(columns))
        self.rank = self._f.rank

    def solve(self, rhs: Mapping[Hashable, Fraction]) -> Optional[List[Fraction]]:
        """x with Σ_b x_b·columns[b] = rhs and free variables zero, or None if
        there is none (a nonzero value at a key of no column included)."""
        index = self._index
        b: List[Fraction] = [0] * len(index)
        for key, v in rhs.items():
            i = index.get(key)
            if i is not None:
                b[i] = v
            else:
                _check_exact(v, "right-hand side")
                if v:
                    return None
        consistent, x = self._f.solve(b)
        return x if consistent else None


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
    rows = _keyed_rows(columns, {key: i for i, key in enumerate(keys)})
    return gaussian_solve(rows, [rhs.get(key, 0) for key in keys], ncols=len(columns))


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
    if len(rhs) != len(rows):
        raise ValueError("matrix/right-hand-side size mismatch")
    f = Factorisation(rows, ncols)
    consistent, x = f.solve(rhs)
    nonzero = {j: v for j, v in enumerate(x) if v}
    residual: List[Fraction] = []
    for row, rv in zip(rows, rhs):
        # a column named twice counts with its last nonzero value, as in the factor
        entries = {j: v for j, v in row if v}
        for j, v in entries.items():
            if j in nonzero:
                rv -= v * nonzero[j]
        residual.append(rv if type(rv) is Fraction else Fraction(rv))
    return LinearSolution(consistent=consistent, x=x, rank=f.rank, residual=residual)
