"""Sparse exact linear algebra over the rationals.

Small private helper used by the primitive search and the order-by-order
solver: Gauss–Jordan elimination with free variables pinned to zero and an
explicit consistency verdict.  ``Factorisation(columns, keys)`` eliminates
a system once and records its row operations; ``solve`` answers each
right-hand side by replaying them.

Input: each column is a ``{equation key: value}`` map of its nonzero
coefficients, and ``keys`` lists the equations, one row each, in the order
the pivot rule sees them; it must hold every key of every column.  A
right-hand side is one more such map; a nonzero value at a key outside
``keys`` makes the system inconsistent.  Every entry and right-hand side
must be an ``int`` or a ``Fraction``; anything else (a float above all,
whose binary value ``Fraction`` would take) is refused with ``ValueError``.
The callers' largest systems have hundreds of rows and columns and are well
under 1% nonzero.

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
reads only nonzero patterns, so the right-hand side never changes the rows
it selects.  A consistent system's solution with free variables at zero is
unique, whichever rows are selected, so one factorisation of the columns'
keys answers every consistent right-hand side.  For an inconsistent system
``x`` solves the subsystem of the selected rows, and the selection depends
on every row's position, those of rows that hold only a right-hand side
included; a caller that reports such a near-solution factors the system
with the right-hand side's keys among ``keys``.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, List, Mapping, Sequence, Set, Tuple

__all__ = ["Factorisation"]


def _check_exact(v, what: str) -> None:
    """Refuse anything but an int or a Fraction.

    ``Fraction()`` would take a float at its binary value (0.1 becomes
    3602879701896397/36028797018963968), so the solver refuses one.
    """
    if type(v) is not int and type(v) is not Fraction:
        raise ValueError(f"{what} {v!r} is not an int or a Fraction")


class Factorisation:
    """Σ_b x_b·columns[b] = rhs eliminated once, one equation per key.

    ``keys`` is the row order; a column key outside it, or a key listed
    twice, is refused with ``ValueError``, as is an entry that is not an
    int or a Fraction.  ``rank`` is the matrix rank.
    """

    __slots__ = ("ncols", "rank", "_index", "_scale", "_steps", "_pivots", "_rest")

    def __init__(self, columns: Sequence[Mapping[Hashable, Fraction]], keys: Sequence[Hashable]):
        index = {key: i for i, key in enumerate(keys)}
        m, ncols = len(index), len(columns)
        if m != len(keys):
            raise ValueError("an equation key is listed twice")
        entries: List[Dict[int, Fraction]] = [{} for _ in range(m)]
        col_rows: List[Set[int]] = [set() for _ in range(ncols)]
        for j, col in enumerate(columns):
            for key, v in col.items():
                _check_exact(v, "entry")
                i = index.get(key)
                if i is None:
                    raise ValueError(f"column key {key!r} is not among the equation keys")
                if v:
                    entries[i][j] = v
                    col_rows[j].add(i)
        a: List[Dict[int, int]] = []
        scale: List[int] = []
        for row in entries:
            den = 1
            for v in row.values():
                if den % v.denominator:
                    den = lcm(den, v.denominator)
            a.append({j: v.numerator * (den // v.denominator) for j, v in row.items()})
            scale.append(den)

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

        self.ncols, self.rank, self._index = ncols, r, index
        self._scale, self._steps, self._rest = scale, steps, order[r:]
        self._pivots = [(col, p, a[p][col]) for col, p in pivots]

    def solve(self, rhs: Mapping[Hashable, Fraction]) -> Tuple[bool, List[Fraction]]:
        """(consistent, x) for one right-hand side, a ``{key: value}`` map.

        x has every free variable at zero; for an inconsistent system it
        solves the subsystem of the selected rows.  A nonzero value at a key
        outside ``keys`` makes the system inconsistent.  Values must be ints
        or Fractions, else ``ValueError``.
        """
        index, scale = self._index, self._scale
        b = [0] * len(scale)
        d = [1] * len(scale)
        consistent = True
        for key, v in rhs.items():
            _check_exact(v, "right-hand side")
            i = index.get(key)
            if i is not None:
                b[i] = v.numerator * scale[i]
                d[i] = v.denominator
            elif v:
                consistent = False
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
        consistent = consistent and not any(b[i] for i in self._rest)
        x = [Fraction(0)] * self.ncols
        for col, p, a in self._pivots:
            if b[p]:
                x[col] = Fraction(b[p], d[p] * a)
        return consistent, x
