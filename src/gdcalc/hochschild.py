"""Multidifferential cochains on the polynomial algebra.

A k-ary cochain is a finite sum of terms c(x)·∂^{β₁}⊗…⊗∂^{β_k} acting on k
polynomial arguments.  The module provides the simplicial differential, the
insertion braces with their signs, the induced bracket and cup product, the
contraction by a function, the alternation map from multivector fields, and
an exact linear search for differential primitives.

All operations are symbolic on the term representation (the product rule is
expanded with multinomial coefficients of exponent multi-indices), so
operator identities are checked structurally, not on sample arguments.
Signs are documented in docs/sign-ledger.md.

An operator stores one coefficient form: int numerators over one positive
common denominator, which need not be the least.  Reading ``terms`` builds
the map {slot orders: coefficient polynomial} with reduced ``Fraction``
coefficients and no stored zeros, fresh on every read.  One routine,
``_int_form``, reads a caller's terms: it checks every term, those that
cancel included (its slot counts and multi-indices, the variable count of
each coefficient monomial, and that each coefficient is an ``int`` or a
``Fraction``), refusing a malformed one with ``ValueError``, and sums them
into int form.  ``MultiDiffOp(ctx, arity, terms)`` calls it strictly, so
an empty polynomial or a stored zero is refused too; ``mdo_make`` calls it
on any iterable of terms and drops what cancels.  Operators the kernels
compute are built unchecked by ``_op``, and no operator is checked again.

Inside, a term is keyed by its packed slot orders: one int per slot, each
variable's order in a field of ``_W`` = 8 bits, variable 0 in the most
significant field.  While every field stays below 2^8, packed ints add as
the multi-indices do (so a slot of an insertion is one int addition),
split fieldwise, and sort as the tuples do, so sorted keys, and with them
``delta_primitive``'s rows and pivots, are those of the tuple form.
``terms`` and ``repr`` unpack the keys.  Each operator keeps a bound on its
largest slot order: an input's own, the sum of the operands' for a brace
or bracket, the larger operand's for a cup or sum, unchanged by δ and by
scaling, 1 for ``hkr`` and ``op_order`` for a primitive.  An input order
of 2^8 or more, an operation whose bound would reach 2^8, and an
``op_order`` of 2^8 or more are refused with ``ValueError`` before any
field can carry into its neighbour (the CLI exits 2).

The producers (``hoch_delta``, ``brace``, ``gerstenhaber``, ``cup``,
``hkr``, ``mdo_add``/``mdo_sub``, ``mdo_neg``, ``mdo_scale`` and
``delta_primitive``) compute on the numerators and return their kernels'
int output with its denominator: the product of the operands'
denominators, their lcm for a sum, q times it for a scale by p/q, and the
field's lcm times k! for ``hkr``.  So chained operations make no
``Fraction`` arithmetic at all.

A brace is one fused kernel, ``_brace_into``.  The insertion options of an
operator into a slot of order β are computed once per call, block and β,
with the multinomial multiplicity of the split already multiplied into the
derived coefficient; the block sign is applied once per choice of slots, by
reading the outer operator's numerators or their negated copy.  The last
block is multiplied straight into the output map by ``exactcore.mul_into``.
So a product term costs one int multiplication, plus one addition when it
lands on a monomial already present.  The bracket calls the kernel twice
into one map, the second time with the sign of ``E{D}``.

The primitive search builds its columns directly.  δ never touches a
coefficient, so the image of the candidate x^m·∂^{β₁}⊗…⊗∂^{β_k} is the
image of ∂^{β₁}⊗…⊗∂^{β_k} with the monomial m attached to every key: the
system is one block per coefficient monomial, all equal.  It computes one
int image per slot-order tuple with ``hoch_delta``'s kernel,
``_delta_into``, factors that block once (``_linalg.Factorisation``,
columns the slot-order tuples, rows the sorted image keys) and solves each
monomial's right-hand side, the target's numerators at that monomial,
against it; the rank is the block's times the number of monomials.  The
block depends only on (variable count, arity, ``op_order``), never on the
target, so ``_delta_block`` builds and factors it once per shape and keeps
it in a bounded per-process cache; a later search of that shape only
replays its right-hand sides, and a one-command process pays for the block
once, as before.  T is solved when every block is consistent and no term
of T has a monomial above the bound.  The candidate is each monomial's
solution entries, consistent or not, over the target's denominator, and
the residual is T − ``hoch_delta``(candidate).  So an unsolved T's
near-solution is that of the block's factorisation of the columns' keys,
with free variables at zero, and the block is the only system a call
eliminates.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, perm, prod
from operator import add, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ._fastterms import _shared_tables
from ._linalg import Factorisation
from .exactcore import (
    Exponents,
    Poly,
    VarContext,
    add_term_into,
    exact_scalar,
    koszul_sign,
    monomials_upto,
    mul_into,
    poly_from_terms,
    poly_mul,
)
from .polyvec import PolyVector, mv_homogeneous_degree, mv_is_zero

Orders = Tuple[Exponents, ...]
PackedOrders = Tuple[int, ...]  # one packed slot order per slot

__all__ = [
    "MultiDiffOp",
    "mdo_make",
    "mdo_zero",
    "mdo_from_poly",
    "mult_cochain",
    "mdo_add",
    "mdo_neg",
    "mdo_sub",
    "mdo_scale",
    "mdo_eq",
    "mdo_is_zero",
    "poly_derive_multi",
    "hoch_delta",
    "brace",
    "gerstenhaber",
    "cup",
    "i_func_hoch",
    "hkr",
    "PrimitiveResult",
    "delta_primitive",
]


class MultiDiffOp:
    """Sum of terms coeff(x)·∂^{orders[0]}⊗…⊗∂^{orders[arity-1]}; ``terms`` is
    read-only, and the map given here is checked at once.

    Inside, a term is keyed by its packed slot orders, one int per slot with
    ``_W`` = 8 bits per variable, and the operator keeps ``_top``, a bound on
    its largest slot order; an order of 2^8 or more is refused with
    ``ValueError`` (see the module docstring).
    """

    __slots__ = ("ctx", "arity", "_nums", "_den", "_top")

    def __init__(self, ctx: VarContext, arity: int, terms: Dict[Orders, Poly]):
        self.ctx, self.arity = ctx, arity
        self._nums, self._den, self._top = _int_form(ctx, arity, terms.items(), True)

    @property
    def terms(self) -> Dict[Orders, Poly]:
        den, n = self._den, self.ctx.n
        return {
            tuple(_unpack(k, n) for k in o): {e: Fraction(v, den) for e, v in p.items()}
            for o, p in self._nums.items()
        }

    def __eq__(self, other):
        return mdo_eq(self, other) if isinstance(other, MultiDiffOp) else NotImplemented

    def __repr__(self) -> str:
        return f"MultiDiffOp({self.ctx!r}, {self.arity!r}, {self.terms!r})"


# a slot order β packs into one int, _W bits per variable with variable 0 in
# the most significant field, so packed ints add, split and sort as the
# tuples do while every field stays below _LIMIT
_W = 8
_LIMIT = 1 << _W
_FIELD = _LIMIT - 1


def _pack(beta: Exponents) -> int:
    k = 0
    for b in beta:
        k = k << _W | b
    return k


@lru_cache(maxsize=4096)
def _unpack(k: int, n: int) -> Exponents:
    return tuple(k >> _W * (n - 1 - i) & _FIELD for i in range(n))


def _bounded(top: int) -> int:
    """top, the slot-order bound of an operator about to be computed;
    refused with ``ValueError`` once a packed field could carry."""
    if top >= _LIMIT:
        raise ValueError(
            f"slot orders of the result could reach {top}; orders are packed "
            f"{_W} bits per variable, so each must stay below {_LIMIT}"
        )
    return top


def _op(ctx: VarContext, arity: int, nums: Dict[PackedOrders, Poly], den: int, top: int) -> MultiDiffOp:
    """The operator with int numerators nums over den, keyed by packed slot
    orders below top + 1, well formed by construction, so unchecked."""
    D = object.__new__(MultiDiffOp)
    D.ctx, D.arity, D._nums, D._den, D._top = ctx, arity, nums, den, top
    return D


def _validate_orders(ctx: VarContext, arity: int, orders: Orders) -> None:
    if len(orders) != arity:
        raise ValueError(f"orders tuple has {len(orders)} slots, arity is {arity}")
    for beta in orders:
        if len(beta) != ctx.n or not all(isinstance(b, int) and b >= 0 for b in beta):
            raise ValueError(f"bad multi-index {beta!r} for {ctx.n} variables")
        if max(beta, default=0) >= _LIMIT:
            raise ValueError(
                f"multi-index {beta!r} has an order of {_LIMIT} or more; orders are "
                f"packed {_W} bits per variable"
            )


def _int_form(
    ctx: VarContext, arity: int, terms: Iterable[Tuple[Orders, Poly]], strict: bool
) -> Tuple[Dict[PackedOrders, Poly], int, int]:
    """Caller-supplied (slot orders, polynomial) pairs summed into int form:
    (numerators keyed by packed slot orders, their common denominator, the
    largest slot order left).

    Every term is checked, whether or not it cancels: its slot orders
    (``_validate_orders``), the variable count of each monomial, and that
    each coefficient is an int or a Fraction; ``strict`` also refuses an
    empty polynomial and a stored zero.  Whatever cancels is dropped.
    """
    n = ctx.n
    den, given, tops = 1, [], {}
    for orders, poly in terms:
        orders = tuple(map(tuple, orders))
        _validate_orders(ctx, arity, orders)
        if strict and not poly:
            raise ValueError(f"coefficient of {orders!r} is the empty polynomial")
        for e, c in poly.items():
            if len(e) != n:
                raise ValueError(f"coefficient of {orders!r} is not over {n} variables")
            if type(c) is not Fraction and type(c) is not int:
                raise ValueError(f"coefficient {c!r} of {orders!r} is not an int or a Fraction")
            if strict and not c:
                raise ValueError(f"coefficient of {orders!r} stores a zero")
            if den % c.denominator:
                den = lcm(den, c.denominator)
        key = tuple(map(_pack, orders))
        tops[key] = max((max(beta, default=0) for beta in orders), default=0)
        given.append((key, poly))
    nums: Dict[PackedOrders, Poly] = {}
    for key, poly in given:
        add_term_into(nums, key, {e: c.numerator * (den // c.denominator) for e, c in poly.items() if c})
    return nums, den, max(map(tops.get, nums), default=0)


def mdo_make(
    ctx: VarContext, arity: int, terms: Iterable[Tuple[Orders, Poly]]
) -> MultiDiffOp:
    """Validating constructor: checks every given term, those that cancel
    included, and sums them (``_int_form``).

    Each coefficient must be an int or a Fraction.
    """
    return _op(ctx, arity, *_int_form(ctx, arity, terms, False))


def mdo_zero(ctx: VarContext, arity: int) -> MultiDiffOp:
    return _op(ctx, arity, {}, 1, 0)


def mdo_from_poly(ctx: VarContext, p: Poly) -> MultiDiffOp:
    """A polynomial as the 0-ary cochain taking no arguments."""
    return mdo_make(ctx, 0, [((), p)])


def mult_cochain(ctx: VarContext) -> MultiDiffOp:
    """The 2-ary multiplication (a,b) -> a·b."""
    zero = (0,) * ctx.n
    return mdo_make(ctx, 2, [(((zero, zero)), poly_from_terms(ctx.n, [(1, zero)]))])


def _add_ints(a: MultiDiffOp, b: MultiDiffOp, sign: int) -> MultiDiffOp:
    """a + sign·b over the lcm of the two denominators."""
    if a.ctx != b.ctx or a.arity != b.arity:
        raise ValueError("cochain shape mismatch")
    den = lcm(a._den, b._den)
    out: Dict[PackedOrders, Poly] = {}
    for orders, p in a._nums.items():
        add_term_into(out, orders, p, den // a._den)
    for orders, p in b._nums.items():
        add_term_into(out, orders, p, sign * (den // b._den))
    return _op(a.ctx, a.arity, out, den, max(a._top, b._top))


def mdo_add(a: MultiDiffOp, b: MultiDiffOp) -> MultiDiffOp:
    return _add_ints(a, b, 1)


def mdo_neg(a: MultiDiffOp) -> MultiDiffOp:
    return mdo_scale(a, -1)


def mdo_sub(a: MultiDiffOp, b: MultiDiffOp) -> MultiDiffOp:
    return _add_ints(a, b, -1)


def mdo_scale(a: MultiDiffOp, c) -> MultiDiffOp:
    """c·a; c must be an int or a Fraction, else ``ValueError``."""
    c = exact_scalar(c)
    if c == 0:
        return mdo_zero(a.ctx, a.arity)
    m = c.numerator
    out = {o: {e: v * m for e, v in p.items()} for o, p in a._nums.items()}
    return _op(a.ctx, a.arity, out, a._den * c.denominator, a._top)


def mdo_eq(a: MultiDiffOp, b: MultiDiffOp) -> bool:
    return a.ctx == b.ctx and a.arity == b.arity and not _add_ints(a, b, -1)._nums


def mdo_is_zero(a: MultiDiffOp) -> bool:
    return not a._nums


def poly_derive_multi(p: Poly, beta: Exponents, factor: int = 1) -> Poly:
    """factor·∂^β p in one pass.

    Each surviving term is multiplied once, by factor times the falling
    factorials e!/(e−b)! of its exponents; derived monomials cannot collide.
    β must have one non-negative entry per variable, else ``ValueError``
    (the zero polynomial has no variable count, so only the signs are
    checked there).
    """
    if min(beta, default=0) < 0 or (p and len(next(iter(p))) != len(beta)):
        raise ValueError(f"bad multi-index {beta!r} for the polynomial's variables")
    out: Poly = {}
    for exps, c in p.items():
        m = factor
        for e, b in zip(exps, beta):
            m *= perm(e, b)
        if m:
            out[tuple(map(sub, exps, beta))] = c if m == 1 else c * m
    return out


# ---------------------------------------------------------------------------
# the differential


@lru_cache(maxsize=1024)
def _binomial_splits(beta: int) -> Tuple[Tuple[int, int, int], ...]:
    """(γ, β−γ, multiplicity) over all fieldwise splits γ ≤ β of a packed
    slot order, γ in increasing order (the tuples' lexicographic order).

    The fields are read up to β's highest nonzero one, so the splits do not
    depend on the variable count."""
    fields = []
    while beta >> _W * len(fields):
        fields.append(beta >> _W * len(fields) & _FIELD)
    out = []
    for gamma in itertools.product(*(range(b + 1) for b in reversed(fields))):
        g, mult = 0, 1
        for b, gi in zip(reversed(fields), gamma):
            g = g << _W | gi
            mult *= comb(b, gi)
        out.append((g, beta - g, mult))
    return tuple(out)


def _delta_into(out: Dict[PackedOrders, Poly], terms: Dict[PackedOrders, Poly], arity: int) -> None:
    """Add δ of the given terms of one arity into out, unchecked."""
    end_sign = -1 if (arity + 1) % 2 else 1
    for orders, c in terms.items():
        add_term_into(out, (0,) + orders, c)
        add_term_into(out, orders + (0,), c, end_sign)
        for i in range(1, arity + 1):
            head, tail = orders[: i - 1], orders[i:]
            sign = -1 if i % 2 else 1
            for gamma, rest, mult in _binomial_splits(orders[i - 1]):
                add_term_into(out, head + (gamma, rest) + tail, c, sign * mult)


def hoch_delta(D: MultiDiffOp) -> MultiDiffOp:
    """Simplicial differential: multiply in front, split each slot, multiply behind.

    δD(a₁,…,a_{k+1}) = a₁·D(a₂,…) + Σ_{i=1}^{k} (−1)^i D(…,a_i·a_{i+1},…)
                      + (−1)^{k+1} D(…,a_k)·a_{k+1},
    with the slot splits expanded through the product rule.
    """
    out: Dict[PackedOrders, Poly] = {}
    _delta_into(out, D._nums, D.arity)
    return _op(D.ctx, D.arity + 1, out, D._den, D._top)


# ---------------------------------------------------------------------------
# braces


@lru_cache(maxsize=1024)
def _multinomial_splits(beta: int, parts: int) -> Tuple[Tuple[PackedOrders, int], ...]:
    """(part-tuple, multiplicity) over splits of the packed beta into `parts`
    packed multi-indices."""
    if parts == 0:
        return () if beta else (((), 1),)
    return tuple(
        ((gamma,) + tail, mult * mult2)
        for gamma, rest, mult in _binomial_splits(beta)
        for tail, mult2 in _multinomial_splits(rest, parts - 1)
    )


def _insertion_options(E: MultiDiffOp, beta: int) -> List[Tuple[PackedOrders, Poly]]:
    """Ways to insert E into a slot of order beta: (slot orders, coefficient).

    Each is a split of beta into γ for E's coefficient and the rest over
    E's own slots, for every term of E; the coefficient is the split's
    multiplicity times ∂^γ of E's coefficient, derived once per distinct
    multiplicity.  Splits that differentiate the coefficient away are left
    out.  On packed slot orders a slot's order is one int addition.
    """
    n = E.ctx.n
    options = []
    for e_orders, e_coeff in E._nums.items():
        for gamma, rest, mult in _binomial_splits(beta):
            gamma = _unpack(gamma, n)
            derived: Dict[int, Poly] = {}
            for split, mult2 in _multinomial_splits(rest, E.arity):
                factor = mult * mult2
                if factor not in derived:
                    derived[factor] = poly_derive_multi(e_coeff, gamma, factor)
                    if not derived[factor]:
                        break  # ∂^γ kills the coefficient, whatever the factor
                options.append((tuple(map(add, e_orders, split)), derived[factor]))
    return options


def _brace_into(
    out: Dict[PackedOrders, Poly], D: MultiDiffOp, inserts: Sequence[MultiDiffOp], sign: int
) -> None:
    """Add sign·D{inserts} into out; the operands are in int form.

    Each insertion block sitting at slot p with j blocks before it carries
    (arity−1)·(p−j) into the sign exponent: the count of plain (unconsumed)
    slots to its left weighted by the block's shifted degree.  The block
    sign, times sign, is applied once per choice of slots, by reading D's
    numerators or their negated copy; the insertion options carry only
    their multiplicities and are derived once per (block, slot order).  The
    last block is multiplied straight into ``out``, and earlier blocks of a
    multi-insert brace are multiplied out first.
    """
    signed = {1: D._nums}
    options_at: Dict[Tuple[int, int], List[Tuple[PackedOrders, Poly]]] = {}
    for positions in itertools.combinations(range(D.arity), len(inserts)):
        eps = sum((inserts[j].arity - 1) * (p - j) for j, p in enumerate(positions))
        block_sign = -sign if eps % 2 else sign
        if block_sign not in signed:
            signed[-1] = {o: {e: -v for e, v in p.items()} for o, p in D._nums.items()}
        last = positions[-1]
        for orders, c in signed[block_sign].items():
            tail = orders[last + 1 :]
            per_block_options = []
            for j, p in enumerate(positions):
                key = (j, orders[p])
                if key not in options_at:
                    options_at[key] = _insertion_options(inserts[j], orders[p])
                per_block_options.append(options_at[key])
            for choice in itertools.product(*per_block_options[:-1]):
                coeff, head, start = c, (), 0
                for p, (slots, extra) in zip(positions, choice):
                    coeff = poly_mul(coeff, extra)
                    head += orders[start:p] + slots
                    start = p + 1
                head += orders[start:last]
                for slots, extra in per_block_options[-1]:
                    new_orders = head + slots + tail
                    acc = out.get(new_orders)
                    if acc is None:
                        acc = out[new_orders] = {}
                    mul_into(acc, coeff, extra)
                    if not acc:
                        del out[new_orders]


def brace(D: MultiDiffOp, inserts: Sequence[MultiDiffOp]) -> MultiDiffOp:
    """Insertion of the given cochains into slots of D, in order, summed with signs."""
    m = len(inserts)
    if m > D.arity:
        raise ValueError("too many insertion arguments")
    for E in inserts:
        if E.ctx != D.ctx:
            raise ValueError("context mismatch")
    if m == 0:
        return D
    top = _bounded(D._top + max(E._top for E in inserts))
    out: Dict[PackedOrders, Poly] = {}
    _brace_into(out, D, inserts, 1)
    den = D._den * prod(E._den for E in inserts)
    return _op(D.ctx, D.arity + sum(E.arity for E in inserts) - m, out, den, top)


def gerstenhaber(D: MultiDiffOp, E: MultiDiffOp) -> MultiDiffOp:
    """[D,E] = D{E} − (−1)^{(k_D−1)(k_E−1)} E{D}; a 0-ary outer term vanishes."""
    if D.ctx != E.ctx:
        raise ValueError("context mismatch")
    out_arity = D.arity + E.arity - 1
    if out_arity < 0:  # two 0-ary cochains commute
        return mdo_zero(D.ctx, 0)
    top = _bounded(D._top + E._top)
    out: Dict[PackedOrders, Poly] = {}
    if D.arity:
        _brace_into(out, D, [E], 1)
    if E.arity:
        _brace_into(out, E, [D], 1 if ((D.arity - 1) * (E.arity - 1)) % 2 else -1)
    return _op(D.ctx, out_arity, out, D._den * E._den, top)


def cup(D: MultiDiffOp, E: MultiDiffOp) -> MultiDiffOp:
    """(D∪E)(a₁,…) = D(a₁,…,a_k)·E(a_{k+1},…); agrees with μ{D,E}."""
    if D.ctx != E.ctx:
        raise ValueError("context mismatch")
    # distinct slot-order pairs give distinct keys; no product of nonzero polys is 0
    out = {do + eo: poly_mul(dc, ec) for do, dc in D._nums.items() for eo, ec in E._nums.items()}
    return _op(D.ctx, D.arity + E.arity, out, D._den * E._den, max(D._top, E._top))


def i_func_hoch(a: Poly, D: MultiDiffOp) -> MultiDiffOp:
    """Alternating insertion of the function a: Σ_i (−1)^i D(…,a_i, a, a_{i+1},…)."""
    if D.arity == 0:
        return mdo_zero(D.ctx, 0)
    return brace(D, [mdo_from_poly(D.ctx, a)])


# ---------------------------------------------------------------------------
# the alternation map


def hkr(pi: PolyVector) -> MultiDiffOp:
    """Multivector field to cochain: (1/k!)·signed sum over slot orderings."""
    if mv_is_zero(pi):
        return mdo_zero(pi.ctx, 0)
    k = mv_homogeneous_degree(pi)
    if k is None:
        raise ValueError("expected a homogeneous multivector field")
    n = pi.ctx.n
    den = lcm(*(c.denominator for c in pi._tm.values()))
    # the field's numerators over den, grouped by frame mask
    fields: Dict[int, Poly] = {}
    for (m, exps), c in pi._tm.items():
        fields.setdefault(m, {})[exps] = c.numerator * (den // c.denominator)
    bits = _shared_tables(n)[1]
    ones = [1] * k
    unit = [_pack(1 if v == w else 0 for v in range(n)) for w in range(n)]  # packed ∂_w
    out: Dict[PackedOrders, Poly] = {}
    for m, f in fields.items():
        frame = bits[m]
        for sigma in itertools.permutations(range(k)):
            add_term_into(out, tuple(unit[frame[s]] for s in sigma), f, koszul_sign(ones, sigma))
    return _op(pi.ctx, k, out, den * factorial(k), 1 if k else 0)


# ---------------------------------------------------------------------------
# primitive search


@dataclass(frozen=True)
class PrimitiveResult:
    """Outcome of a bounded search for ξ with δξ = T.

    ``candidate`` is the primitive when ``found``.  Otherwise it is the
    near-solution of the block's factorisation of the columns' keys (the
    sorted δ-image keys), one replay per coefficient monomial: free
    variables are zero, the equations the elimination finds inconsistent
    are left unmet, and a monomial above the bound gets no term.  It is not
    a least-squares fit, and it depends on the order of the rows.
    ``residual`` is T − δ(candidate), zero exactly when ``found``.
    """

    found: bool
    primitive: Optional[MultiDiffOp]
    candidate: MultiDiffOp
    residual: MultiDiffOp
    rank: int


# typed, so that an op_order of 2.0 is not served the block built for 2
@lru_cache(maxsize=16, typed=True)
def _delta_block(n: int, arity: int, op_order: int) -> Tuple[Tuple[PackedOrders, ...], Factorisation]:
    """(slot-order tuples, the factored block of their int δ-images) of the
    primitive search for an arity-``arity`` target in n variables.

    δ leaves coefficients alone: the image of x^mono·∂^orders is that of
    ∂^orders with mono attached to every key, so the system is one block
    per monomial, each the block of the slot-order images.  Callers only
    read what this returns (``_linalg.Factorisation.solve`` replays without
    writing), so one value serves every search of the shape.
    """
    zero = (0,) * n
    one = {zero: 1}
    slots = list(map(_pack, monomials_upto(n, op_order)))
    tuples = tuple(itertools.product(slots, repeat=arity - 1))
    images = []
    for orders in tuples:
        image: Dict[PackedOrders, Poly] = {}
        _delta_into(image, {orders: one}, arity - 1)
        images.append({key: p[zero] for key, p in image.items()})
    return tuples, Factorisation(images, sorted(set().union(*images)))


def delta_primitive(
    T: MultiDiffOp, *, poly_degree: int, op_order: int
) -> PrimitiveResult:
    """Search for ξ of arity one less with δξ = T, within the stated bounds.

    The search space is spanned by single-term cochains whose slot orders are
    bounded by ``op_order`` and whose coefficients are monomials of degree at
    most ``poly_degree``; the linear system matches coefficients of δξ and T
    exactly.  When inconsistent, the near-solution of the factorisation of
    the columns' keys, with free variables at zero, is reported instead
    with its residual.  A negative bound, or an ``op_order`` a packed slot
    order cannot hold, is refused with ``ValueError``.

    The δ-image block is built and factored once per (variable count,
    arity, ``op_order``) and kept in a bounded per-process cache, so a
    repeated shape only replays its right-hand sides; a one-command process
    builds it once, and an unsolved target factors nothing more.  A found
    primitive is checked against its residual before it is returned.
    """
    if poly_degree < 0 or op_order < 0:
        raise ValueError(
            f"bounds must be non-negative, got poly_degree={poly_degree}, op_order={op_order}"
        )
    _bounded(op_order)
    if T.arity == 0:
        raise ValueError("0-ary cochains have no primitive space")
    t_nums, t_den = T._nums, T._den
    ctx = T.ctx
    monos = list(monomials_upto(ctx.n, poly_degree))
    tuples, block = _delta_block(ctx.n, T.arity, op_order)

    # the system is linear, so solving for t_den·T gives t_den times the
    # solution; a monomial's right-hand side is its coefficients in T
    rhs: Dict[Exponents, Dict[PackedOrders, int]] = {}
    for key, p in t_nums.items():
        for mono, v in p.items():
            rhs.setdefault(mono, {})[key] = v
    # a monomial above the bound, or a key outside the image, leaves T unsolved
    xs = {mono: block.solve(r) for mono, r in rhs.items() if sum(mono) <= poly_degree}
    found = len(xs) == len(rhs) and all(consistent for consistent, _ in xs.values())
    coeffs = [xs[mono][1][j] if mono in xs else 0 for j in range(len(tuples)) for mono in monos]
    acc: Dict[PackedOrders, Poly] = {}
    for (orders, mono), x in zip(itertools.product(tuples, monos), coeffs):
        if x:
            acc.setdefault(orders, {})[mono] = x
    candidate = _op(ctx, T.arity - 1, acc, t_den, op_order)
    residual = mdo_sub(T, hoch_delta(candidate))
    if found and not mdo_is_zero(residual):
        raise RuntimeError("internal error: found primitive fails its own residual check")
    return PrimitiveResult(
        found=found,
        primitive=candidate if found else None,
        candidate=candidate,
        residual=residual,
        rank=block.rank * len(monos),
    )
