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

Validation happens at the boundary.  ``mdo_make`` is the public constructor
and checks every term it is given.  The operations (``hoch_delta``,
``brace``, ``gerstenhaber``, ``cup``, ``mdo_add``/``mdo_sub``) check the
multi-indices of each input operator once on entry, so an operator built
directly as a ``MultiDiffOp`` is refused with ``ValueError`` just the same;
the terms they produce are well formed by construction and are summed in
place by ``exactcore.add_term_into``, the package's one accumulator, without
a second check.  The primitive search hands its keyed columns to
``_linalg.solve_keyed``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ._linalg import flatten_terms, solve_keyed
from .exactcore import (
    Exponents,
    Poly,
    VarContext,
    add_term_into,
    monomials_upto,
    partial_derive,
    poly_add,
    poly_from_terms,
    poly_is_zero,
    poly_mul,
    poly_neg,
    poly_scale,
)
from .polyvec import PolyVector, mv_homogeneous_degree, mv_is_zero

Orders = Tuple[Exponents, ...]

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
    "apply_mdo",
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


@dataclass(frozen=True)
class MultiDiffOp:
    """Sum of terms coeff(x)·∂^{orders[0]}⊗…⊗∂^{orders[arity-1]}."""

    ctx: VarContext
    arity: int
    terms: Dict[Orders, Poly]


def _validate_orders(ctx: VarContext, arity: int, orders: Orders) -> None:
    if len(orders) != arity:
        raise ValueError(f"orders tuple has {len(orders)} slots, arity is {arity}")
    for beta in orders:
        if len(beta) != ctx.n or any(e < 0 for e in beta):
            raise ValueError(f"bad multi-index {beta!r} for {ctx.n} variables")


def _check_op(D: MultiDiffOp) -> None:
    """Validate an operator handed to an operation; each distinct multi-index once."""
    betas = set()
    for orders in D.terms:
        if len(orders) != D.arity:
            _validate_orders(D.ctx, D.arity, orders)
        betas.update(orders)
    for beta in betas:
        _validate_orders(D.ctx, 1, (beta,))


def mdo_make(
    ctx: VarContext, arity: int, terms: Iterable[Tuple[Orders, Poly]]
) -> MultiDiffOp:
    """Validating constructor: checks and canonicalizes every given term."""
    out: Dict[Orders, Poly] = {}
    for orders, poly in terms:
        orders = tuple(tuple(b) for b in orders)
        _validate_orders(ctx, arity, orders)
        acc = out.get(orders)
        if acc and poly and len(next(iter(acc))) != len(next(iter(poly))):
            raise ValueError("polynomials built over different variable counts")
        add_term_into(out, orders, {e: Fraction(c) for e, c in poly.items() if c})
    return MultiDiffOp(ctx, arity, out)


def mdo_zero(ctx: VarContext, arity: int) -> MultiDiffOp:
    return MultiDiffOp(ctx, arity, {})


def mdo_from_poly(ctx: VarContext, p: Poly) -> MultiDiffOp:
    """A polynomial as the 0-ary cochain taking no arguments."""
    return mdo_make(ctx, 0, [((), p)])


def mult_cochain(ctx: VarContext) -> MultiDiffOp:
    """The 2-ary multiplication (a,b) -> a·b."""
    zero = (0,) * ctx.n
    return mdo_make(ctx, 2, [(((zero, zero)), poly_from_terms(ctx.n, [(1, zero)]))])


def _combine(a: MultiDiffOp, b: MultiDiffOp, factor: int) -> MultiDiffOp:
    """a + factor·b for operators of one shape, without validation."""
    out: Dict[Orders, Poly] = {}
    for orders, p in a.terms.items():
        add_term_into(out, orders, p)
    for orders, p in b.terms.items():
        add_term_into(out, orders, p, factor)
    return MultiDiffOp(a.ctx, a.arity, out)


def _checked_pair(a: MultiDiffOp, b: MultiDiffOp) -> None:
    if a.ctx != b.ctx or a.arity != b.arity:
        raise ValueError("cochain shape mismatch")
    _check_op(a)
    _check_op(b)


def mdo_add(a: MultiDiffOp, b: MultiDiffOp) -> MultiDiffOp:
    _checked_pair(a, b)
    return _combine(a, b, 1)


def mdo_neg(a: MultiDiffOp) -> MultiDiffOp:
    return MultiDiffOp(a.ctx, a.arity, {o: poly_neg(p) for o, p in a.terms.items()})


def mdo_sub(a: MultiDiffOp, b: MultiDiffOp) -> MultiDiffOp:
    _checked_pair(a, b)
    return _combine(a, b, -1)


def mdo_scale(a: MultiDiffOp, c) -> MultiDiffOp:
    c = Fraction(c)
    if c == 0:
        return mdo_zero(a.ctx, a.arity)
    return MultiDiffOp(a.ctx, a.arity, {o: poly_scale(p, c) for o, p in a.terms.items()})


def mdo_eq(a: MultiDiffOp, b: MultiDiffOp) -> bool:
    return a.ctx == b.ctx and a.arity == b.arity and a.terms == b.terms


def mdo_is_zero(a: MultiDiffOp) -> bool:
    return not a.terms


def poly_derive_multi(p: Poly, beta: Exponents) -> Poly:
    for i, e in enumerate(beta):
        for _ in range(e):
            p = partial_derive(p, i)
            if poly_is_zero(p):
                return p
    return p


def apply_mdo(D: MultiDiffOp, args: Sequence[Poly]) -> Poly:
    if len(args) != D.arity:
        raise ValueError(f"expected {D.arity} arguments, got {len(args)}")
    total: Poly = {}
    for orders, coeff in D.terms.items():
        prod = coeff
        for beta, a in zip(orders, args):
            if poly_is_zero(prod):
                break
            prod = poly_mul(prod, poly_derive_multi(a, beta))
        total = poly_add(total, prod)
    return total


# ---------------------------------------------------------------------------
# the differential


def _multiindex_sub(beta: Exponents, gamma: Exponents) -> Exponents:
    return tuple(b - g for b, g in zip(beta, gamma))


@lru_cache(maxsize=1024)
def _binomial_splits(beta: Exponents) -> Tuple[Tuple[Exponents, Exponents, int], ...]:
    """(gamma, beta-gamma, multiplicity) over all componentwise splits."""
    out = []
    for gamma in itertools.product(*(range(b + 1) for b in beta)):
        mult = 1
        for b, g in zip(beta, gamma):
            mult *= comb(b, g)
        out.append((gamma, _multiindex_sub(beta, gamma), mult))
    return tuple(out)


def hoch_delta(D: MultiDiffOp) -> MultiDiffOp:
    """Simplicial differential: multiply in front, split each slot, multiply behind.

    δD(a₁,…,a_{k+1}) = a₁·D(a₂,…) + Σ_{i=1}^{k} (−1)^i D(…,a_i·a_{i+1},…)
                      + (−1)^{k+1} D(…,a_k)·a_{k+1},
    with the slot splits expanded through the product rule.
    """
    _check_op(D)
    k = D.arity
    zero = (0,) * D.ctx.n
    end_sign = -1 if (k + 1) % 2 else 1
    out: Dict[Orders, Poly] = {}
    for orders, c in D.terms.items():
        add_term_into(out, (zero,) + orders, c)
        add_term_into(out, orders + (zero,), c, end_sign)
        for i in range(1, k + 1):
            head, tail = orders[: i - 1], orders[i:]
            sign = -1 if i % 2 else 1
            for gamma, rest, mult in _binomial_splits(orders[i - 1]):
                add_term_into(out, head + (gamma, rest) + tail, c, sign * mult)
    return MultiDiffOp(D.ctx, k + 1, out)


# ---------------------------------------------------------------------------
# braces


@lru_cache(maxsize=1024)
def _multinomial_splits(
    beta: Exponents, parts: int
) -> Tuple[Tuple[Tuple[Exponents, ...], int], ...]:
    """(part-tuple, multiplicity) over splits of beta into `parts` multi-indices."""
    if parts == 1:
        return (((beta,), 1),)
    return tuple(
        ((gamma,) + tail, mult * mult2)
        for gamma, rest, mult in _binomial_splits(beta)
        for tail, mult2 in _multinomial_splits(rest, parts - 1)
    )


def _insertion_options(E: MultiDiffOp, beta: Exponents) -> List[Tuple[Orders, Poly, int]]:
    """Ways to insert E into a slot of order beta: (slot orders, coefficient, multiplicity).

    Each is a split of beta over E's coefficient and E's own slots, for
    every term of E; splits that differentiate the coefficient away are left out.
    """
    options = []
    for e_orders, e_coeff in E.terms.items():
        for split, mult in _multinomial_splits(beta, E.arity + 1):
            derived = poly_derive_multi(e_coeff, split[0])
            if poly_is_zero(derived):
                continue
            slots = tuple(
                tuple(g + d for g, d in zip(go, do)) for go, do in zip(e_orders, split[1:])
            )
            options.append((slots, derived, mult))
    return options


def brace(D: MultiDiffOp, inserts: Sequence[MultiDiffOp]) -> MultiDiffOp:
    """Insertion of the given cochains into slots of D, in order, summed with signs.

    Each insertion block sitting at slot p with j blocks before it carries
    (arity−1)·(p−j) into the overall sign exponent: the count of plain
    (unconsumed) slots to its left weighted by the block's shifted degree.
    """
    m = len(inserts)
    if m > D.arity:
        raise ValueError("too many insertion arguments")
    for E in inserts:
        if E.ctx != D.ctx:
            raise ValueError("context mismatch")
    _check_op(D)
    for E in inserts:
        _check_op(E)
    if m == 0:
        return D
    out_arity = D.arity + sum(E.arity for E in inserts) - m
    out: Dict[Orders, Poly] = {}
    options_at: Dict[Tuple[int, Exponents], List[Tuple[Orders, Poly, int]]] = {}
    for positions in itertools.combinations(range(D.arity), m):
        eps = sum(
            (inserts[j].arity - 1) * (p - j) for j, p in enumerate(positions)
        )
        block_sign = -1 if eps % 2 else 1
        for orders, c in D.terms.items():
            per_block_options = []
            for j, p in enumerate(positions):
                key = (j, orders[p])
                if key not in options_at:
                    options_at[key] = _insertion_options(inserts[j], orders[p])
                per_block_options.append(options_at[key])
            for choice in itertools.product(*per_block_options):
                coeff, factor = c, block_sign
                for _, extra, mult in choice:
                    coeff = poly_mul(coeff, extra)
                    factor *= mult
                new_orders: Orders = ()
                start = 0
                for p, (slots, _, _) in zip(positions, choice):
                    new_orders += orders[start:p] + slots
                    start = p + 1
                add_term_into(out, new_orders + orders[start:], coeff, factor)
    return MultiDiffOp(D.ctx, out_arity, out)


def gerstenhaber(D: MultiDiffOp, E: MultiDiffOp) -> MultiDiffOp:
    """[D,E] = D{E} − (−1)^{(k_D−1)(k_E−1)} E{D}; a 0-ary outer term vanishes."""
    if D.ctx != E.ctx:
        raise ValueError("context mismatch")
    out_arity = D.arity + E.arity - 1
    if out_arity < 0:  # two 0-ary cochains commute
        return mdo_zero(D.ctx, 0)
    fg = brace(D, [E]) if D.arity > 0 else mdo_zero(D.ctx, out_arity)
    gf = brace(E, [D]) if E.arity > 0 else mdo_zero(E.ctx, out_arity)
    sign = -1 if ((D.arity - 1) * (E.arity - 1)) % 2 else 1
    return _combine(fg, gf, -sign)


def cup(D: MultiDiffOp, E: MultiDiffOp) -> MultiDiffOp:
    """(D∪E)(a₁,…) = D(a₁,…,a_k)·E(a_{k+1},…); agrees with μ{D,E}."""
    if D.ctx != E.ctx:
        raise ValueError("context mismatch")
    _check_op(D)
    _check_op(E)
    out: Dict[Orders, Poly] = {}
    for do, dc in D.terms.items():
        for eo, ec in E.terms.items():
            add_term_into(out, do + eo, poly_mul(dc, ec))
    return MultiDiffOp(D.ctx, D.arity + E.arity, out)


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
    norm = Fraction(1, factorial(k))
    out: Dict[Orders, Poly] = {}
    for frame, f in pi.terms.items():
        for sigma in itertools.permutations(range(k)):
            inv = sum(
                1
                for i in range(k)
                for j in range(i + 1, k)
                if sigma[i] > sigma[j]
            )
            sgn = -1 if inv % 2 else 1
            orders = tuple(
                tuple(1 if v == frame[sigma[q]] else 0 for v in range(n))
                for q in range(k)
            )
            add_term_into(out, orders, f, norm * sgn)
    return MultiDiffOp(pi.ctx, k, out)


# ---------------------------------------------------------------------------
# primitive search


@dataclass(frozen=True)
class PrimitiveResult:
    """Outcome of a bounded search for ξ with δξ = T.

    ``candidate`` is always the least-squares-flavoured canonical pick (free
    variables zero, violated equations ignored); ``residual`` is T − δ(candidate),
    zero exactly when ``found``.
    """

    found: bool
    primitive: Optional[MultiDiffOp]
    candidate: MultiDiffOp
    residual: MultiDiffOp
    rank: int


def _candidate_basis(
    ctx: VarContext, arity: int, poly_degree: int, op_order: int
) -> List[MultiDiffOp]:
    multiindices = list(monomials_upto(ctx.n, op_order))
    monos = list(monomials_upto(ctx.n, poly_degree))
    basis = []
    for orders in itertools.product(multiindices, repeat=arity):
        for mono in monos:
            basis.append(
                mdo_make(ctx, arity, [(tuple(orders), poly_from_terms(ctx.n, [(1, mono)]))])
            )
    return basis


def delta_primitive(
    T: MultiDiffOp, *, poly_degree: int, op_order: int
) -> PrimitiveResult:
    """Search for ξ of arity one less with δξ = T, within the stated bounds.

    The search space is spanned by single-term cochains whose slot orders are
    bounded by ``op_order`` and whose coefficients are monomials of degree at
    most ``poly_degree``; the linear system matches coefficients of δξ and T
    exactly.  When inconsistent, the canonical near-solution and its residual
    are reported instead.
    """
    if T.arity == 0:
        raise ValueError("0-ary cochains have no primitive space")
    ctx = T.ctx
    basis = _candidate_basis(ctx, T.arity - 1, poly_degree, op_order)
    images = [hoch_delta(b) for b in basis]

    res = solve_keyed([flatten_terms(img.terms) for img in images], flatten_terms(T.terms))
    acc: Dict[Orders, Poly] = {}
    for coeff, b in zip(res.x, basis):
        for orders, p in b.terms.items():
            add_term_into(acc, orders, p, coeff)
    candidate = MultiDiffOp(ctx, T.arity - 1, acc)
    residual = mdo_sub(T, hoch_delta(candidate))
    found = res.consistent
    return PrimitiveResult(
        found=found,
        primitive=candidate if found else None,
        candidate=candidate,
        residual=residual,
        rank=res.rank,
    )
