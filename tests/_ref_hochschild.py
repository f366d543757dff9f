"""Reference Hochschild engine: the term-by-term code the library replaced.

Every produced term goes through ``mdo_make`` and is re-validated there,
scalars are applied by ``poly_scale`` and sums are taken with ``poly_add``
copies.  It is slow and kept only as an independent oracle for
``gdcalc.hochschild``; ``tests/test_hochschild_oracle.py`` pins the library
against it.  ``apply_mdo`` evaluates an operator on sample polynomials, the
direct application that ``tests/test_hochschild.py`` checks compositions
and commutators against.

``delta_primitive`` is the primitive search as one keyed system: every
candidate term x^m·∂^{β₁}⊗…⊗∂^{β_k} is its own column, every (slot orders,
monomial) of an image or of the target its own row, solved by the dense
oracle ``_dense_gauss.dense_keyed_solve``, which shares no code with the
library's solver.  ``tests/test_factorisation_oracle.py`` pins the
library's one-block search against it.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial
from typing import Dict, Iterable, List, Sequence, Tuple

from _dense_gauss import dense_keyed_solve
from gdcalc.exactcore import (
    Exponents,
    Poly,
    VarContext,
    monomials_upto,
    partial_derive,
    poly_add,
    poly_is_zero,
    poly_mul,
    poly_neg,
    poly_scale,
)
from gdcalc.hochschild import MultiDiffOp, PrimitiveResult
from gdcalc.polyvec import PolyVector, mv_homogeneous_degree, mv_is_zero

Orders = Tuple[Exponents, ...]


def mdo_zero(ctx: VarContext, arity: int) -> MultiDiffOp:
    return MultiDiffOp(ctx, arity, {})


def _validate_orders(ctx: VarContext, arity: int, orders: Orders) -> None:
    if len(orders) != arity:
        raise ValueError(f"orders tuple has {len(orders)} slots, arity is {arity}")
    for beta in orders:
        if len(beta) != ctx.n or any(e < 0 for e in beta):
            raise ValueError(f"bad multi-index {beta!r} for {ctx.n} variables")


def mdo_make(
    ctx: VarContext, arity: int, terms: Iterable[Tuple[Orders, Poly]]
) -> MultiDiffOp:
    out: Dict[Orders, Poly] = {}
    for orders, poly in terms:
        orders = tuple(tuple(b) for b in orders)
        _validate_orders(ctx, arity, orders)
        acc = poly_add(out.get(orders, {}), poly)
        if acc:
            out[orders] = acc
        else:
            out.pop(orders, None)
    return MultiDiffOp(ctx, arity, out)


def mdo_add(a: MultiDiffOp, b: MultiDiffOp) -> MultiDiffOp:
    if a.ctx != b.ctx or a.arity != b.arity:
        raise ValueError("cochain shape mismatch")
    return mdo_make(a.ctx, a.arity, list(a.terms.items()) + list(b.terms.items()))


def mdo_neg(a: MultiDiffOp) -> MultiDiffOp:
    return MultiDiffOp(a.ctx, a.arity, {o: poly_neg(p) for o, p in a.terms.items()})


def mdo_sub(a: MultiDiffOp, b: MultiDiffOp) -> MultiDiffOp:
    return mdo_add(a, mdo_neg(b))


def mdo_scale(a: MultiDiffOp, c) -> MultiDiffOp:
    c = Fraction(c)
    if c == 0:
        return mdo_zero(a.ctx, a.arity)
    return MultiDiffOp(a.ctx, a.arity, {o: poly_scale(p, c) for o, p in a.terms.items()})


def poly_derive_multi(p: Poly, beta: Exponents) -> Poly:
    for i, e in enumerate(beta):
        for _ in range(e):
            p = partial_derive(p, i)
            if poly_is_zero(p):
                return p
    return p


def apply_mdo(D: MultiDiffOp, args: Sequence[Poly]) -> Poly:
    """D evaluated on sample polynomials: Σ c·∂^{β₁}a₁·…·∂^{β_k}a_k."""
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


def _multiindex_sub(beta: Exponents, gamma: Exponents) -> Exponents:
    return tuple(b - g for b, g in zip(beta, gamma))


def _binomial_splits(beta: Exponents):
    """Yield (gamma, beta-gamma, multiplicity) over all componentwise splits."""
    ranges = [range(b + 1) for b in beta]
    for gamma in itertools.product(*ranges):
        mult = 1
        for b, g in zip(beta, gamma):
            mult *= comb(b, g)
        yield tuple(gamma), _multiindex_sub(beta, gamma), mult


def hoch_delta(D: MultiDiffOp) -> MultiDiffOp:
    """Simplicial differential: multiply in front, split each slot, multiply behind.

    δD(a₁,…,a_{k+1}) = a₁·D(a₂,…) + Σ_{i=1}^{k} (−1)^i D(…,a_i·a_{i+1},…)
                      + (−1)^{k+1} D(…,a_k)·a_{k+1},
    with the slot splits expanded through the product rule.
    """
    k = D.arity
    zero = (0,) * D.ctx.n
    out: List[Tuple[Orders, Poly]] = []
    for orders, c in D.terms.items():
        out.append(((zero,) + orders, c))
        end_sign = -1 if (k + 1) % 2 else 1
        out.append((orders + (zero,), poly_scale(c, end_sign)))
        for i in range(1, k + 1):
            beta = orders[i - 1]
            sign = -1 if i % 2 else 1
            for gamma, rest, mult in _binomial_splits(beta):
                new_orders = orders[: i - 1] + (gamma, rest) + orders[i:]
                out.append((new_orders, poly_scale(c, sign * mult)))
    return mdo_make(D.ctx, k + 1, out)


def _multinomial_splits(beta: Exponents, parts: int):
    """Yield (part-tuple, multiplicity) over splits of beta into `parts` multi-indices."""
    if parts == 1:
        yield (beta,), 1
        return
    for gamma, rest, mult in _binomial_splits(beta):
        for tail, mult2 in _multinomial_splits(rest, parts - 1):
            yield (gamma,) + tail, mult * mult2


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
    if m == 0:
        return D
    ctx = D.ctx
    out_arity = D.arity + sum(E.arity for E in inserts) - m
    collected: List[Tuple[Orders, Poly]] = []
    for positions in itertools.combinations(range(D.arity), m):
        eps = sum(
            (inserts[j].arity - 1) * (p - j) for j, p in enumerate(positions)
        )
        block_sign = -1 if eps % 2 else 1
        for orders, c in D.terms.items():
            # choices per block: a split of the slot's multi-index over the
            # block coefficient and the block's own slots, for every block term
            per_block_options = []
            for j, p in enumerate(positions):
                E = inserts[j]
                beta = orders[p]
                options = []
                for e_orders, e_coeff in E.terms.items():
                    for split, mult in _multinomial_splits(beta, E.arity + 1):
                        delta0, deltas = split[0], split[1:]
                        ecoeff_derived = poly_derive_multi(e_coeff, delta0)
                        if poly_is_zero(ecoeff_derived):
                            continue
                        new_slot_orders = tuple(
                            tuple(g + d for g, d in zip(go, do))
                            for go, do in zip(e_orders, deltas)
                        )
                        options.append((new_slot_orders, poly_scale(ecoeff_derived, mult)))
                per_block_options.append(options)
            for choice in itertools.product(*per_block_options):
                coeff = c
                for _, extra in choice:
                    coeff = poly_mul(coeff, extra)
                if poly_is_zero(coeff):
                    continue
                new_orders: List[Exponents] = []
                block_at = dict(zip(positions, choice))
                for p in range(D.arity):
                    if p in block_at:
                        new_orders.extend(block_at[p][0])
                    else:
                        new_orders.append(orders[p])
                collected.append((tuple(new_orders), poly_scale(coeff, block_sign)))
    return mdo_make(ctx, out_arity, collected)


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
    return mdo_sub(fg, mdo_scale(gf, sign))


def cup(D: MultiDiffOp, E: MultiDiffOp) -> MultiDiffOp:
    """(D∪E)(a₁,…) = D(a₁,…,a_k)·E(a_{k+1},…); agrees with μ{D,E}."""
    if D.ctx != E.ctx:
        raise ValueError("context mismatch")
    collected = [
        (do + eo, poly_mul(dc, ec))
        for do, dc in D.terms.items()
        for eo, ec in E.terms.items()
    ]
    return mdo_make(D.ctx, D.arity + E.arity, collected)


def hkr(pi: PolyVector) -> MultiDiffOp:
    """Multivector field to cochain: (1/k!)·signed sum over slot orderings."""
    if mv_is_zero(pi):
        return mdo_zero(pi.ctx, 0)
    k = mv_homogeneous_degree(pi)
    if k is None:
        raise ValueError("expected a homogeneous multivector field")
    n = pi.ctx.n
    norm = Fraction(1, factorial(k))
    collected: List[Tuple[Orders, Poly]] = []
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
            collected.append((orders, poly_scale(f, norm * sgn)))
    return mdo_make(pi.ctx, k, collected)


def delta_primitive(T: MultiDiffOp, *, poly_degree: int, op_order: int) -> PrimitiveResult:
    """The bounded search for ξ with δξ = T, one column per candidate term."""
    if T.arity == 0:
        raise ValueError("0-ary cochains have no primitive space")
    ctx = T.ctx
    zero = (0,) * ctx.n
    monos = list(monomials_upto(ctx.n, poly_degree))
    basis: List[Tuple[Orders, Exponents]] = []
    columns: List[Dict[Tuple[Orders, Exponents], Fraction]] = []
    for orders in itertools.product(monomials_upto(ctx.n, op_order), repeat=T.arity - 1):
        image = hoch_delta(MultiDiffOp(ctx, T.arity - 1, {orders: {zero: Fraction(1)}})).terms
        for mono in monos:
            basis.append((orders, mono))
            columns.append({(key, mono): p[zero] for key, p in image.items()})
    rhs = {(key, mono): v for key, p in T.terms.items() for mono, v in p.items()}
    res = dense_keyed_solve(columns, rhs)
    acc: Dict[Orders, Poly] = {}
    for (orders, mono), x in zip(basis, res.x):
        if x:
            acc.setdefault(orders, {})[mono] = x
    candidate = MultiDiffOp(ctx, T.arity - 1, acc)
    return PrimitiveResult(
        found=res.consistent,
        primitive=candidate if res.consistent else None,
        candidate=candidate,
        residual=mdo_sub(T, hoch_delta(candidate)),
        rank=res.rank,
    )
