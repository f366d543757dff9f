"""Reference oracle: the evaluator-level cochain calculus and relation checker.

``cochain_compose``, ``cochain_bracket`` and ``cochain_differential`` (once in
``gdcalc.chevalley``) and ``linfty_relations_check`` with its report types
(once in ``gdcalc.twistcheck``) are kept here verbatim.  They compose
cochains through the generic evaluator, independently of the bitmask sweeps
in ``gdcalc._fastsweep`` that the library runs, so the tests can pin those
sweeps against a second route.  The cochain type, the evaluator and the
structure cochain they compose come from ``_ref_polyvec`` (the tuple-frame
bracket), so no comparison runs the library's term engine on both sides.

``phi_cochain`` and ``m_cochain`` wrap the library's own values
(``gdcalc.twistcheck.phi_value`` and ``m_value``) as cochains, so the
identity tests that compose, bracket and evaluate cochains still exercise
the library kernels.  Test-only.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from _ref_polyvec import Cochain, _degree_of, cochain_zero, evaluate, structure_cochain
from gdcalc.twistcheck import m_value, phi_value
from gdcalc.exactcore import VarContext, koszul_unshuffle_sign
from gdcalc.polyvec import (
    DiffForm,
    PolyVector,
    basis_multivectors,
    form_degree,
    mv_add,
    mv_homogeneous_degree,
    mv_is_zero,
    mv_scale,
    mv_sub,
    mv_zero,
)


# ---------------------------------------------------------------------------
# the library's kernels as cochains


def phi_cochain(omega: DiffForm, arity: Optional[int] = None) -> Cochain:
    """``phi_value(omega, ·)`` as a cochain of arity k and degree k-2.

    The arity of a k-form is k; the zero form needs it supplied.  Refuses
    what ``_ref_polyvec.phi`` refuses.
    """
    k = form_degree(omega)
    if k is None:
        if omega.terms:
            raise ValueError("phi expects a homogeneous form")
        if arity is None:
            raise ValueError("zero form: arity must be supplied explicitly")
        k = arity
    elif arity is not None and arity != k:
        raise ValueError(f"arity {arity} contradicts form degree {k}")
    return Cochain(
        omega.ctx, k, k - 2, lambda args: phi_value(omega, args), name="phi", source_form=omega
    )


def m_cochain(ctx: VarContext) -> Cochain:
    """``m_value`` as the arity-2 structure cochain of degree 1."""
    return Cochain(ctx, 2, 1, lambda args: m_value(*args), name="m")


# ---------------------------------------------------------------------------
# composition, bracket, differential


def cochain_compose(f: Cochain, g: Cochain) -> Cochain:
    """Insertion of g into the first slot of f, summed over unshuffles."""
    if f.ctx != g.ctx:
        raise ValueError("context mismatch")
    ctx = f.ctx
    if f.arity == 0:
        return cochain_zero(ctx, max(g.arity - 1, 0), f.degree + g.degree)
    r = f.arity + g.arity - 1

    def kernel(args: Tuple[PolyVector, ...]) -> PolyVector:
        degs = [_degree_of(a) for a in args]
        total = mv_zero(ctx)
        for subset in itertools.combinations(range(r), g.arity):
            eps = koszul_unshuffle_sign(degs, subset)
            inner = evaluate(g, tuple(args[i] for i in subset))
            if mv_is_zero(inner):
                continue
            chosen = set(subset)
            rest = tuple(args[i] for i in range(r) if i not in chosen)
            val = evaluate(f, (inner,) + rest)
            total = mv_add(total, mv_scale(val, eps))
        return total

    return Cochain(ctx, r, f.degree + g.degree, kernel, name=f"({f.name}.{g.name})")


def cochain_bracket(f: Cochain, g: Cochain) -> Cochain:
    """[f,g] = f.g - (-1)^{deg f deg g} g.f."""
    fg = cochain_compose(f, g)
    gf = cochain_compose(g, f)
    if fg.arity != gf.arity:
        raise ValueError("bracket of these arities is not defined")
    sign = -1 if (f.degree * g.degree) % 2 else 1

    def kernel(args: Tuple[PolyVector, ...]) -> PolyVector:
        return mv_sub(evaluate(fg, args), mv_scale(evaluate(gf, args), sign))

    return Cochain(
        fg.ctx, fg.arity, f.degree + g.degree, kernel, name=f"[{f.name},{g.name}]"
    )


def cochain_differential(f: Cochain) -> Cochain:
    """Bracketing with the structure cochain; raises arity by one."""
    d = cochain_bracket(structure_cochain(f.ctx), f)
    return Cochain(d.ctx, d.arity, f.degree + 1, d.kernel, name=f"d({f.name})")


# ---------------------------------------------------------------------------
# compatibility relations


@dataclass(frozen=True)
class RelationBounds:
    """Spanning-set bounds for the three compatibility relations.

    ``mv_degree`` caps the multivector degree of every tuple entry.  The
    per-relation coefficient-degree caps default to the smallest values that
    still certify the relations for differential-operator-type inputs: the
    double bracket differentiates each slot at most twice, the mixed relation
    at most once, and the double ternary term not at all, so monomial
    coefficients of those degrees already span all coefficient behaviour.
    Raise them when checking operations of higher differential order.
    """

    mv_degree: int = 3
    jacobi_poly_degree: int = 2
    mixed_poly_degree: int = 1
    ternary_poly_degree: int = 0


@dataclass(frozen=True)
class RelationResult:
    name: str
    passed: bool
    cases: int
    witness: Optional[Tuple[Tuple[PolyVector, ...], PolyVector]] = None


@dataclass(frozen=True)
class RelationsReport:
    jacobi: RelationResult
    mixed: RelationResult
    ternary: RelationResult

    @property
    def passed(self) -> bool:
        return self.jacobi.passed and self.mixed.passed and self.ternary.passed


def _coframe_union_prune(ops: Sequence[Cochain]) -> Optional[List[frozenset]]:
    """Index sets that must be covered by a tuple's frames, if known.

    A cochain built from a form only contracts against the coordinate
    differentials of that form, and the bracket never introduces frame
    indices absent from its inputs.  So if no coframe of the source form is
    contained in the union of the argument frames, every composition built
    from these operations vanishes on the tuple.  Returns None when no
    operand carries a source form (no pruning possible).
    """
    coframe_sets = None
    for op in ops:
        src = getattr(op, "source_form", None)
        if src is not None and src.terms:
            sets = [frozenset(k) for k in src.terms]
            if coframe_sets is None or len(sets) < len(coframe_sets):
                coframe_sets = sets
    return coframe_sets


def _check_relation(
    name: str,
    rel: Cochain,
    elements: Sequence[PolyVector],
    prune_sets: Optional[List[frozenset]],
) -> RelationResult:
    n = rel.ctx.n
    degs = [mv_homogeneous_degree(e) for e in elements]
    frames = [frozenset().union(*e.terms.keys()) for e in elements]
    shift = rel.degree - 2 * rel.arity + 2
    cases = 0
    for combo in itertools.combinations_with_replacement(range(len(elements)), rel.arity):
        out_degree = sum(degs[i] for i in combo) + shift
        if out_degree < 0 or out_degree > n:
            continue
        if prune_sets is not None:
            union = frozenset().union(*(frames[i] for i in combo))
            if not any(k <= union for k in prune_sets):
                continue
        args = tuple(elements[i] for i in combo)
        value = evaluate(rel, args)
        cases += 1
        if not mv_is_zero(value):
            return RelationResult(name, False, cases, (args, value))
    return RelationResult(name, True, cases)


def linfty_relations_check(
    l2: Cochain, l3: Cochain, bounds: RelationBounds = RelationBounds()
) -> RelationsReport:
    """Check the three quadratic relations tying l2 and l3 together.

    The relations are the vanishing of [l2,l2], [l2,l3] and [l3,l3] (brackets
    of cochains), evaluated on every graded-symmetric tuple of single-term
    basis fields within ``bounds``.  Graded symmetry of the bracket of two
    copies of an operation makes unordered tuples sufficient.
    """
    if l2.ctx != l3.ctx:
        raise ValueError("context mismatch")
    if l2.arity != 2 or l3.arity != 3:
        raise ValueError("expected a binary and a ternary operation")
    ctx = l2.ctx
    mv_range = range(0, min(bounds.mv_degree, ctx.n) + 1)

    def elems(poly_degree: int) -> List[PolyVector]:
        return list(basis_multivectors(ctx, poly_degree, mv_range))

    jacobi = _check_relation(
        "jacobi",
        cochain_bracket(l2, l2),
        elems(bounds.jacobi_poly_degree),
        None,
    )
    mixed = _check_relation(
        "mixed",
        cochain_bracket(l2, l3),
        elems(bounds.mixed_poly_degree),
        _coframe_union_prune([l3]),
    )
    ternary = _check_relation(
        "ternary",
        cochain_bracket(l3, l3),
        elems(bounds.ternary_poly_degree),
        _coframe_union_prune([l3]),
    )
    return RelationsReport(jacobi=jacobi, mixed=mixed, ternary=ternary)
