"""Multivector fields and differential forms with polynomial coefficients.

A multivector field is stored in the frame basis: a map from a strictly
increasing tuple of variable indices (the wedge of the corresponding
coordinate derivations) to a polynomial coefficient. Differential forms are
stored the same way over coframes (wedges of coordinate differentials).

The Schouten bracket is the Grassmann-calculus one: writing a k-vector as a
polynomial in odd generators theta_i (one per coordinate derivation),

    [a, b] = D(a, b) - (-1)^{(|a|-1)(|b|-1)} D(b, a),
    D(a, b) = sum_i (a dtheta_i^R) . d(b)/dx_i,

where dtheta_i^R is the right derivative with respect to theta_i. On
coordinate frames this reproduces the classical expansion of the bracket of
decomposable multivectors, extends the commutator of vector fields, and is
a biderivation of the wedge — properties the test-suite checks exactly.

The bracket, the wedges and the one-form contraction are thin adapters over
the term engine ``_fastterms``: ``to_termmap`` converts the operands'
terms to bitmask TermMaps, the engine sums the result in place, and
``from_termmap`` builds it once.  ``mv_make``/``form_make`` are the
validating constructors for caller-supplied terms; every ``PolyVector`` and
``DiffForm`` checks its frames and that each exponent tuple has one entry
per variable of its context.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ._fastterms import FastCtx, TermMap, phi_into, schouten_into, wedge_into
from .exactcore import (
    Poly,
    VarContext,
    add_term_into,
    exact_scalar,
    monomials_upto,
    partial_derive,
    poly_exact,
    poly_is_zero,
    poly_neg,
    poly_scale,
)

Frame = Tuple[int, ...]

__all__ = [
    "DiffForm",
    "Frame",
    "PolyVector",
    "basis_multivectors",
    "contract",
    "d_form",
    "form_add",
    "form_degree",
    "form_is_zero",
    "form_make",
    "form_wedge",
    "form_zero",
    "i_func_mv",
    "mv_add",
    "mv_component",
    "mv_degrees",
    "mv_eq",
    "mv_frame",
    "mv_func",
    "mv_homogeneous_degree",
    "mv_is_zero",
    "mv_make",
    "mv_neg",
    "mv_scale",
    "mv_sub",
    "mv_zero",
    "schouten",
    "wedge_mv",
]


def _validate_terms(ctx: VarContext, terms: Dict[Frame, Poly]) -> None:
    n = ctx.n
    for frame, poly in terms.items():
        if any(not 0 <= i < n for i in frame):
            raise ValueError(f"frame index out of range in {frame!r}")
        if any(a >= b for a, b in zip(frame, frame[1:])):
            raise ValueError(f"frame must be strictly increasing: {frame!r}")
        for exps in poly:
            if len(exps) != n:
                raise ValueError(
                    "polynomials built over different variable counts: "
                    f"{exps!r} in a {n}-variable context"
                )


@dataclass(frozen=True)
class PolyVector:
    """Multivector field: map {strictly increasing frame -> coefficient}."""

    ctx: VarContext
    terms: Dict[Frame, Poly]

    def __post_init__(self) -> None:
        _validate_terms(self.ctx, self.terms)


@dataclass(frozen=True)
class DiffForm:
    """Differential form: map {strictly increasing coframe -> coefficient}."""

    ctx: VarContext
    terms: Dict[Frame, Poly]

    def __post_init__(self) -> None:
        _validate_terms(self.ctx, self.terms)


# ---------------------------------------------------------------------------
# constructors


def mv_zero(ctx: VarContext) -> PolyVector:
    return PolyVector(ctx, {})


def _collect(terms: Iterable[Tuple[Frame, Poly]]) -> Dict[Frame, Poly]:
    """Sum caller-supplied terms into a fresh zero-free map of Fraction coefficients.

    A coefficient that is not an int or a Fraction raises ValueError.
    """
    out: Dict[Frame, Poly] = {}
    for frame, poly in terms:
        add_term_into(out, tuple(frame), poly_exact(poly))
    return out


def mv_make(ctx: VarContext, terms: Iterable[Tuple[Frame, Poly]]) -> PolyVector:
    """Validating constructor: sums the given terms, dropping whatever cancels."""
    return PolyVector(ctx, _collect(terms))


def mv_func(ctx: VarContext, poly: Poly) -> PolyVector:
    """Embed a polynomial as a degree-0 multivector."""
    return mv_make(ctx, [((), poly)])


def mv_frame(ctx: VarContext, frame: Frame, coeff: Fraction = Fraction(1)) -> PolyVector:
    """The constant-coefficient wedge of coordinate derivations."""
    return mv_make(ctx, [(tuple(frame), {(0,) * ctx.n: coeff})])


def form_zero(ctx: VarContext) -> DiffForm:
    return DiffForm(ctx, {})


def form_make(ctx: VarContext, terms: Iterable[Tuple[Frame, Poly]]) -> DiffForm:
    """Validating constructor for forms, summing like ``mv_make``."""
    return DiffForm(ctx, _collect(terms))


# ---------------------------------------------------------------------------
# linear structure


def mv_add(a: PolyVector, b: PolyVector) -> PolyVector:
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")
    return mv_make(a.ctx, list(a.terms.items()) + list(b.terms.items()))


def mv_neg(a: PolyVector) -> PolyVector:
    return PolyVector(a.ctx, {f: poly_neg(p) for f, p in a.terms.items()})


def mv_sub(a: PolyVector, b: PolyVector) -> PolyVector:
    return mv_add(a, mv_neg(b))


def mv_scale(a: PolyVector, c) -> PolyVector:
    """c·a; c must be an int or a Fraction, else ``ValueError``."""
    c = exact_scalar(c)
    if c == 0:
        return mv_zero(a.ctx)
    return PolyVector(a.ctx, {f: poly_scale(p, c) for f, p in a.terms.items()})


def mv_is_zero(a: PolyVector) -> bool:
    return not a.terms


def mv_eq(a: PolyVector, b: PolyVector) -> bool:
    return a.ctx == b.ctx and a.terms == b.terms


def mv_degrees(a: PolyVector) -> Tuple[int, ...]:
    return tuple(sorted({len(f) for f in a.terms}))


def mv_homogeneous_degree(a: PolyVector) -> Optional[int]:
    """The common frame length, or None if mixed/zero."""
    degs = mv_degrees(a)
    return degs[0] if len(degs) == 1 else None


def mv_component(a: PolyVector, k: int) -> PolyVector:
    return PolyVector(a.ctx, {f: p for f, p in a.terms.items() if len(f) == k})


def form_add(a: DiffForm, b: DiffForm) -> DiffForm:
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")
    return form_make(a.ctx, list(a.terms.items()) + list(b.terms.items()))


def form_is_zero(a: DiffForm) -> bool:
    return not a.terms


def form_degree(a: DiffForm) -> Optional[int]:
    degs = sorted({len(f) for f in a.terms})
    return degs[0] if len(degs) == 1 else None


# ---------------------------------------------------------------------------
# the term-engine boundary


def to_termmap(fc: FastCtx, v) -> TermMap:
    """The terms of a PolyVector or DiffForm keyed by (frame mask, exponents).

    A coefficient whose denominator is 1 is stored as an int.
    """
    out: TermMap = {}
    for frame, poly in v.terms.items():
        m = fc.mask_of(frame)
        for exps, c in poly.items():
            out[(m, exps)] = int(c) if c.denominator == 1 else c
    return out


def from_termmap(cls, ctx: VarContext, fc: FastCtx, tm: TermMap):
    """Build a cls (PolyVector or DiffForm) from a TermMap, coefficients as Fractions."""
    terms: Dict[Frame, Poly] = {}
    bits = fc.bits
    for (m, exps), c in tm.items():
        if c:
            terms.setdefault(bits[m], {})[exps] = Fraction(c)
    return cls(ctx, terms)


def _binary(into, a, b):
    """a op b for the engine's summing form of a bilinear operation."""
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")
    fc = FastCtx(a.ctx.n)
    acc: TermMap = {}
    into(fc, to_termmap(fc, a), to_termmap(fc, b), 1, acc)
    return from_termmap(type(a), a.ctx, fc, acc)


# ---------------------------------------------------------------------------
# wedge products and the Schouten bracket


def wedge_mv(a: PolyVector, b: PolyVector) -> PolyVector:
    return _binary(wedge_into, a, b)


def form_wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    return _binary(wedge_into, a, b)


def schouten(a: PolyVector, b: PolyVector) -> PolyVector:
    """Schouten bracket, extended bilinearly over homogeneous components.

    Degree |a|+|b|-1; graded antisymmetric with respect to the shifted
    degrees: [a,b] = -(-1)^{(|a|-1)(|b|-1)} [b,a].
    """
    return _binary(schouten_into, a, b)


# ---------------------------------------------------------------------------
# exterior derivative, contraction, i_a


def d_form(w: DiffForm) -> DiffForm:
    """dw = sum_i dx_i ^ d(w)/dx_i; dx_i moves past the coframe indices below i."""
    out: Dict[Frame, Poly] = {}
    for coframe, poly in w.terms.items():
        for i in range(w.ctx.n):
            if i in coframe:
                continue
            dp = partial_derive(poly, i)
            if poly_is_zero(dp):
                continue
            pos = bisect.bisect(coframe, i)
            add_term_into(out, coframe[:pos] + (i,) + coframe[pos:], dp, -1 if pos % 2 else 1)
    return DiffForm(w.ctx, out)


def contract(alpha: DiffForm, v: PolyVector) -> PolyVector:
    """Left interior pairing of a one-form against a multivector.

    <alpha, X_1 ^ ... ^ X_k> = sum_i (-1)^(i-1) alpha(X_i) X_1 ^ ... ^ X_k
    with slot i removed; A-bilinear in both arguments.  This is the
    contraction cochain of alpha on one argument, whose sign does not
    depend on the argument's degree (declared 0 here, so mixed-degree v
    is fine).
    """
    if alpha.ctx != v.ctx:
        raise ValueError("context mismatch")
    if any(len(c) != 1 for c in alpha.terms):
        raise ValueError("contract expects a homogeneous one-form")
    fc = FastCtx(v.ctx.n)
    acc: TermMap = {}
    phi_into(fc, to_termmap(fc, alpha), [to_termmap(fc, v)], (0,), 1, acc)
    return from_termmap(PolyVector, v.ctx, fc, acc)


def i_func_mv(a: Poly, v: PolyVector) -> PolyVector:
    """Contraction of a multivector against a function through the bracket.

    Defined as [v, a] (the bracket with a placed in degree 0); lowers the
    multivector degree by one and satisfies
    i_a(v) = (-1)^{|v|-1} <da, v> on homogeneous v.
    """
    return schouten(v, mv_func(v.ctx, a))


# ---------------------------------------------------------------------------
# canonical bases


def basis_multivectors(
    ctx: VarContext, max_poly_degree: int, mv_degrees: Sequence[int]
) -> List[PolyVector]:
    """Single-term basis elements x^e theta_frame within the given bounds.

    Deterministic order: multivector degree, then frame, then monomial
    (grlex). Every element has coefficient 1.
    """
    out: List[PolyVector] = []
    monos = list(monomials_upto(ctx.n, max_poly_degree))
    for k in mv_degrees:
        if k > ctx.n:
            continue
        for frame in itertools.combinations(range(ctx.n), k):
            for exps in monos:
                out.append(PolyVector(ctx, {frame: {exps: Fraction(1)}}))
    return out
