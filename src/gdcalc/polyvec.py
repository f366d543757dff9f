"""Multivector fields and differential forms with polynomial coefficients.

A multivector field is stored in the frame basis: a map from a strictly
increasing tuple of variable indices (the wedge of the corresponding
coordinate derivations) to a polynomial coefficient. Differential forms are
stored the same way over coframes (wedges of coordinate differentials).

The Schouten bracket is computed through Grassmann calculus: writing a
k-vector as a polynomial in odd generators theta_i (one per coordinate
derivation), the bracket is

    [a, b] = D(a, b) - (-1)^{(|a|-1)(|b|-1)} D(b, a),
    D(a, b) = sum_i (a dtheta_i^R) . d(b)/dx_i,

where dtheta_i^R is the right derivative with respect to theta_i. On
coordinate frames this reproduces the classical expansion of the bracket of
decomposable multivectors, extends the commutator of vector fields, and is
a biderivation of the wedge — properties the test-suite checks exactly.

``mv_make``/``form_make`` are the validating constructors for caller-supplied
terms.  The operations sum the terms they produce in place through
``exactcore.add_term_into`` and build each result once.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .exactcore import (
    Poly,
    VarContext,
    add_term_into,
    monomials_upto,
    partial_derive,
    poly_is_zero,
    poly_mul,
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


def _validate_frames(ctx: VarContext, terms: Dict[Frame, Poly]) -> None:
    for frame in terms:
        if any(not 0 <= i < ctx.n for i in frame):
            raise ValueError(f"frame index out of range in {frame!r}")
        if any(a >= b for a, b in zip(frame, frame[1:])):
            raise ValueError(f"frame must be strictly increasing: {frame!r}")


@dataclass(frozen=True)
class PolyVector:
    """Multivector field: map {strictly increasing frame -> coefficient}."""

    ctx: VarContext
    terms: Dict[Frame, Poly]

    def __post_init__(self) -> None:
        _validate_frames(self.ctx, self.terms)


@dataclass(frozen=True)
class DiffForm:
    """Differential form: map {strictly increasing coframe -> coefficient}."""

    ctx: VarContext
    terms: Dict[Frame, Poly]

    def __post_init__(self) -> None:
        _validate_frames(self.ctx, self.terms)


# ---------------------------------------------------------------------------
# constructors


def mv_zero(ctx: VarContext) -> PolyVector:
    return PolyVector(ctx, {})


def _collect(terms: Iterable[Tuple[Frame, Poly]]) -> Dict[Frame, Poly]:
    """Sum caller-supplied terms into a fresh zero-free map of Fraction coefficients."""
    out: Dict[Frame, Poly] = {}
    for frame, poly in terms:
        frame = tuple(frame)
        acc = out.get(frame)
        if acc and poly and len(next(iter(acc))) != len(next(iter(poly))):
            raise ValueError("polynomials built over different variable counts")
        add_term_into(out, frame, {e: Fraction(c) for e, c in poly.items() if c})
    return out


def _add_mv_into(out: Dict[Frame, Poly], v, factor=1) -> Dict[Frame, Poly]:
    """Add factor·v (a PolyVector or DiffForm) into the term map out; returns out."""
    for frame, poly in v.terms.items():
        add_term_into(out, frame, poly, factor)
    return out


def mv_make(ctx: VarContext, terms: Iterable[Tuple[Frame, Poly]]) -> PolyVector:
    """Validating constructor: sums the given terms, dropping whatever cancels."""
    return PolyVector(ctx, _collect(terms))


def mv_func(ctx: VarContext, poly: Poly) -> PolyVector:
    """Embed a polynomial as a degree-0 multivector."""
    return mv_make(ctx, [((), poly)])


def mv_frame(ctx: VarContext, frame: Frame, coeff: Fraction = Fraction(1)) -> PolyVector:
    """The constant-coefficient wedge of coordinate derivations."""
    p: Poly = {(0,) * ctx.n: Fraction(coeff)} if coeff else {}
    return mv_make(ctx, [(tuple(frame), p)])


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
    c = Fraction(c)
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
# wedge products


def _merge_frames(f1: Frame, f2: Frame) -> Optional[Tuple[int, Frame]]:
    """Merge two increasing frames; return (sign, merged) or None on overlap.

    The sign is the parity of the number of pairs (i in f1, j in f2) with
    j < i — the transpositions needed to interleave the blocks.
    """
    if not f1:
        return 1, f2
    if not f2:
        return 1, f1
    inv = 0
    merged: List[int] = []
    i = j = 0
    while i < len(f1) and j < len(f2):
        a, b = f1[i], f2[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            inv += len(f1) - i
            j += 1
    merged.extend(f1[i:])
    merged.extend(f2[j:])
    return (-1 if inv % 2 else 1), tuple(merged)


def _wedge_terms(a, b) -> Dict[Frame, Poly]:
    """Terms of a ^ b, for two multivectors or two forms."""
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")
    out: Dict[Frame, Poly] = {}
    for f1, p1 in a.terms.items():
        for f2, p2 in b.terms.items():
            m = _merge_frames(f1, f2)
            if m is not None:
                sign, merged = m
                add_term_into(out, merged, poly_mul(p1, p2), sign)
    return out


def wedge_mv(a: PolyVector, b: PolyVector) -> PolyVector:
    return PolyVector(a.ctx, _wedge_terms(a, b))


def form_wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    return DiffForm(a.ctx, _wedge_terms(a, b))


# ---------------------------------------------------------------------------
# Schouten bracket


def _right_theta_derivative(frame: Frame, i: int) -> Optional[Tuple[int, Frame]]:
    """Right derivative of the Grassmann monomial theta_frame by theta_i.

    Returns (sign, frame without i); the right derivative of a length-k
    monomial at 1-based position p carries (-1)^(k-p).
    """
    try:
        pos = frame.index(i)
    except ValueError:
        return None
    k = len(frame)
    sign = -1 if (k - pos - 1) % 2 else 1
    return sign, frame[:pos] + frame[pos + 1 :]


def _half_bracket_into(
    out: Dict[Frame, Poly], f1: Frame, p1: Poly, f2: Frame, p2: Poly, factor: int
) -> None:
    """Add factor·D(a,b) into out for single terms a = p1 theta_{f1}, b = p2 theta_{f2}."""
    for i in f1:
        dp2 = partial_derive(p2, i)
        if poly_is_zero(dp2):
            continue
        rd = _right_theta_derivative(f1, i)
        assert rd is not None
        sign, reduced = rd
        m = _merge_frames(reduced, f2)
        if m is None:
            continue
        msign, merged = m
        add_term_into(out, merged, poly_mul(p1, dp2), factor * sign * msign)


def schouten(a: PolyVector, b: PolyVector) -> PolyVector:
    """Schouten bracket, extended bilinearly over homogeneous components.

    Degree |a|+|b|-1; graded antisymmetric with respect to the shifted
    degrees: [a,b] = -(-1)^{(|a|-1)(|b|-1)} [b,a].
    """
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")
    out: Dict[Frame, Poly] = {}
    for f1, p1 in a.terms.items():
        for f2, p2 in b.terms.items():
            _half_bracket_into(out, f1, p1, f2, p2, 1)
            flip = -1 if ((len(f1) - 1) * (len(f2) - 1)) % 2 else 1
            _half_bracket_into(out, f2, p2, f1, p1, -flip)
    return PolyVector(a.ctx, out)


# ---------------------------------------------------------------------------
# exterior derivative, contraction, i_a


def d_form(w: DiffForm) -> DiffForm:
    out: Dict[Frame, Poly] = {}
    for coframe, poly in w.terms.items():
        for i in range(w.ctx.n):
            dp = partial_derive(poly, i)
            if poly_is_zero(dp):
                continue
            m = _merge_frames((i,), coframe)
            if m is not None:
                sign, merged = m
                add_term_into(out, merged, dp, sign)
    return DiffForm(w.ctx, out)


def contract(alpha: DiffForm, v: PolyVector) -> PolyVector:
    """Left interior pairing of a one-form against a multivector.

    <alpha, X_1 ^ ... ^ X_k> = sum_i (-1)^(i-1) alpha(X_i) X_1 ^ ... ^ X_k
    with slot i removed; A-bilinear in both arguments.
    """
    if alpha.ctx != v.ctx:
        raise ValueError("context mismatch")
    if any(len(c) != 1 for c in alpha.terms):
        raise ValueError("contract expects a homogeneous one-form")
    out: Dict[Frame, Poly] = {}
    for coframe, g in alpha.terms.items():
        j = coframe[0]
        for frame, f in v.terms.items():
            try:
                pos = frame.index(j)
            except ValueError:
                continue
            reduced = frame[:pos] + frame[pos + 1 :]
            add_term_into(out, reduced, poly_mul(g, f), -1 if pos % 2 else 1)
    return PolyVector(v.ctx, out)


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
