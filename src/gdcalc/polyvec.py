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

Both types hold the term engine's TermMap (``_fastterms``): a map
{(frame bitmask, exponents): coefficient}, an int wherever the denominator
is 1, with no stored zeros.  ``terms`` builds the frame-tuple map above from
it on each read.  The public constructors ``PolyVector(ctx, terms)`` and
``DiffForm(ctx, terms)`` and the summing ``mv_make``/``form_make`` check
caller-supplied terms once: strictly increasing frames of indices in range,
one exponent per variable, and int or Fraction coefficients (nonzero, in
nonempty polynomials, for the direct constructors).  Every value the
library computes is built unchecked from the engine's output.  A
multivector and a form are never interchangeable: each operation refuses an
operand of the other type.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ._fastterms import (
    FastCtx,
    TermKey,
    TermMap,
    _shared_tables,
    phi_into,
    schouten_into,
    tm_add_into,
    wedge_into,
)
from .exactcore import Exponents, Poly, VarContext, exact_scalar, grlex_key, monomials_upto

Frame = Tuple[int, ...]

__all__ = [
    "DiffForm",
    "Frame",
    "PolyVector",
    "basis_keys",
    "basis_multivectors",
    "canonical_keys",
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


def _termmap(ctx: VarContext, terms: Iterable[Tuple[Frame, Poly]], strict: bool) -> TermMap:
    """Caller-supplied (frame, polynomial) pairs summed into a checked TermMap.

    Refuses a frame that is not strictly increasing over indices below n,
    an exponent tuple without one entry per variable, and a coefficient
    that is not an int or a Fraction; ``strict`` also refuses an empty
    polynomial and a stored zero.  Whatever cancels is dropped.
    """
    n = ctx.n
    tm: TermMap = {}
    for frame, poly in terms:
        frame = tuple(frame)
        if any(not 0 <= i < n for i in frame):
            raise ValueError(f"frame index out of range in {frame!r}")
        if any(a >= b for a, b in zip(frame, frame[1:])):
            raise ValueError(f"frame must be strictly increasing: {frame!r}")
        if strict and not poly:
            raise ValueError(f"coefficient of {frame!r} is the empty polynomial")
        m = sum(1 << i for i in frame)
        for exps, c in poly.items():
            if len(exps) != n:
                raise ValueError(
                    "polynomials built over different variable counts: "
                    f"{exps!r} in a {n}-variable context"
                )
            if type(c) is not int and type(c) is not Fraction:
                raise ValueError(f"coefficient {c!r} of {frame!r} is not an int or a Fraction")
            if strict and not c:
                raise ValueError(f"coefficient of {frame!r} stores a zero")
            key = (m, exps)
            if key in tm:
                c += tm[key]
            if c:
                tm[key] = c if c.denominator != 1 else c.numerator
            else:
                tm.pop(key, None)
    return tm


class _Terms:
    """A context and one TermMap; ``terms`` is the frame-tuple view, built on each read."""

    __slots__ = ("ctx", "_tm")

    def __init__(self, ctx: VarContext, terms: Dict[Frame, Poly]):
        self.ctx, self._tm = ctx, _termmap(ctx, terms.items(), True)

    @classmethod
    def _wrap(cls, ctx: VarContext, tm: TermMap):
        """The value holding the engine-built, zero-free tm, unchecked; integral
        Fractions in tm become ints."""
        for key, c in tm.items():
            if type(c) is not int and c.denominator == 1:
                tm[key] = c.numerator
        v = object.__new__(cls)
        v.ctx, v._tm = ctx, tm
        return v

    @property
    def terms(self) -> Dict[Frame, Poly]:
        bits = _shared_tables(self.ctx.n)[1]
        out: Dict[Frame, Poly] = {}
        for (m, exps), c in self._tm.items():
            out.setdefault(bits[m], {})[exps] = Fraction(c)
        return out

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ctx == other.ctx and self._tm == other._tm

    def __repr__(self) -> str:
        return f"{type(self).__name__}(ctx={self.ctx!r}, terms={self.terms!r})"


class PolyVector(_Terms):
    """Multivector field: map {strictly increasing frame -> coefficient}."""

    __slots__ = ()


class DiffForm(_Terms):
    """Differential form: map {strictly increasing coframe -> coefficient}."""

    __slots__ = ()


def _operands(cls, *vs) -> VarContext:
    """The common context of vs; ValueError unless each is a cls over it."""
    for v in vs:
        if not isinstance(v, cls):
            raise ValueError(f"expected a {cls.__name__}, got a {type(v).__name__}")
    ctx = vs[0].ctx
    if any(v.ctx != ctx for v in vs):
        raise ValueError("context mismatch")
    return ctx


# ---------------------------------------------------------------------------
# constructors


def mv_zero(ctx: VarContext) -> PolyVector:
    return PolyVector._wrap(ctx, {})


def mv_make(ctx: VarContext, terms: Iterable[Tuple[Frame, Poly]]) -> PolyVector:
    """Validating constructor: sums the given terms, dropping whatever cancels."""
    return PolyVector._wrap(ctx, _termmap(ctx, terms, False))


def mv_func(ctx: VarContext, poly: Poly) -> PolyVector:
    """Embed a polynomial as a degree-0 multivector."""
    return mv_make(ctx, [((), poly)])


def mv_frame(ctx: VarContext, frame: Frame, coeff: Fraction = Fraction(1)) -> PolyVector:
    """The constant-coefficient wedge of coordinate derivations."""
    return mv_make(ctx, [(tuple(frame), {(0,) * ctx.n: coeff})])


def form_zero(ctx: VarContext) -> DiffForm:
    return DiffForm._wrap(ctx, {})


def form_make(ctx: VarContext, terms: Iterable[Tuple[Frame, Poly]]) -> DiffForm:
    """Validating constructor for forms, summing like ``mv_make``."""
    return DiffForm._wrap(ctx, _termmap(ctx, terms, False))


# ---------------------------------------------------------------------------
# linear structure


def _sum(cls, a, b, s: int):
    ctx = _operands(cls, a, b)
    acc = dict(a._tm)
    tm_add_into(acc, b._tm, s)
    return cls._wrap(ctx, acc)


def mv_add(a: PolyVector, b: PolyVector) -> PolyVector:
    return _sum(PolyVector, a, b, 1)


def mv_neg(a: PolyVector) -> PolyVector:
    return PolyVector._wrap(_operands(PolyVector, a), {k: -c for k, c in a._tm.items()})


def mv_sub(a: PolyVector, b: PolyVector) -> PolyVector:
    return _sum(PolyVector, a, b, -1)


def mv_scale(a: PolyVector, c) -> PolyVector:
    """c·a; c must be an int or a Fraction, else ``ValueError``."""
    c = exact_scalar(c)
    ctx = _operands(PolyVector, a)
    if c == 0:
        return mv_zero(ctx)
    return PolyVector._wrap(ctx, {k: v * c for k, v in a._tm.items()})


def mv_is_zero(a: PolyVector) -> bool:
    return not a._tm


def mv_eq(a: PolyVector, b: PolyVector) -> bool:
    return a == b


def mv_degrees(a: PolyVector) -> Tuple[int, ...]:
    return tuple(sorted({m.bit_count() for m, _ in a._tm}))


def mv_homogeneous_degree(a: PolyVector) -> Optional[int]:
    """The common frame length, or None if mixed/zero."""
    degs = mv_degrees(a)
    return degs[0] if len(degs) == 1 else None


def mv_component(a: PolyVector, k: int) -> PolyVector:
    ctx = _operands(PolyVector, a)
    return PolyVector._wrap(ctx, {key: c for key, c in a._tm.items() if key[0].bit_count() == k})


def form_add(a: DiffForm, b: DiffForm) -> DiffForm:
    return _sum(DiffForm, a, b, 1)


def form_is_zero(a: DiffForm) -> bool:
    return not a._tm


def form_degree(a: DiffForm) -> Optional[int]:
    degs = {m.bit_count() for m, _ in a._tm}
    return degs.pop() if len(degs) == 1 else None


# ---------------------------------------------------------------------------
# wedge products and the Schouten bracket


def _binary(into, cls, a, b):
    """a op b for the engine's summing form of a bilinear operation on cls values."""
    ctx = _operands(cls, a, b)
    acc: TermMap = {}
    into(FastCtx(ctx.n), a._tm, b._tm, 1, acc)
    return cls._wrap(ctx, acc)


def wedge_mv(a: PolyVector, b: PolyVector) -> PolyVector:
    return _binary(wedge_into, PolyVector, a, b)


def form_wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    return _binary(wedge_into, DiffForm, a, b)


def schouten(a: PolyVector, b: PolyVector) -> PolyVector:
    """Schouten bracket, extended bilinearly over homogeneous components.

    Degree |a|+|b|-1; graded antisymmetric with respect to the shifted
    degrees: [a,b] = -(-1)^{(|a|-1)(|b|-1)} [b,a].
    """
    return _binary(schouten_into, PolyVector, a, b)


# ---------------------------------------------------------------------------
# exterior derivative, contraction, i_a


def d_form(w: DiffForm) -> DiffForm:
    """dw = sum_i dx_i ^ d(w)/dx_i; dx_i moves past the coframe indices below i."""
    ctx = _operands(DiffForm, w)
    acc: TermMap = {}
    for (m, exps), c in w._tm.items():
        for i, e in enumerate(exps):
            bit = 1 << i
            if not e or m & bit:
                continue
            key = (m | bit, exps[:i] + (e - 1,) + exps[i + 1 :])
            v = acc.get(key, 0) + (-c * e if (m & (bit - 1)).bit_count() & 1 else c * e)
            if v:
                acc[key] = v
            else:
                del acc[key]
    return DiffForm._wrap(ctx, acc)


def contract(alpha: DiffForm, v: PolyVector) -> PolyVector:
    """Left interior pairing of a one-form against a multivector.

    <alpha, X_1 ^ ... ^ X_k> = sum_i (-1)^(i-1) alpha(X_i) X_1 ^ ... ^ X_k
    with slot i removed; A-bilinear in both arguments.  This is the
    contraction cochain of alpha on one argument, whose sign does not
    depend on the argument's degree, so mixed-degree v is fine.
    """
    ctx = _operands(PolyVector, v)
    if _operands(DiffForm, alpha) != ctx:
        raise ValueError("context mismatch")
    if any(m.bit_count() != 1 for m, _ in alpha._tm):
        raise ValueError("contract expects a homogeneous one-form")
    acc: TermMap = {}
    phi_into(FastCtx(ctx.n), alpha._tm, [v._tm], 1, acc)
    return PolyVector._wrap(ctx, acc)


def i_func_mv(a: Poly, v: PolyVector) -> PolyVector:
    """Contraction of a multivector against a function through the bracket.

    Defined as [v, a] (the bracket with a placed in degree 0); lowers the
    multivector degree by one and satisfies
    i_a(v) = (-1)^{|v|-1} <da, v> on homogeneous v.
    """
    return schouten(v, mv_func(v.ctx, a))


# ---------------------------------------------------------------------------
# canonical bases


def basis_keys(
    n: int, max_poly_degree: int, degrees: Iterable[int]
) -> Iterator[Tuple[int, Exponents, int]]:
    """(frame mask, exponents, degree) of each single-term basis element.

    The canonical order: degree as given, then frame, then monomial
    (grlex).  A degree above n has no frames, so it yields nothing.
    """
    monos = list(monomials_upto(n, max_poly_degree))
    for k in degrees:
        for frame in itertools.combinations(range(n), k):
            m = sum(1 << i for i in frame)
            for exps in monos:
                yield m, exps, k


def canonical_keys(n: int, keys: Iterable[TermKey]) -> List[TermKey]:
    """TermMap keys sorted in the order of ``basis_keys``: frame degree, frame, grlex monomial."""
    bits = _shared_tables(n)[1]
    return sorted(keys, key=lambda key: (len(bits[key[0]]), bits[key[0]], grlex_key(key[1])))


def basis_multivectors(
    ctx: VarContext, max_poly_degree: int, mv_degrees: Sequence[int]
) -> List[PolyVector]:
    """Single-term basis elements x^e theta_frame within the given bounds.

    Deterministic order: that of ``basis_keys``. Every element has
    coefficient 1.
    """
    keys = basis_keys(ctx.n, max_poly_degree, mv_degrees)
    return [PolyVector._wrap(ctx, {(m, exps): 1}) for m, exps, _ in keys]
