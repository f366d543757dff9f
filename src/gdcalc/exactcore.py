"""Exact scalars, sparse polynomials, multi-indices, and the Koszul sign engine.

Everything downstream (multivectors, forms, cochains, the deformation
solver) is built on the primitives in this module:

* scalars are ``fractions.Fraction`` — always reduced, exact, hashable;
* a polynomial is a sparse dict mapping an exponent tuple to a nonzero
  coefficient; the zero polynomial is the empty dict;
* the Koszul sign engine computes the sign a permutation of graded objects
  picks up, with the convention that transposing objects of degrees p and q
  contributes ``(-1)**(p*q)``.

All operations are pure: inputs are never mutated, outputs are freshly
built dicts in canonical form (no explicit zero coefficients are ever
stored).  The exceptions are the two in-place accumulators, which add into
a map the caller owns and leave their polynomial arguments untouched:
``add_term_into``, with which multivectors, forms, cochain values and
multidifferential operators sum their ``(key, polynomial)`` terms, and
``mul_into``, which adds a product of two polynomials into a polynomial
(``poly_mul`` is ``mul_into`` on a fresh dict, and the Hochschild braces
multiply-accumulate through it).  A factor of ±1 is applied by copying or
negating, never by a ``Fraction`` multiplication.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple

Exponents = Tuple[int, ...]
Poly = Dict[Exponents, Fraction]

__all__ = [
    "Exponents",
    "Poly",
    "VarContext",
    "add_term_into",
    "exact_scalar",
    "format_rat",
    "grlex_key",
    "koszul_sign",
    "koszul_unshuffle_sign",
    "monomials_upto",
    "mul_into",
    "parse_rat",
    "partial_derive",
    "poly_add",
    "poly_const",
    "poly_from_terms",
    "poly_is_zero",
    "poly_mul",
    "poly_neg",
    "poly_scale",
    "poly_sub",
    "poly_total_degree",
    "poly_var",
    "poly_zero",
]


@dataclass(frozen=True)
class VarContext:
    """An ordered tuple of distinct variable names (the coordinate chart)."""

    names: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"variable names must be distinct: {self.names!r}")

    @property
    def n(self) -> int:
        return len(self.names)


def poly_zero() -> Poly:
    return {}


def poly_const(n: int, c) -> Poly:
    c = exact_scalar(c)
    if c == 0:
        return {}
    return {(0,) * n: c}


def poly_var(n: int, i: int) -> Poly:
    """The coordinate polynomial x_i (0-based index)."""
    if not 0 <= i < n:
        raise IndexError(f"variable index {i} out of range for n={n}")
    e = [0] * n
    e[i] = 1
    return {tuple(e): Fraction(1)}


def exact_scalar(c) -> Fraction:
    """c as a Fraction; ValueError unless c is an int or a Fraction.

    Fraction() would store a float as its binary value (0.1 becomes
    3602879701896397/36028797018963968), so constructors refuse one.
    """
    if type(c) is not int and type(c) is not Fraction:
        raise ValueError(f"coefficient {c!r} is not an int or a Fraction")
    return Fraction(c)


def poly_from_terms(n: int, terms: Iterable[Tuple[object, Exponents]]) -> Poly:
    """Build a polynomial from (coefficient, exponents) pairs, canonicalizing.

    Each coefficient must be an int or a Fraction.
    """
    out: Poly = {}
    for c, exps in terms:
        c = exact_scalar(c)
        exps = tuple(exps)
        if len(exps) != n:
            raise ValueError(f"exponent tuple {exps!r} has wrong length (n={n})")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps!r}")
        acc = out.get(exps, _ZERO) + c
        if acc:
            out[exps] = acc
        else:
            out.pop(exps, None)
    return out


_ZERO = Fraction(0)


def poly_is_zero(p: Poly) -> bool:
    return not p


def _check_compatible(p: Poly, q: Poly) -> None:
    if p and q:
        kp = next(iter(p))
        kq = next(iter(q))
        if len(kp) != len(kq):
            raise ValueError("polynomials built over different variable counts")


def poly_add(p: Poly, q: Poly) -> Poly:
    _check_compatible(p, q)
    out = dict(p)
    for exps, c in q.items():
        acc = out.get(exps, _ZERO) + c
        if acc:
            out[exps] = acc
        else:
            out.pop(exps, None)
    return out


def poly_neg(p: Poly) -> Poly:
    return {exps: -c for exps, c in p.items()}


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, poly_neg(q))


def poly_scale(p: Poly, c) -> Poly:
    """c·p; c must be an int or a Fraction, else ``ValueError``."""
    c = exact_scalar(c)
    if c == 0:
        return {}
    if c == 1:
        return dict(p)
    if c == -1:
        return poly_neg(p)
    return {exps: c * v for exps, v in p.items()}


def mul_into(out: Poly, p: Poly, q: Poly) -> None:
    """Add p·q into the polynomial out in place, dropping whatever cancels.

    Each product term costs one multiplication, and one addition only when
    its monomial is already in ``out``.  ``p`` and ``q`` are never mutated;
    they must be over the same variables (``poly_mul`` checks that) and
    must not be ``out`` itself.
    """
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            exps = tuple(map(add, e1, e2))
            v = out.get(exps)
            if v is None:
                out[exps] = c1 * c2
            else:
                v = v + c1 * c2
                if v:
                    out[exps] = v
                else:
                    del out[exps]


def poly_mul(p: Poly, q: Poly) -> Poly:
    _check_compatible(p, q)
    out: Poly = {}
    mul_into(out, p, q)
    return out


def partial_derive(p: Poly, i: int) -> Poly:
    """Exact partial derivative with respect to the i-th variable.

    An index outside the variables raises ``IndexError``; a negative index
    is refused for the zero polynomial too, whose variable count is unknown.
    """
    if i < 0 or (p and i >= len(next(iter(p)))):
        raise IndexError(f"variable index {i} out of range")
    out: Poly = {}
    for exps, c in p.items():
        e = exps[i]
        if e:  # distinct monomials stay distinct, so nothing collides
            out[exps[:i] + (e - 1,) + exps[i + 1 :]] = c * e
    return out


def add_term_into(out: Dict[Hashable, Poly], key: Hashable, poly: Poly, factor=1) -> None:
    """Add factor·poly into out[key] in place, dropping whatever cancels.

    The polynomials stored in ``out`` are owned by it; ``poly`` is never
    mutated.  A factor of 1 copies the coefficients and −1 negates them;
    any other factor is multiplied in.
    """
    if not poly or not factor:
        return
    if factor == 1:
        terms = poly.items()
    elif factor == -1:
        terms = [(e, -c) for e, c in poly.items()]
    else:
        terms = [(e, c * factor) for e, c in poly.items()]
    acc = out.get(key)
    if acc is None:
        out[key] = dict(terms)
        return
    for e, c in terms:
        v = acc.get(e)
        if v is None:
            acc[e] = c
        else:
            v = v + c
            if v:
                acc[e] = v
            else:
                del acc[e]
    if not acc:
        del out[key]


def poly_total_degree(p: Poly) -> int:
    """Total degree; -1 for the zero polynomial."""
    if not p:
        return -1
    return max(sum(e) for e in p)


# ---------------------------------------------------------------------------
# Koszul sign engine


def koszul_sign(degrees: Sequence[int], perm: Sequence[int]) -> int:
    """Sign picked up by permuting graded objects.

    ``perm[i]`` is the original position of the object landing at slot i;
    the sign is the product of ``(-1)**(d_a * d_b)`` over every inversion,
    i.e. every pair moved past each other.
    """
    k = len(degrees)
    if len(perm) != k:
        raise ValueError(f"permutation length {len(perm)} != degree count {k}")
    exponent = 0
    for i in range(k):
        di = degrees[perm[i]]
        if di % 2 == 0:
            continue
        for j in range(i + 1, k):
            if perm[i] > perm[j] and degrees[perm[j]] % 2:
                exponent += 1
    return -1 if exponent % 2 else 1


def koszul_unshuffle_sign(degrees: Sequence[int], subset: Sequence[int]) -> int:
    """Sign for pulling the objects at the given sorted positions to the front.

    Relative order is preserved inside and outside the subset, so the sign
    is the product of (-1)^{d_i d_j} over subset members i jumped past
    earlier non-members j.
    """
    exponent = 0
    chosen = set(subset)
    for i in subset:
        if degrees[i] % 2 == 0:
            continue
        for j in range(i):
            if j not in chosen and degrees[j] % 2:
                exponent += 1
    return -1 if exponent % 2 else 1


# ---------------------------------------------------------------------------
# enumeration, canonical ordering, formatting


def grlex_key(exps: Exponents) -> Tuple[int, Exponents]:
    """Graded-lexicographic sort key (total degree first, then lex)."""
    return (sum(exps), exps)


def monomials_upto(n: int, max_degree: int) -> Iterator[Exponents]:
    """All exponent tuples with total degree <= max_degree, grlex order."""
    if n == 0:
        yield ()
        return

    def gen(d: int) -> Iterator[Exponents]:
        def rec(rem: int, slots: int) -> Iterator[List[int]]:
            if slots == 1:
                yield [rem]
                return
            for lead in range(rem, -1, -1):
                for tail in rec(rem - lead, slots - 1):
                    yield [lead] + tail

        for body in rec(d, n):
            yield tuple(body)

    for d in range(max_degree + 1):
        yield from sorted(gen(d))


def format_rat(c: Fraction) -> str:
    """Serialize a rational as ``p`` or ``p/q`` (canonical reduced form)."""
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def parse_rat(s: str) -> Fraction:
    """Parse ``p`` or ``p/q`` with q > 0; rejects anything else."""
    s = s.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            d = int(den)
            if d <= 0:
                raise ValueError
            return Fraction(int(num), d)
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed rational: {s!r}") from None
