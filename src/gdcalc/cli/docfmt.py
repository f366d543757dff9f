"""The ``gdt 1`` document format: parsing and canonical serialization.

A document is plain text, line-delimited, UTF-8, LF endings:

    gdt 1
    context <name> <name> ...
    <kind line>
    <content lines>
    end

Kind lines and their content:

``polynomial``
    ``term <rat> : <e1> ... <en>`` — one monomial per line.
``multivector`` / ``form``
    ``term <rat> @ <i1> ... <ik> : <e1> ... <en>`` — frame (resp.
    coframe) indices strictly increasing, possibly empty.
``multidiffop <arity>``
    ``term <rat> : <e1> ... <en> @ <o...> | <o...>`` — after ``@``,
    exactly ``arity`` blocks of n derivative orders separated by ``|``;
    for arity 0 the ``@`` section is omitted.
``artin-series <truncation>``
    ``order <k>`` lines (strictly increasing, 1 <= k <= truncation),
    each followed by multivector term lines.
``cochain-spec m`` / ``cochain-spec phi <arity>``
    ``m`` has no content; ``phi`` is followed by form term lines.
``problem <tag>``
    ``field <name> <kind...>`` headers, each followed by that kind's
    content lines; field names unique, serialized alphabetically.

Rationals are ``p/q`` with the denominator omitted when it is 1.
Canonical serialization sorts terms (graded-lex monomials; multivector
and form terms, read straight from their TermMaps, in
``polyvec.canonical_keys`` order: frame length, frame, monomial; operator
terms by their order blocks), drops zero coefficients, and uses single
spaces.  ``parse`` is lenient about repeated keys (coefficients
accumulate) and extra blank lines, so ``serialize(parse(text)) == text``
is guaranteed on canonical documents only.

One reader, ``_terms``, parses the term lines of every payload kind and
refuses a malformed one with its line number.  The parsed terms go straight
to the payload's constructor (``poly_from_terms``, ``mv_make``/``form_make``
or ``mdo_make``), which sums repeated terms and drops what cancels.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..exactcore import (
    Exponents,
    Poly,
    VarContext,
    format_rat,
    grlex_key,
    parse_rat,
    poly_from_terms,
)
from ..polyvec import DiffForm, PolyVector, canonical_keys, form_make, mv_make

if TYPE_CHECKING:
    from ..deform import ArtinSeries
    from ..hochschild import MultiDiffOp

__all__ = [
    "ParseError",
    "Document",
    "CochainSpec",
    "Problem",
    "parse_document",
    "serialize_document",
    "doc_polynomial",
    "doc_multivector",
    "doc_form",
    "doc_multidiffop",
    "doc_series",
    "doc_cochain_spec",
    "doc_problem",
]

FORMAT_VERSION = "1"

# Operator and series payloads name their types as strings: their modules
# are imported only by the parse functions that build them (see gdcalc.cli).
Payload = Union[
    Poly, PolyVector, DiffForm, "MultiDiffOp", "ArtinSeries", "CochainSpec", "Problem"
]


class ParseError(ValueError):
    """Malformed document; carries the 1-based source line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


@dataclass(frozen=True)
class CochainSpec:
    """Either the bracket cochain (`m`) or a contraction cochain (`phi`)."""

    tag: str  # "m" | "phi"
    arity: Optional[int]  # phi only
    form: Optional[DiffForm]  # phi only


@dataclass(frozen=True)
class Problem:
    tag: str
    fields: Dict[str, "Document"]


@dataclass(frozen=True)
class Document:
    ctx: VarContext
    kind: str
    payload: Payload


# ---------------------------------------------------------------------------
# parsing


class _Lines:
    def __init__(self, text: str):
        self.rows: List[Tuple[int, List[str]]] = []
        for no, raw in enumerate(text.split("\n"), start=1):
            toks = raw.split()
            if toks:
                self.rows.append((no, toks))
        self.pos = 0
        self.last_no = self.rows[-1][0] if self.rows else 1

    def peek(self) -> Optional[Tuple[int, List[str]]]:
        return self.rows[self.pos] if self.pos < len(self.rows) else None

    def take(self) -> Tuple[int, List[str]]:
        row = self.peek()
        if row is None:
            raise ParseError(self.last_no, "unexpected end of document")
        self.pos += 1
        return row


def _int(tok: str, no: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(no, f"{what}: expected an integer, got {tok!r}") from None


def _nonneg(tok: str, no: int, what: str) -> int:
    v = _int(tok, no, what)
    if v < 0:
        raise ParseError(no, f"{what}: must be nonnegative, got {v}")
    return v


def _rat(tok: str, no: int) -> Fraction:
    try:
        return parse_rat(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(no, f"bad rational {tok!r}") from None


def _exps(toks: Sequence[str], n: int, no: int) -> Exponents:
    if len(toks) != n:
        raise ParseError(no, f"expected {n} exponents, got {len(toks)}")
    return tuple(_nonneg(t, no, "exponent") for t in toks)


# The term-line layouts, each named by the form its lines must take.
_POLY_TERM = "term <rat> : <exps>"
_FRAME_TERM = "term <rat> @ <indices> : <exps>"
_OP_TERM = "term <rat> : <exps> [@ ...]"


def _terms(
    lines: _Lines, n: int, stop: Sequence[str], layout: str, arity: int = 0
) -> Iterator[Tuple[Fraction, tuple, Exponents]]:
    """(coefficient, key, exponents) of each term line up to a ``stop`` keyword.

    The key is the frame of a ``_FRAME_TERM`` line, the ``arity`` order
    blocks of an ``_OP_TERM`` line, and ``()`` otherwise.  Each line is
    checked here and refused with its number; summing repeated terms and
    dropping zeros is left to the payload's constructor.
    """
    while True:
        row = lines.peek()
        if row is None or row[1][0] in stop:
            return
        no, toks = lines.take()
        if toks[0] != "term":
            raise ParseError(no, f"expected a 'term' line, got {toks[0]!r}")
        if len(toks) < 2:
            raise ParseError(no, "term line is missing its coefficient")
        coeff, tail = _rat(toks[1], no), toks[2:]
        if layout is _FRAME_TERM:
            if not tail or tail[0] != "@":
                raise ParseError(no, f"term line must read '{layout}'")
            try:
                colon = tail.index(":")
            except ValueError:
                raise ParseError(no, "term line is missing ':' before exponents") from None
            key = tuple(_nonneg(t, no, "index") for t in tail[1:colon])
            for i in key:
                if i >= n:
                    raise ParseError(no, f"index {i} out of range for {n} variables")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ParseError(no, "indices must be strictly increasing")
            exps = _exps(tail[colon + 1 :], n, no)
        elif not tail or tail[0] != ":":
            raise ParseError(no, f"term line must read '{layout}'")
        elif not arity:
            key, exps = (), _exps(tail[1:], n, no)
        else:
            try:
                at = tail.index("@")
            except ValueError:
                raise ParseError(
                    no, "operator term needs '@' with one order block per slot"
                ) from None
            exps = _exps(tail[1:at], n, no)
            blocks: List[List[str]] = [[]]
            for t in tail[at + 1 :]:
                if t == "|":
                    blocks.append([])
                else:
                    blocks[-1].append(t)
            if len(blocks) != arity:
                raise ParseError(no, f"expected {arity} order blocks, got {len(blocks)}")
            key = tuple(_exps(b, n, no) for b in blocks)
        yield coeff, key, exps


def _keyed(terms: Iterator[Tuple[Fraction, tuple, Exponents]]):
    """(key, {exponents: coefficient}) pairs, as ``mv_make`` and ``mdo_make`` take them."""
    return ((key, {e: c}) for c, key, e in terms)


def _parse_series(lines: _Lines, ctx: VarContext, truncation: int) -> ArtinSeries:
    from ..deform import ArtinRing, series_make

    coeffs: Dict[int, PolyVector] = {}
    prev = 0
    while True:
        row = lines.peek()
        if row is None or row[1][0] in ("end", "field"):
            return series_make(ArtinRing(truncation), coeffs)  # drops zero orders
        no, toks = lines.take()
        if toks[0] != "order":
            raise ParseError(no, f"expected an 'order' line, got {toks[0]!r}")
        if len(toks) != 2:
            raise ParseError(no, "order line must read 'order <k>'")
        k = _int(toks[1], no, "order")
        if k <= prev:
            raise ParseError(no, "orders must be strictly increasing")
        if not 1 <= k <= truncation:
            raise ParseError(no, f"order {k} outside 1..{truncation}")
        prev = k
        terms = _terms(lines, ctx.n, ("end", "field", "order"), _FRAME_TERM)
        coeffs[k] = mv_make(ctx, _keyed(terms))


_KINDS = (
    "polynomial",
    "multivector",
    "form",
    "multidiffop",
    "artin-series",
    "cochain-spec",
    "problem",
)


def _parse_payload(
    lines: _Lines, ctx: VarContext, kind_toks: Sequence[str], no: int, *, nested: bool
) -> Document:
    stop = ("end", "field") if nested else ("end",)
    kind = kind_toks[0]
    if kind not in _KINDS:
        raise ParseError(no, f"unknown payload kind {kind!r}")
    if kind == "problem" and nested:
        raise ParseError(no, "problem payloads do not nest")
    if kind == "polynomial":
        if len(kind_toks) != 1:
            raise ParseError(no, "polynomial kind line takes no arguments")
        terms = _terms(lines, ctx.n, stop, _POLY_TERM)
        return Document(ctx, kind, poly_from_terms(ctx.n, ((c, e) for c, _, e in terms)))
    if kind in ("multivector", "form"):
        if len(kind_toks) != 1:
            raise ParseError(no, f"{kind} kind line takes no arguments")
        make = mv_make if kind == "multivector" else form_make
        return Document(ctx, kind, make(ctx, _keyed(_terms(lines, ctx.n, stop, _FRAME_TERM))))
    if kind == "multidiffop":
        if len(kind_toks) != 2:
            raise ParseError(no, "multidiffop kind line must read 'multidiffop <arity>'")
        arity = _nonneg(kind_toks[1], no, "arity")
        from ..hochschild import mdo_make

        terms = _terms(lines, ctx.n, stop, _OP_TERM, arity)
        return Document(ctx, kind, mdo_make(ctx, arity, _keyed(terms)))
    if kind == "artin-series":
        if len(kind_toks) != 2:
            raise ParseError(
                no, "artin-series kind line must read 'artin-series <truncation>'"
            )
        truncation = _int(kind_toks[1], no, "truncation")
        if truncation < 1:
            raise ParseError(no, "truncation must be at least 1")
        return Document(ctx, kind, _parse_series(lines, ctx, truncation))
    if kind == "cochain-spec":
        if len(kind_toks) >= 2 and kind_toks[1] == "m":
            if len(kind_toks) != 2:
                raise ParseError(no, "cochain-spec m takes no arguments")
            return Document(ctx, kind, CochainSpec("m", None, None))
        if len(kind_toks) == 3 and kind_toks[1] == "phi":
            arity = _nonneg(kind_toks[2], no, "arity")
            form = form_make(ctx, _keyed(_terms(lines, ctx.n, stop, _FRAME_TERM)))
            return Document(ctx, kind, CochainSpec("phi", arity, form))
        raise ParseError(
            no, "cochain-spec must read 'cochain-spec m' or 'cochain-spec phi <arity>'"
        )
    # problem
    if len(kind_toks) != 2:
        raise ParseError(no, "problem kind line must read 'problem <tag>'")
    tag = kind_toks[1]
    fields: Dict[str, Document] = {}
    while True:
        row = lines.peek()
        if row is None or row[1][0] == "end":
            return Document(ctx, kind, Problem(tag, fields))
        fno, ftoks = lines.take()
        if ftoks[0] != "field":
            raise ParseError(fno, f"expected a 'field' line, got {ftoks[0]!r}")
        if len(ftoks) < 3:
            raise ParseError(fno, "field line must read 'field <name> <kind...>'")
        name = ftoks[1]
        if name in fields:
            raise ParseError(fno, f"duplicate field {name!r}")
        fields[name] = _parse_payload(lines, ctx, ftoks[2:], fno, nested=True)


def parse_document(text: str) -> Document:
    lines = _Lines(text)
    no, toks = lines.take()
    if toks != ["gdt", FORMAT_VERSION]:
        raise ParseError(no, f"header must read 'gdt {FORMAT_VERSION}'")
    no, toks = lines.take()
    if toks[0] != "context" or len(toks) < 2:
        raise ParseError(no, "second line must read 'context <name> ...'")
    names = tuple(toks[1:])
    if len(set(names)) != len(names):
        raise ParseError(no, "variable names must be distinct")
    ctx = VarContext(names)
    no, toks = lines.take()
    doc = _parse_payload(lines, ctx, toks, no, nested=False)
    no, toks = lines.take()
    if toks != ["end"]:
        raise ParseError(no, "document must close with a single 'end' line")
    extra = lines.peek()
    if extra is not None:
        raise ParseError(extra[0], "content after 'end'")
    return doc


# ---------------------------------------------------------------------------
# canonical serialization


def _ser_poly_lines(p: Poly) -> List[str]:
    return [
        f"term {format_rat(p[e])} : {' '.join(str(x) for x in e)}"
        for e in sorted(p, key=grlex_key)
    ]


def _ser_frame_lines(v: Union[PolyVector, DiffForm]) -> List[str]:
    tm, n = v._tm, v.ctx.n
    out = []
    for m, e in canonical_keys(n, tm):
        fr = " ".join(str(i) for i in range(n) if m >> i & 1)
        at = f"@ {fr} :" if fr else "@ :"
        out.append(f"term {format_rat(tm[m, e])} {at} {' '.join(str(x) for x in e)}")
    return out


def _ser_mdo_lines(D: MultiDiffOp) -> List[str]:
    out = []
    for orders, p in sorted(D.terms.items()):  # each orders tuple once, so no dict compares
        blocks = " | ".join(" ".join(str(x) for x in o) for o in orders)
        suffix = f" @ {blocks}" if D.arity else ""
        for e in sorted(p, key=grlex_key):
            mono = " ".join(str(x) for x in e)
            out.append(f"term {format_rat(p[e])} : {mono}{suffix}")
    return out


def _ser_payload(doc: Document) -> List[str]:
    kind, payload = doc.kind, doc.payload
    if kind == "polynomial":
        return ["polynomial"] + _ser_poly_lines(payload)
    if kind == "multivector":
        return ["multivector"] + _ser_frame_lines(payload)
    if kind == "form":
        return ["form"] + _ser_frame_lines(payload)
    if kind == "multidiffop":
        return [f"multidiffop {payload.arity}"] + _ser_mdo_lines(payload)
    if kind == "artin-series":
        lines = [f"artin-series {payload.ring.truncation}"]
        for k in sorted(payload.coeffs):
            lines.append(f"order {k}")
            lines.extend(_ser_frame_lines(payload.coeffs[k]))
        return lines
    if kind == "cochain-spec":
        if payload.tag == "m":
            return ["cochain-spec m"]
        return [f"cochain-spec phi {payload.arity}"] + _ser_frame_lines(payload.form)
    if kind == "problem":
        lines = [f"problem {payload.tag}"]
        for name in sorted(payload.fields):
            sub = _ser_payload(payload.fields[name])
            lines.append(f"field {name} {sub[0]}")
            lines.extend(sub[1:])
        return lines
    raise ValueError(f"unknown document kind {kind!r}")


def serialize_document(doc: Document) -> str:
    lines = [f"gdt {FORMAT_VERSION}", "context " + " ".join(doc.ctx.names)]
    lines.extend(_ser_payload(doc))
    lines.append("end")
    return "\n".join(lines) + "\n"


# convenience constructors


def doc_polynomial(ctx: VarContext, p: Poly) -> Document:
    return Document(ctx, "polynomial", p)


def doc_multivector(v: PolyVector) -> Document:
    return Document(v.ctx, "multivector", v)


def doc_form(a: DiffForm) -> Document:
    return Document(a.ctx, "form", a)


def doc_multidiffop(D: MultiDiffOp) -> Document:
    return Document(D.ctx, "multidiffop", D)


def doc_series(ctx: VarContext, s: ArtinSeries) -> Document:
    return Document(ctx, "artin-series", s)


def doc_cochain_spec(ctx: VarContext, spec: CochainSpec) -> Document:
    return Document(ctx, "cochain-spec", spec)


def doc_problem(ctx: VarContext, tag: str, fields: Dict[str, Document]) -> Document:
    return Document(ctx, "problem", Problem(tag, dict(fields)))
