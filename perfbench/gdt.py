"""Plain-dict exact algebra and `gdt 1` text, written independently of gdcalc.

The benchmark builds its input documents and reads the program's output
documents with this module, so a defect in gdcalc's own parser or
serializer cannot hide a wrong answer.  Objects are plain dicts:

* a polynomial is ``{exponents: Fraction}``;
* a multivector field or form is ``{frame: polynomial}`` with the frame a
  strictly increasing index tuple;
* a series is ``{order: multivector}``;
* a multidifferential operator is ``{slot_orders: polynomial}``.

Zero coefficients and empty entries are always dropped, so two objects are
equal exactly when the dicts are equal.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

Exps = Tuple[int, ...]
Poly = Dict[Exps, Fraction]
Frame = Tuple[int, ...]
FrameMap = Dict[Frame, Poly]


# ---------------------------------------------------------------------------
# polynomials


def padd(p: Poly, q: Poly, s=1) -> Poly:
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + s * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pmul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def pscale(p: Poly, c) -> Poly:
    return {e: v * c for e, v in p.items()} if c else {}


def pderiv(p: Poly, i: int) -> Poly:
    out: Poly = {}
    for e, c in p.items():
        if e[i]:
            f = list(e)
            f[i] -= 1
            out[tuple(f)] = c * e[i]
    return out


def det(m: List[List[Poly]]) -> Poly:
    """Determinant by cofactor expansion (small sizes only)."""
    if len(m) == 1:
        return m[0][0]
    total: Poly = {}
    for j, entry in enumerate(m[0]):
        if not entry:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total = padd(total, pmul(entry, det(minor)), -1 if j % 2 else 1)
    return total


# ---------------------------------------------------------------------------
# frames


def sort_frame(frame: Sequence[int]) -> Tuple[int, Frame]:
    """Sign and sorted tuple of a wedge of coordinate directions (0 if repeated)."""
    idx = list(frame)
    if len(set(idx)) != len(idx):
        return 0, ()
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return sign, tuple(idx)


def fm_add(a: FrameMap, b: FrameMap, s=1) -> FrameMap:
    out = dict(a)
    for f, p in b.items():
        q = padd(out.get(f, {}), p, s)
        if q:
            out[f] = q
        else:
            out.pop(f, None)
    return out


def fm_term(frame: Sequence[int], poly: Poly) -> FrameMap:
    """One wedge term ``poly * d_frame``, with the frame put in order."""
    sign, f = sort_frame(frame)
    if not sign or not poly:
        return {}
    return {f: pscale(poly, sign)}


def fm_sum(terms: Iterable[FrameMap]) -> FrameMap:
    out: FrameMap = {}
    for t in terms:
        out = fm_add(out, t)
    return out


def d_of_term(frame: Sequence[int], g: Poly, n: int) -> FrameMap:
    """Exterior derivative of ``g dx_frame``."""
    return fm_sum(fm_term((i,) + tuple(frame), pderiv(g, i)) for i in range(n))


# ---------------------------------------------------------------------------
# writing documents


def rat(c: Fraction) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _frame_lines(fm: FrameMap) -> List[str]:
    lines = []
    for frame, p in fm.items():
        fr = " ".join(str(i) for i in frame)
        for e, c in p.items():
            lines.append(f"term {rat(c)} @ {fr}{' ' if fr else ''}: {' '.join(map(str, e))}")
    return lines


def _series_lines(series: Dict[int, FrameMap]) -> List[str]:
    lines = []
    for k in sorted(series):
        if series[k]:
            lines.append(f"order {k}")
            lines.extend(_frame_lines(series[k]))
    return lines


def _header(n: int) -> List[str]:
    return ["gdt 1", "context " + " ".join(f"x{i + 1}" for i in range(n))]


def doc_form(n: int, fm: FrameMap, kind: str = "form") -> str:
    return "\n".join(_header(n) + [kind] + _frame_lines(fm) + ["end"]) + "\n"


def doc_mdo(n: int, arity: int, op: Dict[Tuple[Exps, ...], Poly]) -> str:
    lines = _header(n) + [f"multidiffop {arity}"]
    for orders, p in op.items():
        blocks = " | ".join(" ".join(map(str, o)) for o in orders)
        for e, c in p.items():
            lines.append(f"term {rat(c)} : {' '.join(map(str, e))}" + (f" @ {blocks}" if arity else ""))
    return "\n".join(lines + ["end"]) + "\n"


def doc_problem(n: int, tag: str, fields: Dict[str, Tuple[str, object]]) -> str:
    """Fields map a name to ``("form"|"multivector", FrameMap)`` or ``(N, series)``."""
    lines = _header(n) + [f"problem {tag}"]
    for name, (kind, value) in fields.items():
        if kind in ("form", "multivector"):
            lines.append(f"field {name} {kind}")
            lines.extend(_frame_lines(value))
        else:
            lines.append(f"field {name} artin-series {kind}")
            lines.extend(_series_lines(value))
    return "\n".join(lines + ["end"]) + "\n"


# ---------------------------------------------------------------------------
# reading documents


class DocError(ValueError):
    pass


def _body(text: str) -> Tuple[str, List[List[str]]]:
    """The kind line and the content rows of a document."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    if len(rows) < 4 or rows[0] != ["gdt", "1"] or rows[1][0] != "context" or rows[-1] != ["end"]:
        raise DocError("not a gdt 1 document")
    return " ".join(rows[2]), rows[3:-1]


def _frame_row(toks: List[str]) -> Tuple[Frame, Exps, Fraction]:
    if toks[0] != "term" or toks[2] != "@" or ":" not in toks:
        raise DocError(f"bad term line {' '.join(toks)!r}")
    colon = toks.index(":")
    return (
        tuple(int(t) for t in toks[3:colon]),
        tuple(int(t) for t in toks[colon + 1:]),
        Fraction(toks[1]),
    )


def _acc(fm: FrameMap, frame: Frame, e: Exps, c: Fraction) -> None:
    p = fm.setdefault(frame, {})
    p[e] = p.get(e, 0) + c
    if not p[e]:
        del p[e]
    if not p:
        del fm[frame]


def read_multivector(text: str) -> FrameMap:
    kind, rows = _body(text)
    if kind != "multivector":
        raise DocError(f"expected a multivector document, got {kind!r}")
    fm: FrameMap = {}
    for toks in rows:
        _acc(fm, *_frame_row(toks))
    return fm


def read_series(text: str) -> Dict[int, FrameMap]:
    kind, rows = _body(text)
    if not kind.startswith("artin-series"):
        raise DocError(f"expected a series document, got {kind!r}")
    out: Dict[int, FrameMap] = {}
    cur = None
    for toks in rows:
        if toks[0] == "order":
            cur = out.setdefault(int(toks[1]), {})
        elif cur is None:
            raise DocError("term before the first order line")
        else:
            _acc(cur, *_frame_row(toks))
    return {k: v for k, v in out.items() if v}


def read_mdo(text: str) -> Tuple[int, Dict[Tuple[Exps, ...], Poly]]:
    kind, rows = _body(text)
    if not kind.startswith("multidiffop "):
        raise DocError(f"expected an operator document, got {kind!r}")
    arity = int(kind.split()[1])
    op: Dict[Tuple[Exps, ...], Poly] = {}
    for toks in rows:
        if "@" in toks:
            at = toks.index("@")
            blocks = " ".join(toks[at + 1:]).split("|")
            orders = tuple(tuple(int(t) for t in b.split()) for b in blocks)
        else:
            at, orders = len(toks), ()
        if toks[0] != "term" or toks[2] != ":":
            raise DocError(f"bad operator term {' '.join(toks)!r}")
        e = tuple(int(t) for t in toks[3:at])
        p = op.setdefault(orders, {})
        p[e] = p.get(e, 0) + Fraction(toks[1])
        if not p[e]:
            del p[e]
        if not p:
            del op[orders]
    return arity, op


def split_report(text: str, marker: str) -> Tuple[Dict[str, str], str]:
    """Split a text report into its ``key value`` header and the embedded document.

    The header ends at the line equal to ``marker``; everything after it is
    the document.  Without the marker the whole text is header.
    """
    head, sep, doc = text.partition(f"\n{marker}\n")
    fields = {}
    for ln in head.splitlines():
        key, _, value = ln.partition(" ")
        fields[key] = value
    return fields, doc if sep else ""
