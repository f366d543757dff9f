"""Command-line surface: document transforms, identity checks, verify.

Exit codes: 0 success (or all checks passed), 1 a check failed (identity
violation, twisted-check false, no primitive, not gauge-equivalent),
2 the input was refused: a parse or schema error (the message names the
line), a refused bound (negative, or a sweep that would check nothing), or
any other input the library refuses with ``ValueError``.  ``main`` maps
every such refusal to exit 2 in one place; an internal self-check's
``RuntimeError`` is not caught.
All successful outputs are byte-deterministic for fixed inputs.

Inputs are read one way.  ``_read_all`` reads operand documents, checks
each one's kind in turn, then their shared context; ``_problem`` reads the
named fields of a problem document, checking presence in the order named,
then kinds with the twisting form h first; ``_make_twisted_checked`` is the
one twisting step.  The transforms (``schouten``, ``d``, ``contract``,
``ia`` and ``hoch delta|gb|cup|brace|ia``) are declared once, in
``_TRANSFORMS`` and ``_HOCH_TRANSFORMS``, as (argument, kind) pairs, a
library function and a result kind; that declaration builds their parsers
and drives the one handler, ``cmd_transform``.

Imports follow the commands.  Without a bytecode cache every process
compiles each module it imports, and that compile time is most of a
small command's run, so this module loads at import only what every
command uses: ``docfmt``, ``exactcore``, ``polyvec`` and ``_fastterms``.
Each handler imports the rest of what it calls at the top of its body:
``phi-eval`` and ``twisted-check`` load ``twistcheck``;
``mc-defect``, ``defect-series``, ``mc-solve``, ``gauge`` and
``gauge-equiv`` load ``deform`` (with ``twistcheck`` and ``_linalg``);
``hoch`` loads ``hochschild`` (with ``_linalg``); ``lemma-check`` and
``linfty-check`` load ``_fastsweep``; ``verify`` loads ``suites`` and
through it everything.  ``json`` is loaded only for ``--emit json``.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..exactcore import VarContext, poly_add
from ..polyvec import (  # contract, d_form, i_func_mv, schouten: see _TRANSFORMS
    PolyVector,
    contract,
    d_form,
    form_wedge,
    i_func_mv,
    mv_is_zero,
    schouten,
    wedge_mv,
)
from .docfmt import (
    CochainSpec,
    Document,
    ParseError,
    doc_form,
    doc_multidiffop,
    doc_multivector,
    doc_polynomial,
    doc_series,
    parse_document,
    serialize_document,
)

if TYPE_CHECKING:
    from .._fastsweep import CheckReport

__all__ = ["main"]


def _read_doc(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    try:
        return parse_document(text)
    except ParseError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _want(doc: Document, kind: str, path: str) -> Document:
    if doc.kind != kind:
        article = "an" if kind[0] in "aeiou" else "a"
        raise ValueError(f"{path}: expected {article} {kind} document, found {doc.kind}")
    return doc


def _same_ctx(docs: Sequence[Document], paths: Sequence[str]) -> VarContext:
    ctx = docs[0].ctx
    for d, p in zip(docs[1:], paths[1:]):
        if d.ctx != ctx:
            raise ValueError(f"{p}: context differs from {paths[0]}")
    return ctx


def _read_all(paths: Sequence[str], kinds: Sequence[str]) -> tuple:
    """The context and payloads of documents read and kind-checked in turn.

    A path past the end of ``kinds`` takes the last kind.
    """
    docs = [_want(_read_doc(p), kinds[min(i, len(kinds) - 1)], p) for i, p in enumerate(paths)]
    return _same_ctx(docs, paths), [d.payload for d in docs]


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _emit_json(payload: dict) -> None:
    import json

    _emit(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _term_count(v) -> int:
    """Stored terms of a PolyVector (its TermMap's entries) or a MultiDiffOp
    (its int form's monomials); neither stores zeros."""
    if isinstance(v, PolyVector):
        return len(v._tm)
    return sum(map(len, v._nums.values()))


# The kind of each problem field; h is the twisting 3-form.
_FIELD_KINDS = {
    "h": "form", "pi": "multivector", "pi1": "multivector",
    "series": "artin-series", "xi": "artin-series", "a": "artin-series", "b": "artin-series",
}


def _problem(path: str, *names: str) -> tuple:
    """The context and the named fields' payloads of a problem document.

    Each field's presence is checked in the order named, then each field's
    kind, h first.
    """
    doc = _read_doc(path)
    if doc.kind != "problem":
        raise ValueError(f"{path}: expected a problem document")
    fields = doc.payload.fields
    for n in names:
        if n not in fields:
            raise ValueError(f"{path}: problem is missing field {n!r}")
    for n in sorted(names, key=lambda n: n != "h"):
        _want(fields[n], _FIELD_KINDS[n], path)
    return (doc.ctx, *(fields[n].payload for n in names))


def _make_twisted_checked(h, path: str):
    from ..twistcheck import make_twisted

    try:
        return make_twisted(h)
    except ValueError as exc:  # NotClosedError included
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# document transforms


def cmd_poly(args) -> int:
    ctx, polys = _read_all(args.files, ["polynomial"])
    total = {}
    for p in polys:
        total = poly_add(total, p)
    _emit(serialize_document(doc_polynomial(ctx, total)))
    return 0


def cmd_wedge(args) -> int:
    docs = [_read_doc(p) for p in args.files]
    _same_ctx(docs, args.files)
    kinds = {d.kind for d in docs}
    if kinds == {"multivector"}:
        acc = docs[0].payload
        for d in docs[1:]:
            acc = wedge_mv(acc, d.payload)
        _emit(serialize_document(doc_multivector(acc)))
    elif kinds == {"form"}:
        acc = docs[0].payload
        for d in docs[1:]:
            acc = form_wedge(acc, d.payload)
        _emit(serialize_document(doc_form(acc)))
    else:
        raise ValueError("wedge needs all-multivector or all-form inputs")
    return 0


# Commands that read documents of fixed kinds in one context, apply one
# library function and print its result: (help, (argument, kind) of each
# operand, function, result kind).  An argument named by several operands
# takes that many paths.  A trailing ``...`` lets the last operand repeat;
# its documents reach the function as one list.  The function is named as
# ``[module.]name`` and looked up when its command runs, so ``hochschild``
# loads only for ``hoch`` and a test can put a stand-in in its place.
_TRANSFORMS = {
    "schouten": (
        "bracket of two multivector documents",
        (("a", "multivector"), ("b", "multivector")), "schouten", "multivector",
    ),
    "d": ("exterior derivative of a form document", (("file", "form"),), "d_form", "form"),
    "contract": (
        "pair a one-form against a multivector",
        (("form", "form"), ("multivector", "multivector")), "contract", "multivector",
    ),
    "ia": (
        "contract a multivector by a function",
        (("function", "polynomial"), ("multivector", "multivector")), "i_func_mv", "multivector",
    ),
}
_MDO = ("files", "multidiffop")
_HOCH_TRANSFORMS = {
    "delta": (
        "simplicial differential of an operator document",
        (_MDO,), "hochschild.hoch_delta", "multidiffop",
    ),
    "gb": (
        "Gerstenhaber bracket of two operator documents",
        (_MDO, _MDO), "hochschild.gerstenhaber", "multidiffop",
    ),
    "cup": ("cup product of two operator documents", (_MDO, _MDO), "hochschild.cup", "multidiffop"),
    "brace": (
        "insert operators into the first operand's slots",
        (_MDO, _MDO, ...), "hochschild.brace", "multidiffop",
    ),
    "ia": (
        "contract an operator by a function (polynomial doc first)",
        (("files", "polynomial"), _MDO), "hochschild.i_func_hoch", "multidiffop",
    ),
}


def cmd_transform(args) -> int:
    """Read a transform's operands, apply its library function, print the result."""
    _, operands, function, kind = args.transform
    more = operands[-1] is ...
    operands = operands[:-1] if more else operands
    paths = [p for name in dict.fromkeys(a for a, _ in operands) for p in getattr(args, name)]
    ctx, values = _read_all(paths, [k for _, k in operands])
    if more:
        if len(values) < len(operands):  # only brace repeats an operand
            raise ValueError("brace needs at least one insertion operand")
        values[len(operands) - 1 :] = [values[len(operands) - 1 :]]
    module, _, name = function.rpartition(".")
    home = importlib.import_module(f"..{module}", __name__) if module else sys.modules[__name__]
    _emit(serialize_document(Document(ctx, kind, getattr(home, name)(*values))))
    return 0


def _add_transform(sub, name: str, spec) -> None:
    helptext, operands, _, _ = spec
    sp = sub.add_parser(name, help=helptext)
    more = operands[-1] is ...
    names = [a for a, _ in (operands[:-1] if more else operands)]
    for a in dict.fromkeys(names):
        sp.add_argument(a, nargs="+" if more and a == names[-1] else names.count(a))
    sp.set_defaults(fn=cmd_transform, transform=spec)


def cmd_phi_eval(args) -> int:
    from ..twistcheck import m_value, phi_value

    spec_doc = _read_doc(args.spec)
    if spec_doc.kind == "form":
        spec = CochainSpec("phi", len(args.multivectors), spec_doc.payload)
    elif spec_doc.kind == "cochain-spec":
        spec = spec_doc.payload
    else:
        raise ValueError(f"{args.spec}: expected a form or cochain-spec document")
    mv_docs = [_want(_read_doc(p), "multivector", p) for p in args.multivectors]
    _same_ctx([spec_doc] + mv_docs, [args.spec] + list(args.multivectors))
    values = [d.payload for d in mv_docs]
    if spec.tag == "m":
        if len(values) != 2:
            raise ValueError(f"cochain of arity 2 applied to {len(values)} arguments")
        got = m_value(*values)
    else:
        if spec.arity != len(mv_docs):
            raise ValueError(
                f"cochain arity {spec.arity} but {len(mv_docs)} arguments given"
            )
        got = phi_value(spec.form, values)
    _emit(serialize_document(doc_multivector(got)))
    return 0


# ---------------------------------------------------------------------------
# check commands


def _render_checks(
    title: str, reports: List[CheckReport], emit: str, bounds: str
) -> int:
    """Print the sweep reports; a sweep that checked nothing is refused, not passed."""
    for r in reports:
        if r.checked == 0:
            raise ValueError(f"{title}: check {r.name} checked nothing under {bounds}")
    failed = [r for r in reports if not r.passed]
    if emit == "json":
        payload = {
            "command": title,
            "bounds": bounds,
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "checked": r.checked,
                    "trivial": r.trivial,
                    "witness": r.witness,
                }
                for r in reports
            ],
            "result": "PASS" if not failed else "FAIL",
        }
        _emit_json(payload)
    else:
        lines = [f"{title} report"]
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            lines.append(
                f"check {r.name}: {status} checked={r.checked} trivial={r.trivial}"
            )
            if not r.passed and r.witness:
                lines.append(f"witness {r.witness}")
        lines.append("result " + ("PASS" if not failed else "FAIL"))
        _emit("\n".join(lines) + "\n")
    return 0 if not failed else 1


def cmd_lemma_check(args) -> int:
    from .._fastsweep import (
        lemma_bracket_vanishes,
        lemma_differential,
        lemma_pairing_on_vectors,
    )

    n = args.dim
    if n < 1:
        raise ValueError("--dim must be at least 1")
    ctx = VarContext(tuple(f"x{i+1}" for i in range(n)))
    deg = args.bounds_degree
    fmax = min(3, n)
    reports = [
        lemma_differential(ctx, form_degree_max=fmax, coeff_degree=deg),
        lemma_bracket_vanishes(
            ctx, form_degree_max=fmax, coeff_degree=deg if n <= 3 else 0
        ),
        lemma_pairing_on_vectors(ctx, coeff_degree=deg),
    ]
    bounds = f"--dim {n} --bounds-degree {deg}"
    return _render_checks("lemma-check", reports, args.emit, bounds)


def cmd_linfty_check(args) -> int:
    from .._fastsweep import linfty_jacobi, linfty_mixed, linfty_ternary

    h = _want(_read_doc(args.form), "form", args.form)
    degrees = sorted({m.bit_count() for m, _ in h.payload._tm})
    if degrees not in ([], [3]):
        raise ValueError(
            f"{args.form}: linfty-check takes a 3-form, found terms of degree "
            + ", ".join(str(k) for k in degrees)
        )
    c = args.bounds_degree
    reports = [
        linfty_jacobi(h.ctx, h.payload, poly_degree=min(2, c)),
        linfty_mixed(h.ctx, h.payload, poly_degree=min(1, c)),
        linfty_ternary(h.ctx, h.payload, poly_degree=min(0, c)),
    ]
    return _render_checks("linfty-check", reports, args.emit, f"--bounds-degree {c}")


def cmd_twisted_check(args) -> int:
    from ..twistcheck import mc_defect

    if args.pi is None:
        _, h, pi = _problem(args.problem, "h", "pi")
    else:
        _, (h, pi) = _read_all([args.problem, args.pi], ["form", "multivector"])
    defect = mc_defect(_make_twisted_checked(h, args.problem), pi)
    ok = mv_is_zero(defect)
    terms = _term_count(defect)
    if args.emit == "json":
        payload = {
            "command": "twisted-check",
            "twisted_poisson": ok,
            "defect_terms": terms,
        }
        _emit_json(payload)
    else:
        _emit(
            "twisted-check report\n"
            f"twisted-poisson {str(ok).lower()}\n"
            f"defect-terms {terms}\n"
        )
    return 0 if ok else 1


def cmd_mc_defect(args) -> int:
    from ..deform import defect_series

    _, h, series = _problem(args.problem, "h", "series")
    d = defect_series(_make_twisted_checked(h, args.problem), series)
    counts = {k: _term_count(v) for k, v in sorted(d.items())}
    all_zero = all(c == 0 for c in counts.values())
    if args.emit == "json":
        payload = {
            "command": "mc-defect",
            "truncation": series.ring.truncation,
            "order_terms": {str(k): v for k, v in counts.items()},
            "zero": all_zero,
        }
        _emit_json(payload)
    else:
        lines = ["mc-defect report", f"truncation {series.ring.truncation}"]
        for k, v in counts.items():
            lines.append(f"order {k} terms {v}")
        lines.append(f"zero {str(all_zero).lower()}")
        _emit("\n".join(lines) + "\n")
    return 0 if all_zero else 1


def cmd_defect_series(args) -> int:
    from ..deform import defect_series, series_make

    ctx, h, series = _problem(args.problem, "h", "series")
    d = defect_series(_make_twisted_checked(h, args.problem), series)
    _emit(serialize_document(doc_series(ctx, series_make(series.ring, d))))
    return 0


def cmd_mc_solve(args) -> int:
    from ..deform import defect_series, mc_solve

    ctx, h, pi1 = _problem(args.problem, "h", "pi1")
    s = _make_twisted_checked(h, args.problem)
    rep = mc_solve(s, pi1, args.truncation, poly_degree=args.bounds_degree)
    if rep.status == "solved":
        d = defect_series(s, rep.solution)
        counts = {k: _term_count(v) for k, v in sorted(d.items())}
        sol_text = serialize_document(doc_series(ctx, rep.solution))
        if args.emit == "json":
            payload = {
                "command": "mc-solve",
                "status": rep.status,
                "poly_degree": rep.poly_degree,
                "residual_terms": {str(k): v for k, v in counts.items()},
                "solution": sol_text,
            }
            _emit_json(payload)
        else:
            lines = ["mc-solve report", f"status {rep.status}", f"poly-degree {rep.poly_degree}"]
            for k, v in counts.items():
                lines.append(f"residual-terms order {k}: {v}")
            lines.append("solution")
            _emit("\n".join(lines) + "\n" + sol_text)
        return 0
    res_doc = serialize_document(doc_multivector(rep.residual))
    if args.emit == "json":
        payload = {
            "command": "mc-solve",
            "status": rep.status,
            "poly_degree": rep.poly_degree,
            "obstruction_order": rep.order,
            "residual_terms": {str(rep.order): _term_count(rep.residual)},
            "residual": res_doc,
        }
        _emit_json(payload)
    else:
        lines = [
            "mc-solve report",
            f"status {rep.status}",
            f"poly-degree {rep.poly_degree}",
            f"obstruction-order {rep.order}",
            f"residual-terms order {rep.order}: {_term_count(rep.residual)}",
            "residual",
        ]
        _emit("\n".join(lines) + "\n" + res_doc)
    return 1


def cmd_gauge(args) -> int:
    from ..deform import GaugeParam, gauge_flow

    ctx, h, series, xi = _problem(args.problem, "h", "series", "xi")
    if xi.ring != series.ring:
        raise ValueError(f"{args.problem}: xi and series truncations differ")
    s = _make_twisted_checked(h, args.problem)
    moved = gauge_flow(s, series, GaugeParam(xi.ring, dict(xi.coeffs)))
    _emit(serialize_document(doc_series(ctx, moved)))
    return 0


def cmd_gauge_equiv(args) -> int:
    from ..deform import gauge_equivalent, series_make

    ctx, a, b, h = _problem(args.problem, "a", "b", "h")
    s = _make_twisted_checked(h, args.problem)
    if a.ring != b.ring:
        raise ValueError(f"{args.problem}: a and b truncations differ")
    rep = gauge_equivalent(s, a, b, poly_degree=args.bounds_degree)
    wit_text = None
    if rep.equivalent and rep.witness is not None:
        wit_series = series_make(rep.witness.ring, dict(rep.witness.coeffs))
        wit_text = serialize_document(doc_series(ctx, wit_series))
    if args.emit == "json":
        payload = {
            "command": "gauge-equiv",
            "equivalent": rep.equivalent,
            "poly_degree": rep.poly_degree,
            "witness": wit_text,
        }
        _emit_json(payload)
    else:
        lines = ["gauge-equiv report", f"equivalent {str(rep.equivalent).lower()}"]
        if wit_text is not None:
            lines.append("witness")
            _emit("\n".join(lines) + "\n" + wit_text)
        else:
            _emit("\n".join(lines) + "\n")
    return 0 if rep.equivalent else 1


# ---------------------------------------------------------------------------
# hochschild subcommands


def cmd_hoch(args) -> int:
    """``hoch hkr`` and ``hoch primitive``; the other subcommands are transforms."""
    from ..hochschild import delta_primitive, hkr

    path = args.files[0]
    if args.hoch_cmd == "hkr":
        v = _want(_read_doc(path), "multivector", path)
        try:
            got = hkr(v.payload)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        _emit(serialize_document(doc_multidiffop(got)))
        return 0
    d = _want(_read_doc(path), "multidiffop", path)
    res = delta_primitive(d.payload, poly_degree=args.bounds_degree, op_order=args.bounds_order)
    if args.emit == "json":
        payload = {
            "command": "hoch primitive",
            "found": res.found,
            "rank": res.rank,
            "primitive": serialize_document(doc_multidiffop(res.primitive))
            if res.found
            else None,
            "residual_terms": 0 if res.found else _term_count(res.residual),
        }
        _emit_json(payload)
    else:
        lines = ["primitive report", f"found {str(res.found).lower()}", f"rank {res.rank}"]
        if res.found:
            lines.append("primitive")
            _emit(
                "\n".join(lines)
                + "\n"
                + serialize_document(doc_multidiffop(res.primitive))
            )
        else:
            lines.append(f"residual-terms {_term_count(res.residual)}")
            _emit("\n".join(lines) + "\n")
    return 0 if res.found else 1


def cmd_verify(args) -> int:
    from . import suites

    lines = suites.run_verify(args.suite)
    if args.emit == "json":
        _emit(suites.render_json(args.suite, lines))
    else:
        _emit(suites.render_text(args.suite, lines))
    return 0 if all(ln.passed for ln in lines) else 1


# ---------------------------------------------------------------------------
# argument parsing


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call to ``main`` and reused."""
    p = argparse.ArgumentParser(
        prog="gdcalc",
        description="Exact calculus on polynomial multivector fields: brackets, "
        "contraction cochains, twisted structures, Hochschild operators, and "
        "order-by-order deformation solving.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_emit(sp):
        sp.add_argument("--emit", choices=("text", "json"), default="text")

    sp = sub.add_parser("poly", help="sum polynomial documents")
    sp.add_argument("files", nargs="+")
    sp.set_defaults(fn=cmd_poly)

    sp = sub.add_parser("wedge", help="wedge multivector or form documents")
    sp.add_argument("files", nargs="+")
    sp.set_defaults(fn=cmd_wedge)

    for name, spec in _TRANSFORMS.items():
        _add_transform(sub, name, spec)

    sp = sub.add_parser(
        "phi-eval", help="evaluate the contraction cochain of a form on arguments"
    )
    sp.add_argument("spec", help="form or cochain-spec document")
    sp.add_argument("multivectors", nargs="*")
    sp.set_defaults(fn=cmd_phi_eval)

    sp = sub.add_parser("lemma-check", help="sweep the contraction-cochain identities")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--bounds-degree", type=int, default=1)
    add_emit(sp)
    sp.set_defaults(fn=cmd_lemma_check)

    sp = sub.add_parser(
        "linfty-check", help="sweep the three homotopy relations for a 3-form"
    )
    sp.add_argument("form")
    sp.add_argument("--bounds-degree", type=int, default=2)
    add_emit(sp)
    sp.set_defaults(fn=cmd_linfty_check)

    sp = sub.add_parser("twisted-check", help="is the bivector twisted-Poisson for H?")
    sp.add_argument("problem", help="problem document with fields h, pi (or a form)")
    sp.add_argument("pi", nargs="?", default=None, help="multivector document")
    add_emit(sp)
    sp.set_defaults(fn=cmd_twisted_check)

    sp = sub.add_parser("mc-defect", help="order-by-order defect of a series")
    sp.add_argument("problem", help="problem document with fields h, series")
    add_emit(sp)
    sp.set_defaults(fn=cmd_mc_defect)

    sp = sub.add_parser("defect-series", help="emit the defect as a series document")
    sp.add_argument("problem", help="problem document with fields h, series")
    sp.set_defaults(fn=cmd_defect_series)

    sp = sub.add_parser("mc-solve", help="extend a bivector to a solution order by order")
    sp.add_argument("problem", help="problem document with fields h, pi1")
    sp.add_argument("--truncation", type=int, default=2)
    sp.add_argument("--bounds-degree", type=int, default=1)
    add_emit(sp)
    sp.set_defaults(fn=cmd_mc_solve)

    sp = sub.add_parser("gauge", help="apply a gauge flow to a series")
    sp.add_argument("problem", help="problem document with fields h, series, xi")
    sp.set_defaults(fn=cmd_gauge)

    sp = sub.add_parser("gauge-equiv", help="search for a gauge taking a to b")
    sp.add_argument("problem", help="problem document with fields a, b, h")
    sp.add_argument("--bounds-degree", type=int, default=1)
    add_emit(sp)
    sp.set_defaults(fn=cmd_gauge_equiv)

    sp = sub.add_parser("hoch", help="Hochschild operator commands")
    hsub = sp.add_subparsers(dest="hoch_cmd", required=True)
    for name, spec in _HOCH_TRANSFORMS.items():
        _add_transform(hsub, name, spec)
    hp = hsub.add_parser("hkr", help="alternation embedding of a multivector document")
    hp.add_argument("files", nargs=1)
    hp.set_defaults(fn=cmd_hoch)
    hp = hsub.add_parser("primitive", help="search for a differential primitive within bounds")
    hp.add_argument("files", nargs=1)
    hp.add_argument("--bounds-degree", type=int, default=2)
    hp.add_argument("--bounds-order", type=int, default=2)
    add_emit(hp)
    hp.set_defaults(fn=cmd_hoch)

    sp = sub.add_parser("verify", help="run the identity suites and corpus checks")
    sp.add_argument(
        "--suite",
        choices=("schouten", "lemma", "linfty", "hochschild", "deform", "all"),
        default="all",
    )
    add_emit(sp)
    sp.set_defaults(fn=cmd_verify)

    return p


def _check_bounds(args) -> None:
    """A negative bound searches nothing; refuse it rather than report on it."""
    for name in ("bounds_degree", "bounds_order", "truncation"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be non-negative, got {value}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_bounds(args)
        return args.fn(args)
    except ValueError as exc:  # the library's refusals and ParseError
        sys.stderr.write(f"error: {exc}\n")
        return 2

