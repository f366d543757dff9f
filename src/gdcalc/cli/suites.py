"""The `verify` runner: smoke-scale identity sweeps plus corpus re-derivation.

Every check lives in a named suite and reports a deterministic one-line
result (no timing, no environment data), so two runs on the same build
produce identical bytes.  Suite bounds are chosen to finish in seconds;
the full-scale sweeps live in the acceptance tests.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Dict, List, Tuple

from .. import _fastsweep as fs
from ..deform import GaugeParam, defect_series, gauge_flow, mc_solve
from ..exactcore import (
    VarContext,
    monomials_upto,
    poly_from_terms,
    poly_is_zero,
    poly_mul,
    poly_sub,
)
from ..hochschild import (
    MultiDiffOp,
    delta_primitive,
    gerstenhaber,
    hkr,
    hoch_delta,
    i_func_hoch,
    mdo_add,
    mdo_eq,
    mdo_is_zero,
    mdo_make,
    mdo_scale,
    mdo_sub,
    mult_cochain,
)
from ..polyvec import (
    basis_multivectors,
    form_make,
    mv_eq,
    mv_frame,
    mv_is_zero,
    mv_make,
    schouten,
)
from ..twistcheck import make_twisted, mc_defect, phi_value
from .docfmt import Document, ParseError, parse_document, serialize_document

__all__ = ["CheckLine", "SUITE_NAMES", "run_verify", "render_text", "render_json"]


@dataclass(frozen=True)
class CheckLine:
    suite: str
    name: str
    passed: bool
    detail: str


def _ctx(*names: str) -> VarContext:
    return VarContext(names)


CTX2 = _ctx("x", "y")
CTX3 = _ctx("x", "y", "z")
CTX4 = _ctx("x1", "x2", "x3", "x4")


def _line_from_report(suite: str, r: fs.CheckReport, suffix: str = "") -> CheckLine:
    detail = f"checked={r.checked} trivial={r.trivial}"
    if not r.passed and r.witness:
        detail += f" witness: {r.witness}"
    return CheckLine(suite, r.name + suffix, r.passed, detail)


def suite_schouten() -> List[CheckLine]:
    out = []
    for ctx, pd, md in [(CTX2, 1, 2), (CTX3, 1, 2)]:
        for fn in (fs.schouten_antisymmetry, fs.schouten_jacobi, fs.schouten_leibniz):
            r = fn(ctx, poly_degree=pd, mv_degree=md)
            out.append(_line_from_report("schouten", r, f"-n{ctx.n}"))
    return out


def suite_lemma() -> List[CheckLine]:
    out = []
    r = fs.lemma_differential(CTX2, form_degree_max=2, coeff_degree=1)
    out.append(_line_from_report("lemma", r))
    r = fs.lemma_bracket_vanishes(CTX2, form_degree_max=2, coeff_degree=1)
    out.append(_line_from_report("lemma", r))
    r = fs.lemma_pairing_on_vectors(CTX2, coeff_degree=1)
    out.append(_line_from_report("lemma", r))
    return out


def suite_linfty() -> List[CheckLine]:
    one3 = poly_from_terms(3, [(1, tuple([0] * 3))])
    h_closed = form_make(CTX3, [((0, 1, 2), one3)])
    x4 = poly_from_terms(4, [(1, (0, 0, 0, 1))])
    h_open = form_make(CTX4, [((0, 1, 2), x4)])
    out = []
    r = fs.linfty_jacobi(CTX3, h_closed, poly_degree=1, mv_degree=2)
    out.append(_line_from_report("linfty", r))
    r = fs.linfty_mixed(CTX3, h_closed, poly_degree=0, mv_degree=3)
    out.append(_line_from_report("linfty", r))
    r = fs.linfty_ternary(CTX3, h_closed, poly_degree=0, mv_degree=3)
    out.append(_line_from_report("linfty", r))
    r = fs.linfty_mixed(CTX4, h_open, poly_degree=0, mv_degree=2)
    detail = f"expected-failure checked={r.checked}"
    if not r.passed and r.witness:
        detail += f" witness: {r.witness}"
    out.append(CheckLine("linfty", "linfty-mixed-open-form", not r.passed, detail))
    return out


def _mdo_basis(ctx: VarContext, arity: int, op_order: int, deg: int):
    slot_orders = [o for o in monomials_upto(ctx.n, op_order)]
    monos = list(monomials_upto(ctx.n, deg))
    for orders in itertools.product(slot_orders, repeat=arity):
        for m in monos:
            yield mdo_make(ctx, arity, [(orders, poly_from_terms(ctx.n, [(1, m)]))])


def suite_hochschild() -> List[CheckLine]:
    out = []
    ops: List[MultiDiffOp] = []
    for arity in (1, 2):
        ops.extend(_mdo_basis(CTX2, arity, 1, 1))
    # delta squared
    bad = sum(1 for D in ops if not mdo_is_zero(hoch_delta(hoch_delta(D))))
    out.append(
        CheckLine("hochschild", "delta-squared", bad == 0, f"checked={len(ops)}")
    )
    # delta as bracket with the multiplication cochain
    mu = mult_cochain(CTX2)
    bad = sum(
        1
        for D in ops
        if not mdo_eq(
            gerstenhaber(mu, D), mdo_scale(hoch_delta(D), (-1) ** (D.arity - 1))
        )
    )
    out.append(
        CheckLine("hochschild", "delta-as-bracket", bad == 0, f"checked={len(ops)}")
    )
    # graded Jacobi (Leibniz form) on a deterministic op set
    x = poly_from_terms(2, [(1, (1, 0))])
    one = poly_from_terms(2, [(1, (0, 0))])
    js = [
        mdo_make(CTX2, 1, [(((1, 0),), one)]),
        mdo_make(CTX2, 1, [(((0, 1),), x)]),
        mdo_make(CTX2, 2, [(((1, 0), (0, 1)), one)]),
        mu,
    ]
    checked = bad = 0
    for A, B, C in itertools.product(js, repeat=3):
        checked += 1
        lhs = gerstenhaber(A, gerstenhaber(B, C))
        mid = gerstenhaber(gerstenhaber(A, B), C)
        sgn = (-1) ** ((A.arity - 1) * (B.arity - 1))
        rhs = mdo_add(mid, mdo_scale(gerstenhaber(B, gerstenhaber(A, C)), sgn))
        if not mdo_eq(lhs, rhs):
            bad += 1
    out.append(
        CheckLine("hochschild", "gerstenhaber-jacobi", bad == 0, f"checked={checked}")
    )
    # contraction by a function: [i_a, delta]-style two-step identities
    checked = bad = 0
    monos = [poly_from_terms(2, [(1, m)]) for m in monomials_upto(2, 1)]
    for a in monos:
        for D in ops:
            checked += 1
            # i_a both sides of delta-as-bracket stays consistent
            lhs = i_func_hoch(a, gerstenhaber(mu, D))
            rhs = mdo_scale(i_func_hoch(a, hoch_delta(D)), (-1) ** (D.arity - 1))
            if not mdo_eq(lhs, rhs):
                bad += 1
    out.append(
        CheckLine("hochschild", "contraction-consistency", bad == 0, f"checked={checked}")
    )
    # cocycle property of the alternation embedding
    checked = bad = 0
    for pi in basis_multivectors(CTX2, 1, (1, 2)):
        checked += 1
        if not mdo_is_zero(hoch_delta(hkr(pi))):
            bad += 1
    out.append(
        CheckLine("hochschild", "hkr-cocycle", bad == 0, f"checked={checked}")
    )
    # formality shadow: one exact defect, one non-exact class
    pi = mv_make(CTX2, [((0, 1), x)])
    rho = mv_frame(CTX2, (0,))
    defect = mdo_sub(gerstenhaber(hkr(pi), hkr(rho)), hkr(schouten(pi, rho)))
    res = delta_primitive(defect, poly_degree=2, op_order=2)
    ok = res.found and mdo_eq(hoch_delta(res.primitive), defect)
    out.append(CheckLine("hochschild", "bracket-defect-exact", ok, f"rank={res.rank}"))
    res = delta_primitive(hkr(mv_frame(CTX2, (0, 1))), poly_degree=2, op_order=2)
    out.append(
        CheckLine(
            "hochschild",
            "hkr-class-not-exact",
            not res.found and not mdo_is_zero(res.residual),
            f"rank={res.rank}",
        )
    )
    return out


def suite_deform() -> List[CheckLine]:
    out = []
    one2 = poly_from_terms(2, [(1, (0, 0))])
    zero_h2 = form_make(CTX2, [])
    plane = make_twisted(zero_h2)
    pi1 = mv_frame(CTX2, (0, 1))
    rep = mc_solve(plane, pi1, 3, poly_degree=1)
    higher = all(
        mv_is_zero(v) for k, v in rep.solution.coeffs.items() if k >= 2
    ) if rep.status == "solved" else False
    dct = defect_series(plane, rep.solution) if rep.status == "solved" else {}
    zero_defect = all(mv_is_zero(v) for v in dct.values())
    out.append(
        CheckLine(
            "deform",
            "plane-solve",
            rep.status == "solved" and higher and zero_defect,
            f"status={rep.status}",
        )
    )
    one4 = poly_from_terms(4, [(1, (0, 0, 0, 0))])
    h4 = form_make(CTX4, [((0, 1, 2), one4)])
    s4 = make_twisted(h4)
    pi14 = mv_make(CTX4, [((0, 1), one4), ((2, 3), one4)])
    rep = mc_solve(s4, pi14, 2, poly_degree=1)
    frozen = mv_make(CTX4, [((0, 1), poly_from_terms(4, [(-3, (0, 0, 1, 0))]))])
    ok = (
        rep.status == "solved"
        and rep.solution is not None
        and mv_eq(rep.solution.coeffs[2], frozen)
    )
    out.append(CheckLine("deform", "twisted-solve-degree-1", ok, f"status={rep.status}"))
    rep = mc_solve(s4, pi14, 2, poly_degree=0)
    out.append(
        CheckLine(
            "deform",
            "twisted-obstructed-degree-0",
            rep.status == "obstructed" and rep.order == 3,
            f"status={rep.status} order={rep.order}",
        )
    )
    # one gauge flow preserves the solution property
    sol = mc_solve(plane, pi1, 2, poly_degree=1).solution
    x = poly_from_terms(2, [(1, (1, 0))])
    xi = GaugeParam(sol.ring, {1: mv_make(CTX2, [((0,), x)])})
    moved = gauge_flow(plane, sol, xi)
    ok = all(mv_is_zero(v) for v in defect_series(plane, moved).values())
    out.append(CheckLine("deform", "gauge-preserves-solutions", ok, "orders=2"))
    return out


# ---------------------------------------------------------------------------
# corpus


def corpus_files() -> List[str]:
    root = resources.files("gdcalc.corpus")
    return sorted(
        entry.name for entry in root.iterdir() if entry.name.endswith(".gdt")
    )


def corpus_text(name: str) -> str:
    return (resources.files("gdcalc.corpus") / name).read_text(encoding="utf-8")


def _check_schouten_pair(doc: Document) -> Tuple[bool, str]:
    f = doc.payload.fields
    got = schouten(f["a"].payload, f["b"].payload)
    return mv_eq(got, f["expect"].payload), "bracket re-derived"


def _check_poly_square(doc: Document) -> Tuple[bool, str]:
    f = doc.payload.fields
    got = poly_mul(f["base"].payload, f["base"].payload)
    return poly_is_zero(poly_sub(got, f["expect"].payload)), "square re-derived"


def _check_twisted(expected: bool):
    def run(doc: Document) -> Tuple[bool, str]:
        f = doc.payload.fields
        defect = mc_defect(make_twisted(f["h"].payload), f["pi"].payload)
        got = mv_is_zero(defect)
        terms = len(defect._tm)
        return got is expected, f"twisted-poisson={str(got).lower()} defect-terms={terms}"

    return run


def _check_mc_defect_zero(doc: Document) -> Tuple[bool, str]:
    f = doc.payload.fields
    s = make_twisted(f["h"].payload)
    d = defect_series(s, f["series"].payload)
    ok = all(mv_is_zero(v) for v in d.values())
    return ok, f"orders={f['series'].payload.ring.truncation}"


def _check_hkr_bivector(doc: Document) -> Tuple[bool, str]:
    D = doc.payload
    expect = hkr(mv_frame(D.ctx, (0, 1)))
    ok = mdo_eq(D, expect) and mdo_is_zero(hoch_delta(D))
    return ok, "matches the alternation of theta0^theta1; cocycle"


def _check_phi_eval(doc: Document) -> Tuple[bool, str]:
    f = doc.payload.fields
    spec = f["spec"].payload
    args = tuple(f[k].payload for k in ("arg1", "arg2", "arg3")[: spec.arity])
    got = phi_value(spec.form, args)
    return mv_eq(got, f["expect"].payload), "contraction re-derived"


def _check_plain_bivector(doc: Document) -> Tuple[bool, str]:
    v = doc.payload
    return mv_is_zero(schouten(v, v)), "self-bracket vanishes"


def _check_gauge_pair(doc: Document) -> Tuple[bool, str]:
    f = doc.payload.fields
    s = make_twisted(f["h"].payload)
    a, b = f["a"].payload, f["b"].payload
    xi_series = f["xi"].payload
    xi = GaugeParam(xi_series.ring, dict(xi_series.coeffs))
    moved = gauge_flow(s, a, xi)
    ok = all(
        mv_eq(moved.coeffs.get(k, mv_make(doc.ctx, [])), b.coeffs.get(k, mv_make(doc.ctx, [])))
        for k in range(1, b.ring.truncation + 1)
    )
    return ok, "flow re-derived"


_CORPUS_CHECKS: Dict[str, Callable[[Document], Tuple[bool, str]]] = {
    "schouten-pair.gdt": _check_schouten_pair,
    "poly-square.gdt": _check_poly_square,
    "twisted-true-r3.gdt": _check_twisted(True),
    "twisted-true-r3-poly.gdt": _check_twisted(True),
    "twisted-false-r4.gdt": _check_twisted(False),
    "series-r4.gdt": _check_mc_defect_zero,
    "hkr-bivector.gdt": _check_hkr_bivector,
    "phi-spec.gdt": _check_phi_eval,
    "bivector-r2.gdt": _check_plain_bivector,
    "gauge-pair.gdt": _check_gauge_pair,
}


def suite_corpus() -> List[CheckLine]:
    out = []
    for name in corpus_files():
        text = corpus_text(name)
        if name == "malformed.gdt":
            try:
                parse_document(text)
            except ParseError as exc:
                out.append(
                    CheckLine("corpus", name, True, f"rejected: {exc}")
                )
            else:
                out.append(
                    CheckLine("corpus", name, False, "malformed fixture parsed cleanly")
                )
            continue
        try:
            doc = parse_document(text)
        except ParseError as exc:
            out.append(CheckLine("corpus", name, False, f"parse error: {exc}"))
            continue
        if serialize_document(doc) != text:
            out.append(CheckLine("corpus", name, False, "round-trip mismatch"))
            continue
        checker = _CORPUS_CHECKS.get(name)
        if checker is None:
            out.append(CheckLine("corpus", name, True, "round-trip"))
            continue
        try:
            ok, detail = checker(doc)
        except Exception as exc:  # deterministic message, counts as failure
            ok, detail = False, f"checker error: {exc}"
        out.append(CheckLine("corpus", name, ok, f"round-trip; {detail}"))
    return out


SUITE_NAMES = ("schouten", "lemma", "linfty", "hochschild", "deform")
_SUITES: Dict[str, Callable[[], List[CheckLine]]] = {
    "schouten": suite_schouten,
    "lemma": suite_lemma,
    "linfty": suite_linfty,
    "hochschild": suite_hochschild,
    "deform": suite_deform,
}


def run_verify(suite: str) -> List[CheckLine]:
    if suite == "all":
        lines: List[CheckLine] = []
        for name in SUITE_NAMES:
            lines.extend(_SUITES[name]())
        lines.extend(suite_corpus())
        return lines
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return _SUITES[suite]()


def render_text(suite: str, lines: List[CheckLine]) -> str:
    out = [f"verify suite={suite}"]
    failed = 0
    for ln in lines:
        status = "pass" if ln.passed else "FAIL"
        if not ln.passed:
            failed += 1
        out.append(f"check {ln.suite}/{ln.name}: {status} {ln.detail}")
    verdict = "PASS" if failed == 0 else "FAIL"
    out.append(f"result {verdict} checks={len(lines)} failed={failed}")
    return "\n".join(out) + "\n"


def render_json(suite: str, lines: List[CheckLine]) -> str:
    import json

    failed = sum(1 for ln in lines if not ln.passed)
    payload = {
        "command": "verify",
        "suite": suite,
        "checks": [
            {
                "suite": ln.suite,
                "name": ln.name,
                "passed": ln.passed,
                "detail": ln.detail,
            }
            for ln in lines
        ],
        "result": "PASS" if failed == 0 else "FAIL",
        "failed": failed,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
