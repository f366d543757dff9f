"""A 24-variable context: the term engine's sign tables fill on first use.

Every operation here touches a handful of frames out of 2^24, so it must
answer in milliseconds; a table over all frame pairs would not fit in
memory.  Each library call and the ``schouten`` and ``phi-eval`` commands
must equal the tuple-frame route of ``_ref_polyvec`` and return well under
a second.
"""
from __future__ import annotations

import contextlib
import io
import random
import time
from fractions import Fraction

import pytest

import _ref_polyvec as ref
from gdcalc.twistcheck import phi_value
from gdcalc.cli import main
from gdcalc.cli.docfmt import doc_form, doc_multivector, serialize_document
from gdcalc.exactcore import VarContext
from gdcalc.polyvec import contract, form_make, form_wedge, mv_make, schouten, wedge_mv

N = 24
CTX = VarContext(tuple(f"v{i}" for i in range(N)))
ACTIVE = (0, 5, 11, 17, 22, 23)  # frames and coefficients share these, so terms interact
BUDGET_S = 0.5


def _terms(rng, degrees, count, max_deg=2):
    out = []
    for _ in range(count):
        frame = tuple(sorted(rng.sample(ACTIVE, rng.choice(degrees))))
        exps = [0] * N
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.choice(ACTIVE)] += 1
        coeff = Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 1, 2, 3]))
        out.append((frame, {tuple(exps): coeff}))
    return out


def _fields(seed):
    rng = random.Random(seed)
    a = mv_make(CTX, _terms(rng, (1, 2, 3), 6))
    b = mv_make(CTX, _terms(rng, (1, 2), 6))
    f = form_make(CTX, _terms(rng, (1, 2), 4))
    g = form_make(CTX, _terms(rng, (1, 2), 4))
    alpha = form_make(CTX, _terms(rng, (1,), 4))
    H = form_make(CTX, _terms(rng, (3,), 3, max_deg=1))
    vs = [mv_make(CTX, _terms(rng, (1, 2), 3, max_deg=1)) for _ in range(3)]
    return a, b, f, g, alpha, H, vs


def _fractions_only(v):
    return all(type(c) is Fraction for poly in v.terms.values() for c in poly.values())


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_S, f"{fn.__name__} took {elapsed:.3f}s"
    return out


@pytest.mark.parametrize("seed", range(4))
def test_library_calls_match_reference_at_24_variables(seed):
    a, b, f, g, alpha, H, vs = _fields(seed)
    bracket = _timed(schouten, a, b)
    assert bracket.terms  # the fields share variables, so the bracket is not trivially zero
    results = [
        (bracket, ref.schouten(a, b)),
        (_timed(wedge_mv, a, b), ref.wedge_mv(a, b)),
        (_timed(form_wedge, f, g), ref.form_wedge(f, g)),
        (_timed(contract, alpha, a), ref.contract(alpha, a)),
        (_timed(phi_value, H, vs), ref.evaluate(ref.phi(H), vs)),
    ]
    for got, want in results:
        assert type(got) is type(want)
        assert got.terms == want.terms
        assert _fractions_only(got)


def _cli(argv):
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < BUDGET_S, f"{argv[0]} took {elapsed:.3f}s"
    return out.getvalue()


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(serialize_document(doc), encoding="utf-8")
    return str(p)


def test_cli_schouten_and_phi_eval_match_reference_at_24_variables(tmp_path):
    a, b, _, _, _, H, vs = _fields(7)
    pa = _write(tmp_path, "a.gdt", doc_multivector(a))
    pb = _write(tmp_path, "b.gdt", doc_multivector(b))
    assert _cli(["schouten", pa, pb]) == serialize_document(doc_multivector(ref.schouten(a, b)))
    ph = _write(tmp_path, "h.gdt", doc_form(H))
    pvs = [_write(tmp_path, f"v{i}.gdt", doc_multivector(v)) for i, v in enumerate(vs)]
    want = ref.evaluate(ref.phi(H, 3), vs)
    assert _cli(["phi-eval", ph, *pvs]) == serialize_document(doc_multivector(want))
