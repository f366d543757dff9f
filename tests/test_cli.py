"""Document format round-trips, command behavior, and exit-code contract."""
import json
import subprocess
import sys

import pytest

from gdcalc.cli import main
from gdcalc.cli.docfmt import (
    CochainSpec,
    ParseError,
    doc_cochain_spec,
    doc_form,
    doc_multidiffop,
    doc_multivector,
    doc_polynomial,
    doc_problem,
    doc_series,
    parse_document,
    serialize_document,
)
from gdcalc.cli.suites import corpus_files, corpus_text
from gdcalc.deform import ArtinRing, series_make
from gdcalc.exactcore import VarContext, poly_from_terms
from gdcalc.hochschild import mdo_make
from gdcalc.polyvec import form_make, mv_frame, mv_make

CTX2 = VarContext(("x", "y"))
CTX3 = VarContext(("x", "y", "z"))
X = poly_from_terms(2, [(1, (1, 0))])
Y = poly_from_terms(2, [(1, (0, 1))])
ONE2 = poly_from_terms(2, [(1, (0, 0))])
ONE3 = poly_from_terms(3, [(1, (0, 0, 0))])


def run_cli(tmp_path, *argv, expect=0):
    """Run main() in-process, capture stdout bytes via a temp file."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == expect, f"exit {code}, wanted {expect}\n{buf.getvalue()}"
    return buf.getvalue()


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(serialize_document(doc), encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# format round-trips


def test_corpus_files_roundtrip_byte_exact():
    names = corpus_files()
    assert len(names) >= 10
    for name in names:
        text = corpus_text(name)
        if name == "malformed.gdt":
            with pytest.raises(ParseError):
                parse_document(text)
            continue
        assert serialize_document(parse_document(text)) == text, name


def test_roundtrip_all_payload_kinds(tmp_path):
    docs = [
        doc_polynomial(CTX2, poly_from_terms(2, [(3, (1, 2)), (-1, (0, 0))])),
        doc_multivector(mv_make(CTX2, [((0, 1), X), ((), Y)])),
        doc_form(form_make(CTX3, [((0, 2), ONE3)])),
        doc_multidiffop(mdo_make(CTX2, 2, [(((1, 0), (0, 1)), X)])),
        doc_multidiffop(mdo_make(CTX2, 0, [((), Y)])),
        doc_series(
            CTX2,
            series_make(ArtinRing(3), {1: mv_frame(CTX2, (0, 1)), 3: mv_frame(CTX2, (0,))}),
        ),
        doc_cochain_spec(CTX2, CochainSpec("m", None, None)),
        doc_cochain_spec(CTX3, CochainSpec("phi", 3, form_make(CTX3, [((0, 1, 2), ONE3)]))),
        doc_problem(
            CTX2,
            "example",
            {"p": doc_polynomial(CTX2, X), "v": doc_multivector(mv_frame(CTX2, (1,)))},
        ),
    ]
    for doc in docs:
        text = serialize_document(doc)
        again = parse_document(text)
        assert serialize_document(again) == text


def test_parse_accumulates_duplicate_terms():
    text = (
        "gdt 1\n"
        "context x y\n"
        "polynomial\n"
        "term 1/2 : 1 0\n"
        "term 1/2 : 1 0\n"
        "end\n"
    )
    doc = parse_document(text)
    assert doc.payload == {(1, 0): 1}


def test_parse_errors_carry_line_numbers():
    bad = [
        ("gdt 2\ncontext x\npolynomial\nend\n", 1),
        ("gdt 1\ncontext x x\npolynomial\nend\n", 2),
        ("gdt 1\ncontext x\nmystery\nend\n", 3),
        ("gdt 1\ncontext x\nmultivector\nterm 1 @ 3 : 0\nend\n", 4),
        ("gdt 1\ncontext x\nmultivector\nterm 1 @ 0 : 0\nend\nextra\n", 6),
        ("gdt 1\ncontext x y\npolynomial\nterm 1 : 1\nend\n", 4),
        ("gdt 1\ncontext x\nartin-series 2\norder 5\nend\n", 4),
    ]
    for text, line in bad:
        with pytest.raises(ParseError) as exc:
            parse_document(text)
        assert exc.value.line_no == line, text


def test_parse_rejects_truncated_document():
    with pytest.raises(ParseError):
        parse_document("gdt 1\ncontext x y\nmultivector\n")


# ---------------------------------------------------------------------------
# commands


def test_schouten_command_on_rotation_pair(tmp_path):
    a = write_doc(tmp_path, "a.gdt", doc_multivector(mv_make(CTX2, [((1,), X)])))
    b = write_doc(tmp_path, "b.gdt", doc_multivector(mv_make(CTX2, [((0,), Y)])))
    out = run_cli(tmp_path, "schouten", a, b)
    got = parse_document(out)
    expect = mv_make(CTX2, [((0,), X), ((1,), poly_from_terms(2, [(-1, (0, 1))]))])
    assert got.payload == expect


def test_d_then_wedge_pipeline(tmp_path):
    f = write_doc(tmp_path, "f.gdt", doc_form(form_make(CTX2, [((0,), Y)])))
    out = run_cli(tmp_path, "d", f)
    doc = parse_document(out)
    assert doc.kind == "form"
    assert doc.payload.terms == {(0, 1): {(0, 0): -1}}


def test_poly_sums_inputs(tmp_path):
    p1 = write_doc(tmp_path, "p1.gdt", doc_polynomial(CTX2, X))
    p2 = write_doc(tmp_path, "p2.gdt", doc_polynomial(CTX2, Y))
    out = run_cli(tmp_path, "poly", p1, p2)
    assert parse_document(out).payload == {(1, 0): 1, (0, 1): 1}


def test_phi_eval_matches_corpus_value(tmp_path):
    h = write_doc(tmp_path, "h.gdt", doc_form(form_make(CTX3, [((0, 1, 2), ONE3)])))
    args = [
        write_doc(tmp_path, f"t{i}.gdt", doc_multivector(mv_frame(CTX3, (i,))))
        for i in range(3)
    ]
    out = run_cli(tmp_path, "phi-eval", h, *args)
    assert parse_document(out).payload.terms == {(): {(0, 0, 0): -1}}


def test_context_mismatch_is_schema_error(tmp_path):
    a = write_doc(tmp_path, "a.gdt", doc_multivector(mv_frame(CTX2, (0,))))
    b = write_doc(tmp_path, "b.gdt", doc_multivector(mv_frame(CTX3, (0,))))
    run_cli(tmp_path, "schouten", a, b, expect=2)


def test_kind_mismatch_is_schema_error(tmp_path):
    a = write_doc(tmp_path, "a.gdt", doc_polynomial(CTX2, X))
    b = write_doc(tmp_path, "b.gdt", doc_multivector(mv_frame(CTX2, (0,))))
    run_cli(tmp_path, "schouten", a, b, expect=2)


def test_missing_file_is_schema_error(tmp_path):
    run_cli(tmp_path, "d", str(tmp_path / "absent.gdt"), expect=2)


def test_twisted_check_exit_codes(tmp_path):
    import importlib.resources as res

    corpus = res.files("gdcalc.corpus")
    run_cli(tmp_path, "twisted-check", str(corpus / "twisted-true-r3.gdt"), expect=0)
    run_cli(tmp_path, "twisted-check", str(corpus / "twisted-false-r4.gdt"), expect=1)
    run_cli(tmp_path, "poly", str(corpus / "malformed.gdt"), expect=2)


def _mc_problem(tmp_path):
    ctx4 = VarContext(("x1", "x2", "x3", "x4"))
    one4 = poly_from_terms(4, [(1, (0, 0, 0, 0))])
    return write_doc(
        tmp_path,
        "mc.gdt",
        doc_problem(
            ctx4,
            "mc",
            {
                "h": doc_form(form_make(ctx4, [((0, 1, 2), one4)])),
                "pi1": doc_multivector(
                    mv_make(ctx4, [((0, 1), one4), ((2, 3), one4)])
                ),
            },
        ),
    )


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["lemma-check"], "--bounds-degree"),
        (["hoch", "primitive", "@hkr"], "--bounds-degree"),
        (["hoch", "primitive", "@hkr"], "--bounds-order"),
        (["mc-solve", "@mc"], "--truncation"),
        (["mc-solve", "@mc"], "--bounds-degree"),
        (["gauge-equiv", "@gauge"], "--bounds-degree"),
        (["linfty-check", "@h3"], "--bounds-degree"),
    ],
)
def test_negative_bounds_are_usage_errors(tmp_path, capsys, argv, flag):
    """A negative bound used to give a vacuous PASS or a 0-column certificate."""
    import importlib.resources as res

    corpus = res.files("gdcalc.corpus")
    docs = {
        "@hkr": str(corpus / "hkr-bivector.gdt"),
        "@gauge": str(corpus / "gauge-pair.gdt"),
        "@mc": _mc_problem(tmp_path),
        "@h3": write_doc(tmp_path, "h.gdt", doc_form(form_make(CTX3, [((0, 1, 2), ONE3)]))),
    }
    argv = [docs.get(a, a) for a in argv]
    for value in ("-1", "-2"):
        assert main(argv + [flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag} must be non-negative, got {value}\n"
    # the same command with a non-negative bound is not refused
    assert main(argv + [flag, "1"]) in (0, 1)


@pytest.mark.parametrize("bounds", [("0",), ("1",), ("1", "--emit", "json")])
def test_vacuous_lemma_sweep_is_refused(capsys, bounds):
    """At --dim 1 the bracket sweep has no non-trivial instance at any degree."""
    assert main(["lemma-check", "--dim", "1", "--bounds-degree", *bounds]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: lemma-check: check lemma-bracket checked nothing "
        f"under --dim 1 --bounds-degree {bounds[0]}\n"
    )


def test_vacuous_linfty_sweep_is_refused(tmp_path, capsys):
    h = write_doc(tmp_path, "h1.gdt", doc_form(form_make(VarContext(("x",)), [])))
    assert main(["linfty-check", h, "--bounds-degree", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: linfty-check: check linfty-ternary checked nothing under --bounds-degree 0\n"


def test_non_vacuous_sweep_still_passes(tmp_path):
    out = run_cli(tmp_path, "lemma-check", "--dim", "2", "--bounds-degree", "0")
    assert out == (
        "lemma-check report\n"
        "check lemma-differential: pass checked=117 trivial=79\n"
        "check lemma-bracket: pass checked=16 trivial=36\n"
        "check lemma-pairing: pass checked=4 trivial=0\n"
        "result PASS\n"
    )


@pytest.mark.parametrize("degree", ["0", "1"])
def test_lemma_json_echoes_bounds(tmp_path, degree):
    out = run_cli(tmp_path, "lemma-check", "--dim", "2", "--bounds-degree", degree, "--emit", "json")
    payload = json.loads(out)
    assert payload["bounds"] == f"--dim 2 --bounds-degree {degree}"
    assert list(payload) == ["bounds", "checks", "command", "result"]
    assert payload["result"] == "PASS"


def test_linfty_json_echoes_bounds(tmp_path):
    h = write_doc(tmp_path, "h3.gdt", doc_form(form_make(CTX3, [((0, 1, 2), ONE3)])))
    out = run_cli(tmp_path, "linfty-check", h, "--bounds-degree", "0", "--emit", "json")
    assert out.startswith('{"bounds":"--bounds-degree 0","checks":[')
    assert json.loads(out)["result"] == "PASS"
    # the text report does not carry the bounds
    text = run_cli(tmp_path, "linfty-check", h, "--bounds-degree", "0")
    assert "bounds" not in text
    assert text.endswith("result PASS\n")


@pytest.mark.parametrize(
    "frames",
    [[(0, 1)], [(0, 1), (0, 1, 2)]],
    ids=["two-form", "degrees-2-and-3"],
)
def test_linfty_refuses_other_degrees_before_sweeping(tmp_path, capsys, monkeypatch, frames):
    import gdcalc._fastsweep as fs

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran before the degree check")

    for name in ("linfty_jacobi", "linfty_mixed", "linfty_ternary"):
        monkeypatch.setattr(fs, name, no_sweep)
    h = write_doc(tmp_path, "h.gdt", doc_form(form_make(CTX3, [(f, ONE3) for f in frames])))
    assert main(["linfty-check", h]) == 2
    out, err = capsys.readouterr()
    degrees = ", ".join(str(len(f)) for f in frames)
    assert out == ""
    assert err == f"error: {h}: linfty-check takes a 3-form, found terms of degree {degrees}\n"


def test_hkr_refuses_inhomogeneous_multivector(tmp_path, capsys):
    v = write_doc(tmp_path, "v.gdt", doc_multivector(mv_make(CTX2, [((0, 1), ONE2), ((0,), X)])))
    assert main(["hoch", "hkr", v]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {v}: expected a homogeneous multivector field\n"


def test_any_library_refusal_exits_2(tmp_path, capsys, monkeypatch):
    """main maps a ValueError from any handler's library call to exit 2."""
    import gdcalc.cli as cli

    def refuse(a, b):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "schouten", refuse)
    a = write_doc(tmp_path, "a.gdt", doc_multivector(mv_make(CTX2, [((0,), X)])))
    b = write_doc(tmp_path, "b.gdt", doc_multivector(mv_make(CTX2, [((1,), Y)])))
    assert main(["schouten", a, b]) == 2
    assert capsys.readouterr() == ("", "error: boom\n")


_BASE_MODULES = {
    "gdcalc", "gdcalc._fastterms", "gdcalc.cli", "gdcalc.cli.docfmt", "gdcalc.exactcore",
    "gdcalc.polyvec",
}
_DEFORM_MODULES = {"gdcalc.deform", "gdcalc.twistcheck", "gdcalc._linalg"}

# What a fresh process has imported of gdcalc after one command (None: no
# command, just ``import gdcalc.cli``); the argv names corpus files.
IMPORT_SURFACE = [
    (None, 0, set()),
    (["poly", "poly-square.gdt"], 2, set()),
    (["phi-eval", "phi-spec.gdt"], 2, {"gdcalc.twistcheck"}),
    (["twisted-check", "twisted-true-r3.gdt"], 0, {"gdcalc.twistcheck"}),
    (["mc-defect", "series-r4.gdt"], 0, _DEFORM_MODULES),
    (["gauge-equiv", "gauge-pair.gdt"], 0, _DEFORM_MODULES),
    (["hoch", "delta", "hkr-bivector.gdt"], 0, {"gdcalc.hochschild", "gdcalc._linalg"}),
    (["lemma-check", "--dim", "1", "--bounds-degree", "0"], 2, {"gdcalc._fastsweep"}),
]

_PROBE = """
import contextlib, io, sys
import gdcalc.cli
argv = sys.argv[1:]
code = 0
if argv:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = gdcalc.cli.main(argv)
print(code, "json" in sys.modules, *sorted(m for m in sys.modules if m.startswith("gdcalc")))
"""


@pytest.mark.parametrize(
    "argv, code, extra", IMPORT_SURFACE, ids=[" ".join((a or ["import"])[:2]) for a, _, _ in IMPORT_SURFACE]
)
def test_command_imports_only_what_it_runs(argv, code, extra):
    """Without a bytecode cache each process compiles what it imports."""
    import importlib.resources as res

    corpus = res.files("gdcalc.corpus")
    args = [str(corpus / a) if a.endswith(".gdt") else a for a in argv or []]
    r = subprocess.run([sys.executable, "-c", _PROBE, *args], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    got_code, got_json, *modules = r.stdout.split()
    assert (int(got_code), got_json) == (code, "False")
    assert set(modules) == _BASE_MODULES | extra


def test_repeated_main_calls_match_fresh_processes(capsys):
    """The parser is built once per process; reusing it must not change any run."""
    import importlib.resources as res

    from gdcalc.cli import _build_parser

    corpus = res.files("gdcalc.corpus")
    poly = str(corpus / "poly-square.gdt")
    runs = [
        ["poly", poly],
        ["lemma-check", "--dim", "two"],  # usage error, SystemExit 2
        ["poly", poly],
        ["lemma-check", "--dim", "1", "--bounds-degree", "0"],  # refused, exit 2
        ["lemma-check", "--dim", "2", "--bounds-degree", "0"],
        ["hoch", "delta"],  # usage error: missing operand
        ["poly", poly],
        # one command from each import group
        ["hoch", "delta", str(corpus / "hkr-bivector.gdt")],
        ["twisted-check", str(corpus / "twisted-true-r3.gdt")],
        ["phi-eval", str(corpus / "phi-spec.gdt")],  # a problem document, exit 2
        ["gauge-equiv", str(corpus / "gauge-pair.gdt")],
        ["poly", poly],
    ]
    fresh = {}
    for argv in runs:
        key = tuple(argv)
        if key not in fresh:
            r = subprocess.run(
                [sys.executable, "-m", "gdcalc.cli", *argv], capture_output=True, text=True
            )
            fresh[key] = (r.returncode, r.stdout, r.stderr)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        assert (code, *capsys.readouterr()) == fresh[key], argv
    assert fresh[("lemma-check", "--dim", "two")][0] == 2
    assert _build_parser() is _build_parser()


def test_mc_solve_report_shapes(tmp_path):
    prob = _mc_problem(tmp_path)
    out = run_cli(tmp_path, "mc-solve", prob, "--truncation", "2", "--bounds-degree", "1")
    assert "status solved" in out
    assert "term -3 @ 0 1 : 0 0 1 0" in out
    out = run_cli(
        tmp_path, "mc-solve", prob, "--truncation", "2", "--bounds-degree", "0", expect=1
    )
    assert "status obstructed" in out
    assert "obstruction-order 3" in out
    assert "term -6 @ 0 1 3 : 0 0 0 0" in out


def test_gauge_flow_command_matches_fixture(tmp_path):
    text = corpus_text("gauge-pair.gdt")
    pair = parse_document(text)
    fields = pair.payload.fields
    prob = write_doc(
        tmp_path,
        "g.gdt",
        doc_problem(
            CTX2,
            "gauge",
            {"h": fields["h"], "series": fields["a"], "xi": fields["xi"]},
        ),
    )
    out = run_cli(tmp_path, "gauge", prob)
    assert parse_document(out).payload.coeffs == fields["b"].payload.coeffs


MIXED_GAUGE = """gdt 1
context x y z
problem gauge
field h form
term 1 @ 0 1 2 : 0 0 0
field series artin-series 3
order 1
term 1 @ 0 1 2 : 0 0 0
term 1 @ 0 1 : 1 0 0
field xi artin-series 3
order 1
term 1 @ 2 : 1 0 0
order 2
term 2 @ 0 : 0 1 0
end
"""


def test_gauge_flow_command_on_mixed_degree_series(tmp_path):
    """A trivector at order 1 enters the cubic term with its own degree.

    The bytes are those of the evaluator route the flow replaced; taking
    every series coefficient for a bivector in the contraction loses the
    order-3 trivector term.
    """
    prob = tmp_path / "mixed.gdt"
    prob.write_text(MIXED_GAUGE, encoding="utf-8")
    assert run_cli(tmp_path, "gauge", str(prob)) == (
        "gdt 1\n"
        "context x y z\n"
        "artin-series 3\n"
        "order 1\n"
        "term 1 @ 0 1 : 1 0 0\n"
        "term 1 @ 0 1 2 : 0 0 0\n"
        "order 2\n"
        "term -1 @ 1 2 : 1 0 0\n"
        "order 3\n"
        "term -2 @ 0 1 : 0 1 0\n"
        "term -3 @ 0 1 : 3 0 0\n"
        "term -6 @ 0 1 2 : 2 0 0\n"
        "end\n"
    )


def test_verify_deform_suite_deterministic(tmp_path):
    out1 = run_cli(tmp_path, "verify", "--suite", "deform")
    out2 = run_cli(tmp_path, "verify", "--suite", "deform")
    assert out1 == out2
    assert out1.endswith("result PASS checks=4 failed=0\n")


def test_verify_json_is_valid_and_deterministic(tmp_path):
    out1 = run_cli(tmp_path, "verify", "--suite", "schouten", "--emit", "json")
    out2 = run_cli(tmp_path, "verify", "--suite", "schouten", "--emit", "json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["result"] == "PASS"
    assert all(c["passed"] for c in payload["checks"])


def test_entry_point_subprocess_roundtrip(tmp_path):
    """One end-to-end run through the real console entry point."""
    a = write_doc(tmp_path, "a.gdt", doc_multivector(mv_make(CTX2, [((1,), X)])))
    b = write_doc(tmp_path, "b.gdt", doc_multivector(mv_make(CTX2, [((0,), Y)])))
    r1 = subprocess.run(
        [sys.executable, "-m", "gdcalc.cli", "schouten", a, b],
        capture_output=True,
        text=True,
    )
    r2 = subprocess.run(
        [sys.executable, "-m", "gdcalc.cli", "schouten", a, b],
        capture_output=True,
        text=True,
    )
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    assert "term 1 @ 0 : 1 0" in r1.stdout


# ---------------------------------------------------------------------------
# pinned hoch output

# Operands with mixed denominators (1/2, -2/3, 5/7); the expected stdout of
# each command below is pinned byte for byte.
HOCH_DOCS = {
    "a": (
        "gdt 1\n"
        "context x y\n"
        "multidiffop 2\n"
        "term 1/2 : 1 0 @ 1 0 | 0 1\n"
        "term -2/3 : 0 1 @ 0 0 | 1 0\n"
        "term 5/7 : 1 1 @ 1 1 | 0 0\n"
        "end\n"
    ),
    "b": (
        "gdt 1\n"
        "context x y\n"
        "multidiffop 1\n"
        "term -2/3 : 0 2 @ 1 0\n"
        "term 5/7 : 1 0 @ 0 1\n"
        "term 1/2 : 0 0 @ 2 0\n"
        "end\n"
    ),
    "c": (
        "gdt 1\n"
        "context x y\n"
        "multidiffop 1\n"
        "term 5/7 : 1 0 @ 0 1\n"
        "term 1/2 : 0 1 @ 1 0\n"
        "end\n"
    ),
    "v": (
        "gdt 1\n"
        "context x y z\n"
        "multivector\n"
        "term 5/7 @ 0 1 2 : 1 0 0\n"
        "term -2/3 @ 0 1 2 : 0 1 1\n"
        "end\n"
    ),
}

HOCH_PINNED = [
    (
        ["gb", "a", "b"],
        "gdt 1\n"
        "context x y\n"
        "multidiffop 2\n"
        "term -10/21 : 0 1 @ 0 0 | 0 1\n"
        "term 10/21 : 1 0 @ 0 0 | 1 0\n"
        "term 5/14 : 1 0 @ 0 1 | 0 1\n"
        "term 25/49 : 1 1 @ 0 2 | 0 0\n"
        "term 1/3 : 0 2 @ 1 0 | 0 1\n"
        "term -2/3 : 1 1 @ 1 0 | 1 0\n"
        "term -1/2 : 0 0 @ 1 0 | 1 1\n"
        "term 2/3 : 0 1 @ 1 0 | 2 0\n"
        "term -25/49 : 2 0 @ 1 1 | 0 0\n"
        "term 10/21 : 0 3 @ 1 1 | 0 0\n"
        "term -5/7 : 0 1 @ 1 1 | 1 0\n"
        "term -20/21 : 1 2 @ 2 0 | 0 0\n"
        "term -1/2 : 0 0 @ 2 0 | 0 1\n"
        "term -1/2 : 1 0 @ 2 0 | 1 1\n"
        "term -5/7 : 0 1 @ 2 1 | 0 0\n"
        "term -5/7 : 1 1 @ 2 1 | 1 0\n"
        "end\n"
    ),
    (
        ["brace", "a", "b", "c"],
        "gdt 1\n"
        "context x y\n"
        "multidiffop 2\n"
        "term -50/147 : 1 1 @ 0 1 | 0 1\n"
        "term 25/98 : 2 0 @ 0 1 | 0 2\n"
        "term 5/28 : 1 0 @ 0 1 | 1 0\n"
        "term 5/28 : 1 1 @ 0 1 | 1 1\n"
        "term -50/147 : 2 1 @ 0 1 | 1 1\n"
        "term -5/21 : 1 2 @ 0 1 | 2 0\n"
        "term 125/343 : 2 1 @ 0 2 | 0 1\n"
        "term 25/98 : 1 2 @ 0 2 | 1 0\n"
        "term 20/63 : 0 3 @ 1 0 | 0 1\n"
        "term 20/63 : 1 3 @ 1 0 | 1 1\n"
        "term 2/9 : 0 4 @ 1 0 | 2 0\n"
        "term 25/98 : 3 0 @ 1 1 | 0 2\n"
        "term 5/28 : 2 0 @ 1 1 | 1 0\n"
        "term 5/28 : 2 1 @ 1 1 | 1 1\n"
        "term 125/343 : 3 1 @ 1 2 | 0 1\n"
        "term 25/98 : 2 2 @ 1 2 | 1 0\n"
        "term -5/21 : 0 1 @ 2 0 | 0 1\n"
        "term -100/147 : 2 2 @ 2 0 | 0 1\n"
        "term -5/21 : 2 2 @ 2 0 | 0 2\n"
        "term -1/6 : 1 2 @ 2 0 | 1 0\n"
        "term -10/21 : 1 3 @ 2 0 | 1 0\n"
        "term -5/21 : 1 1 @ 2 0 | 1 1\n"
        "term -1/6 : 1 3 @ 2 0 | 1 1\n"
        "term -1/6 : 0 2 @ 2 0 | 2 0\n"
        "term -50/147 : 2 3 @ 2 1 | 0 1\n"
        "term -5/21 : 1 4 @ 2 1 | 1 0\n"
        "term 5/28 : 2 0 @ 3 0 | 0 2\n"
        "term 1/8 : 1 0 @ 3 0 | 1 0\n"
        "term 1/8 : 1 1 @ 3 0 | 1 1\n"
        "term 25/98 : 2 1 @ 3 1 | 0 1\n"
        "term 5/28 : 1 2 @ 3 1 | 1 0\n"
        "end\n"
    ),
    (
        ["cup", "a", "b"],
        "gdt 1\n"
        "context x y\n"
        "multidiffop 3\n"
        "term -10/21 : 1 1 @ 0 0 | 1 0 | 0 1\n"
        "term 4/9 : 0 3 @ 0 0 | 1 0 | 1 0\n"
        "term -1/3 : 0 1 @ 0 0 | 1 0 | 2 0\n"
        "term 5/14 : 2 0 @ 1 0 | 0 1 | 0 1\n"
        "term -1/3 : 1 2 @ 1 0 | 0 1 | 1 0\n"
        "term 1/4 : 1 0 @ 1 0 | 0 1 | 2 0\n"
        "term 25/49 : 2 1 @ 1 1 | 0 0 | 0 1\n"
        "term -10/21 : 1 3 @ 1 1 | 0 0 | 1 0\n"
        "term 5/14 : 1 1 @ 1 1 | 0 0 | 2 0\n"
        "end\n"
    ),
    (
        ["delta", "a"],
        "gdt 1\n"
        "context x y\n"
        "multidiffop 3\n"
        "term -2/3 : 0 1 @ 0 0 | 0 0 | 1 0\n"
        "term -5/7 : 1 1 @ 0 1 | 1 0 | 0 0\n"
        "term -5/7 : 1 1 @ 1 0 | 0 1 | 0 0\n"
        "term -5/7 : 1 1 @ 1 1 | 0 0 | 0 0\n"
        "end\n"
    ),
    (
        ["hkr", "v"],
        "gdt 1\n"
        "context x y z\n"
        "multidiffop 3\n"
        "term -5/42 : 1 0 0 @ 0 0 1 | 0 1 0 | 1 0 0\n"
        "term 1/9 : 0 1 1 @ 0 0 1 | 0 1 0 | 1 0 0\n"
        "term 5/42 : 1 0 0 @ 0 0 1 | 1 0 0 | 0 1 0\n"
        "term -1/9 : 0 1 1 @ 0 0 1 | 1 0 0 | 0 1 0\n"
        "term 5/42 : 1 0 0 @ 0 1 0 | 0 0 1 | 1 0 0\n"
        "term -1/9 : 0 1 1 @ 0 1 0 | 0 0 1 | 1 0 0\n"
        "term -5/42 : 1 0 0 @ 0 1 0 | 1 0 0 | 0 0 1\n"
        "term 1/9 : 0 1 1 @ 0 1 0 | 1 0 0 | 0 0 1\n"
        "term -5/42 : 1 0 0 @ 1 0 0 | 0 0 1 | 0 1 0\n"
        "term 1/9 : 0 1 1 @ 1 0 0 | 0 0 1 | 0 1 0\n"
        "term 5/42 : 1 0 0 @ 1 0 0 | 0 1 0 | 0 0 1\n"
        "term -1/9 : 0 1 1 @ 1 0 0 | 0 1 0 | 0 0 1\n"
        "end\n"
    ),
]


@pytest.mark.parametrize("argv, expect", HOCH_PINNED, ids=[a[0] for a, _ in HOCH_PINNED])
def test_hoch_commands_pinned_bytes(tmp_path, argv, expect):
    paths = {n: tmp_path / f"{n}.gdt" for n in HOCH_DOCS}
    for n, p in paths.items():
        p.write_text(HOCH_DOCS[n], encoding="utf-8")
    sub, names = argv[0], argv[1:]
    assert run_cli(tmp_path, "hoch", sub, *(str(paths[n]) for n in names)) == expect


def _order_doc(tmp_path, name, order):
    p = tmp_path / f"{name}.gdt"
    p.write_text(f"gdt 1\ncontext x y\nmultidiffop 1\nterm 1 : 0 0 @ {order} 1\nend\n", encoding="utf-8")
    return str(p)


def test_hoch_refuses_slot_orders_a_packed_field_cannot_hold(tmp_path):
    """Slot orders are packed 8 bits per variable: 255 is computed, an input
    order of 256 and a bracket whose order bound reaches 256 exit 2."""
    top, big, half = (_order_doc(tmp_path, n, k) for n, k in (("top", 255), ("big", 256), ("half", 128)))
    assert "term 1 : 0 0 @ 255 1 | 255 1\n" in run_cli(tmp_path, "hoch", "cup", top, top)
    run_cli(tmp_path, "hoch", "cup", big, top, expect=2)
    run_cli(tmp_path, "hoch", "gb", half, half, expect=2)


# `gauge` and `gauge-equiv` at n=3 under H = 2/3 dx^dy^dz, truncations 3 and 4.
# The series a is decomposable, so it solves the twisted equation, and so do
# its flows.  XI moves a to MOVED; the search finds a witness of degree <= 1.
# x^2 d_z moves a to FAR: its order-2 change has quadratic coefficients, and
# [b, a_1] is linear for every field b of degree <= 1, so no witness exists
# within --bounds-degree 1.  The cubic term of the flow acts from order 3 on.
# The bytes were recorded before the flow became one pass by t-order.
GAUGE_A = "order 1\nterm 1 @ 0 1 : 0 0 1\nterm -1/2 @ 0 1 : 1 0 0\norder 2\nterm 3 @ 0 1 : 0 1 0\n"
GAUGE_XI = "order 1\nterm 1 @ 2 : 1 0 0\nterm 1/2 @ 0 : 0 0 1\norder 2\nterm -2 @ 1 : 0 0 0\n"
GAUGE_MOVED_3 = (
    "order 1\n"
    "term 1 @ 0 1 : 0 0 1\n"
    "term -1/2 @ 0 1 : 1 0 0\n"
    "order 2\n"
    "term 1/4 @ 0 1 : 0 0 1\n"
    "term 3 @ 0 1 : 0 1 0\n"
    "term -1 @ 0 1 : 1 0 0\n"
    "term -1 @ 1 2 : 0 0 1\n"
    "term 1/2 @ 1 2 : 1 0 0\n"
    "order 3\n"
    "term 1/2 @ 0 1 : 0 0 1\n"
    "term -1/4 @ 0 1 : 1 0 0\n"
    "term -2 @ 0 1 : 1 0 2\n"
    "term 2 @ 0 1 : 2 0 1\n"
    "term -1/2 @ 0 1 : 3 0 0\n"
    "term -1/4 @ 1 2 : 0 0 1\n"
    "term -3 @ 1 2 : 0 1 0\n"
    "term 1 @ 1 2 : 1 0 0\n"
)
GAUGE_MOVED = {
    3: GAUGE_MOVED_3,
    4: GAUGE_MOVED_3 + (
        "order 4\n"
        "term 6 @ 0 1 : 0 0 0\n"
        "term 1/12 @ 0 1 : 0 0 1\n"
        "term 3/4 @ 0 1 : 0 1 0\n"
        "term -1/3 @ 0 1 : 1 0 0\n"
        "term 1 @ 0 1 : 0 0 3\n"
        "term -2 @ 0 1 : 1 0 2\n"
        "term -12 @ 0 1 : 1 1 1\n"
        "term 19/4 @ 0 1 : 2 0 1\n"
        "term 6 @ 0 1 : 2 1 0\n"
        "term -2 @ 0 1 : 3 0 0\n"
        "term -1/3 @ 1 2 : 0 0 1\n"
        "term 1/6 @ 1 2 : 1 0 0\n"
        "term 2 @ 1 2 : 1 0 2\n"
        "term -2 @ 1 2 : 2 0 1\n"
        "term 1/2 @ 1 2 : 3 0 0\n"
    ),
}
GAUGE_FAR_3 = (
    "order 1\n"
    "term 1 @ 0 1 : 0 0 1\n"
    "term -1/2 @ 0 1 : 1 0 0\n"
    "order 2\n"
    "term 3 @ 0 1 : 0 1 0\n"
    "term -1 @ 0 1 : 2 0 0\n"
    "term -2 @ 1 2 : 1 0 1\n"
    "term 1 @ 1 2 : 2 0 0\n"
    "order 3\n"
    "term -2 @ 0 1 : 2 0 2\n"
    "term 2 @ 0 1 : 3 0 1\n"
    "term -1/2 @ 0 1 : 4 0 0\n"
    "term -6 @ 1 2 : 1 1 0\n"
    "term 2 @ 1 2 : 3 0 0\n"
)
GAUGE_FAR = {
    3: GAUGE_FAR_3,
    4: GAUGE_FAR_3 + (
        "order 4\n"
        "term -12 @ 0 1 : 2 1 1\n"
        "term 6 @ 0 1 : 3 1 0\n"
        "term 4 @ 0 1 : 4 0 1\n"
        "term -2 @ 0 1 : 5 0 0\n"
        "term 4 @ 1 2 : 3 0 2\n"
        "term -4 @ 1 2 : 4 0 1\n"
        "term 1 @ 1 2 : 5 0 0\n"
    ),
}
GAUGE_H = "field h form\nterm 2/3 @ 0 1 2 : 0 0 0\n"
GAUGE_WITNESS = {
    3: "order 1\nterm 1/2 @ 0 : 0 0 1\nterm 1 @ 2 : 1 0 0\n",
    4: "order 1\nterm 1/2 @ 0 : 0 0 1\nterm 1 @ 2 : 1 0 0\norder 3\nterm 12 @ 0 : 0 0 0\n",
}


def _gauge_pinned_cases():
    head = "gdt 1\ncontext x y z\n"
    cases = []
    for N in (3, 4):
        series = f"artin-series {N}\n"
        doc = (
            f"{head}problem gauge\n{GAUGE_H}field series {series}{GAUGE_A}"
            f"field xi {series}{GAUGE_XI}end\n"
        )
        cases.append((f"gauge-N{N}", doc, ["gauge"], 0, f"{head}{series}{GAUGE_MOVED[N]}end\n"))
        witness = f"{head}{series}{GAUGE_WITNESS[N]}end\n"
        for verdict, b, tail, code, payload in (
            ("true", GAUGE_MOVED[N], "witness\n" + witness, 0, json.dumps(witness)),
            ("false", GAUGE_FAR[N], "", 1, "null"),
        ):
            doc = f"{head}problem gauge-pair\nfield a {series}{GAUGE_A}field b {series}{b}{GAUGE_H}end\n"
            for emit, want in (
                ("text", f"gauge-equiv report\nequivalent {verdict}\n{tail}"),
                (
                    "json",
                    f'{{"command":"gauge-equiv","equivalent":{verdict},'
                    f'"poly_degree":1,"witness":{payload}}}\n',
                ),
            ):
                argv = ["gauge-equiv", "--bounds-degree", "1", "--emit", emit]
                cases.append((f"gauge-equiv-{verdict}-N{N}-{emit}", doc, argv, code, want))
    return cases


GAUGE_PINNED = _gauge_pinned_cases()


@pytest.mark.parametrize("name, doc, argv, code, expect", GAUGE_PINNED, ids=[c[0] for c in GAUGE_PINNED])
def test_gauge_commands_pinned_bytes(tmp_path, name, doc, argv, code, expect):
    path = tmp_path / "p.gdt"
    path.write_text(doc, encoding="utf-8")
    assert run_cli(tmp_path, argv[0], str(path), *argv[1:], expect=code) == expect
