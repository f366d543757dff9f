"""Pinned (exit code, stdout, stderr) of every command that reads documents.

Each case runs ``main`` in a directory that holds the documents below, so
error messages name relative paths.  The cases cover a good input of each
transform and problem command, the refusals of each (wrong kind, context
mismatch, missing fields, an H that is not closed, differing truncations,
malformed lines of every payload kind), and the ``--help`` text of every
command.  The expected bytes live in ``cli_pinned.json`` next to this file;
they were recorded before the CLI's input side was rewritten, and a change
to the readers must leave every one of them as it is.  Nine refusals were
re-recorded since, when their wording was mended: "an artin-series" for "a
artin-series", and gauge-equiv's truncation refusal naming its path.

    PYTHONPATH=src python tests/test_cli_pinned.py

rewrites ``cli_pinned.json`` from the current code, for a change that means
to alter an output.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import pathlib
import sys

import pytest

from gdcalc.cli import main

PINNED = pathlib.Path(__file__).with_name("cli_pinned.json")


def _doc(body: str, names: str = "x y z") -> str:
    return f"gdt 1\ncontext {names}\n{body}end\n"


POLY = "polynomial\nterm 1/2 : 1 0 0\nterm -3 : 0 2 1\n"
BIVEC = "multivector\nterm 1 @ 0 1 : 0 0 1\nterm -1/2 @ 1 2 : 1 0 0\nterm 2/3 @ 0 2 : 0 1 0\n"
VEC = "multivector\nterm 1 @ 0 : 0 1 0\nterm 3/4 @ 2 : 1 0 1\n"
MIXED = "multivector\nterm 1 @ 0 1 : 0 0 0\nterm 1 @ 0 : 1 0 0\n"
ONEFORM = "form\nterm 1 @ 0 : 0 1 1\nterm -1/2 @ 2 : 1 0 0\n"
THREEFORM = "form\nterm 2/3 @ 0 1 2 : 0 0 0\n"
OP0 = "multidiffop 0\nterm 3 : 1 1 0\n"
OP1 = "multidiffop 1\nterm -2/3 : 0 2 0 @ 1 0 0\nterm 5/7 : 1 0 0 @ 0 1 0\n"
OP2 = "multidiffop 2\nterm 1/2 : 1 0 0 @ 1 0 0 | 0 1 0\nterm -2/3 : 0 1 0 @ 0 0 1 | 1 0 0\n"

DOCS = {
    "p.gdt": _doc(POLY),
    "v.gdt": _doc(BIVEC),
    "w.gdt": _doc(VEC),
    "mix.gdt": _doc(MIXED),
    "f.gdt": _doc(ONEFORM),
    "h.gdt": _doc(THREEFORM),
    "m0.gdt": _doc(OP0),
    "m1.gdt": _doc(OP1),
    "m2.gdt": _doc(OP2),
    "spec.gdt": _doc("cochain-spec phi 2\n" + THREEFORM.split("\n", 1)[1]),
    "spec-m.gdt": _doc("cochain-spec m\n"),
    # the same payloads over other variable names: a context mismatch
    "p-uvw.gdt": _doc(POLY, "u v w"),
    "v-uvw.gdt": _doc(BIVEC, "u v w"),
    "w-uvw.gdt": _doc(VEC, "u v w"),
    "f-uvw.gdt": _doc(ONEFORM, "u v w"),
    "m1-uvw.gdt": _doc(OP1, "u v w"),
    "m2-uvw.gdt": _doc(OP2, "u v w"),
    "bad.gdt": "gdt 1\ncontext x y z\nmultivector\nterm 1 @ 0\n",
    # terms out of order, repeated and cancelling
    "p-shuffled.gdt": _doc("polynomial\nterm 1 : 0 2 1\nterm 1/2 : 1 0 0\nterm -4 : 0 2 1\n"
                           "term 1 : 0 0 0\nterm -1 : 0 0 0\nterm 2 : 0 0 0\n"),
    "v-shuffled.gdt": _doc("multivector\nterm 2/3 @ 0 2 : 0 1 0\nterm 1 @ 0 1 : 0 0 1\n"
                           "term 1 @ 1 2 : 0 0 0\nterm -1/2 @ 1 2 : 1 0 0\n"
                           "term -1 @ 1 2 : 0 0 0\nterm 1 @ 0 1 : 1 0 0\n"),
    "f-shuffled.gdt": _doc("form\nterm -1/2 @ 2 : 1 0 0\nterm 1 @ 0 : 0 1 1\n"
                           "term 3 @ 0 : 0 0 0\nterm -3 @ 0 : 0 0 0\nterm 1 @ 1 : 1 1 0\n"),
    "m1-shuffled.gdt": _doc("multidiffop 1\nterm 5/7 : 1 0 0 @ 0 1 0\nterm 1 : 0 0 0 @ 0 1 0\n"
                            "term -2/3 : 0 2 0 @ 1 0 0\nterm -1 : 0 0 0 @ 0 1 0\n"),
}

# The kind each transform command reads in each operand slot.
TRANSFORMS = {
    ("schouten",): ("v", "w"),
    ("d",): ("f",),
    ("contract",): ("f", "v"),
    ("ia",): ("p", "v"),
    ("hoch", "delta"): ("m1",),
    ("hoch", "gb"): ("m2", "m1"),
    ("hoch", "cup"): ("m2", "m1"),
    ("hoch", "brace"): ("m2", "m1", "m1"),
    ("hoch", "ia"): ("p", "m1"),
    ("hoch", "hkr"): ("v",),
    ("hoch", "primitive"): ("m1",),
    ("poly",): ("p", "p"),
    ("wedge",): ("v", "w"),
    ("phi-eval",): ("spec", "v", "w"),
    ("linfty-check",): ("h",),
}
# A document of another kind for each kind of operand.
WRONG = {"v": "f", "w": "f", "f": "v", "h": "v", "p": "v", "m1": "p", "m2": "p", "spec": "p"}


def _swap(good, i, name):
    return [name if j == i else g for j, g in enumerate(good)]


def _transform_cases():
    cases = []
    for cmd, slots in TRANSFORMS.items():
        good = [f"{s}.gdt" for s in slots]
        cases.append([*cmd, *good])
        for i, s in enumerate(slots):
            cases.append([*cmd, *_swap(good, i, f"{WRONG[s]}.gdt")])  # the wrong kind
            cases.append([*cmd, *_swap(good, i, "missing.gdt")])
            cases.append([*cmd, *_swap(good, i, "bad.gdt")])
            if len(slots) > 1 and f"{s}-uvw.gdt" in DOCS:
                cases.append([*cmd, *_swap(good, i, f"{s}-uvw.gdt")])  # another context
                # a wrong kind is reported before a later context mismatch
                j = max(k for k in range(len(slots)) if k != i)
                if f"{slots[j]}-uvw.gdt" in DOCS:
                    bad = _swap(good, i, f"{WRONG[s]}.gdt")
                    bad[j] = f"{slots[j]}-uvw.gdt"
                    cases.append([*cmd, *bad])
        if len(slots) > 1:  # every operand of the wrong kind
            cases.append([*cmd, *(f"{WRONG[s]}.gdt" for s in slots)])
    cases += [
        ["hoch", "brace", "m2.gdt"],
        ["hoch", "brace", "p.gdt"],
        ["hoch", "brace", "missing.gdt"],
        ["hoch", "brace", "m2.gdt", "m1.gdt", "m1-uvw.gdt"],
        ["hoch", "delta", "m0.gdt"],
        ["hoch", "hkr", "mix.gdt"],
        ["hoch", "hkr", "w.gdt"],
        ["hoch", "primitive", "m1.gdt", "--emit", "json"],
        ["hoch", "primitive", "m2.gdt", "--bounds-degree", "1", "--bounds-order", "1"],
        ["hoch", "primitive", "m2.gdt", "--bounds-degree", "0", "--bounds-order", "0",
         "--emit", "json"],
        ["wedge", "v.gdt", "f.gdt"],
        ["wedge", "f.gdt", "v.gdt"],
        ["wedge", "f.gdt", "f.gdt", "f.gdt"],
        ["wedge", "p.gdt"],
        ["wedge", "v.gdt", "w-uvw.gdt"],
        ["wedge", "v.gdt", "f-uvw.gdt"],
        ["poly", "p.gdt", "p-uvw.gdt"],
        ["poly", "p.gdt", "v.gdt"],
        ["phi-eval", "spec.gdt", "v.gdt"],
        ["phi-eval", "spec-m.gdt", "v.gdt", "w.gdt"],
        ["phi-eval", "spec-m.gdt", "v.gdt"],
        ["phi-eval", "h.gdt", "w.gdt", "w.gdt", "v.gdt"],
        ["phi-eval", "p.gdt", "v.gdt"],
        ["linfty-check", "f.gdt"],
        ["linfty-check", "h.gdt", "--bounds-degree", "0", "--emit", "json"],
        ["schouten", "v-shuffled.gdt", "w.gdt"],
        ["d", "f-shuffled.gdt"],
        ["contract", "f-shuffled.gdt", "v-shuffled.gdt"],
        ["ia", "p-shuffled.gdt", "v-shuffled.gdt"],
        ["poly", "p-shuffled.gdt"],
        ["wedge", "f-shuffled.gdt", "f.gdt"],
        ["hoch", "gb", "m2.gdt", "m1-shuffled.gdt"],
        ["hoch", "ia", "p-shuffled.gdt", "m1-shuffled.gdt"],
        ["hoch", "hkr", "v-shuffled.gdt"],
        ["hoch", "primitive", "m1-shuffled.gdt"],
    ]
    return cases


# Problems live over four variables, where x4 dx1^dx2^dx3 is not closed.
NAMES4 = "x1 x2 x3 x4"
H4 = "form\nterm 1 @ 0 1 2 : 0 0 0 0\n"
H4_OPEN = "form\nterm 1 @ 0 1 2 : 0 0 0 1\n"
H4_TWO = "form\nterm 1 @ 0 1 : 0 0 0 0\n"
PI4 = "multivector\nterm 1 @ 0 1 : 0 0 0 0\nterm 1 @ 2 3 : 0 0 0 0\n"
PI4_OTHER = "multivector\nterm 1 @ 0 1 : 0 0 0 1\nterm 1 @ 1 2 : 1 0 0 0\n"
SERIES4 = (
    "artin-series 2\norder 1\nterm 1 @ 0 1 : 0 0 0 0\nterm 1 @ 2 3 : 0 0 0 0\n"
    "order 2\nterm -3 @ 0 1 : 0 0 1 0\n"
)
FAR4 = "artin-series 2\norder 1\nterm 1 @ 0 1 : 0 0 0 0\nterm 1 @ 2 3 : 0 0 0 0\n" \
    "order 2\nterm 1 @ 0 1 : 2 0 0 0\n"
XI4 = "artin-series 2\norder 1\nterm 1 @ 2 : 1 0 0 0\norder 2\nterm -2 @ 1 : 0 0 0 1\n"
XI4_LONG = "artin-series 3\norder 1\nterm 1 @ 2 : 1 0 0 0\n"

# Each problem command, its options, and its fields in the order it names them.
PROBLEMS = {
    "twisted-check": ((), {"h": H4, "pi": PI4}),
    "mc-defect": ((), {"h": H4, "series": SERIES4}),
    "defect-series": ((), {"h": H4, "series": SERIES4}),
    "mc-solve": (("--truncation", "2", "--bounds-degree", "1"), {"h": H4, "pi1": PI4}),
    "gauge": ((), {"h": H4, "series": SERIES4, "xi": XI4}),
    "gauge-equiv": (("--bounds-degree", "0"), {"a": SERIES4, "b": SERIES4, "h": H4}),
}
# A payload of another kind for each field.
WRONG_FIELD = {"h": PI4, "pi": H4, "pi1": SERIES4, "series": PI4, "xi": H4, "a": PI4, "b": H4}


def _problem(fields) -> str:
    body = "problem p\n" + "".join(
        f"field {name} {text}" for name, text in fields.items()
    )
    return _doc(body, NAMES4)


def _problem_cases(docs):
    """Adds each problem document to ``docs``; returns the argv lists."""
    cases = []

    def add(cmd, opts, name, fields):
        docs[name] = _problem(fields)
        cases.append([cmd, name, *opts])

    for cmd, (opts, fields) in PROBLEMS.items():
        add(cmd, opts, f"{cmd}.gdt", fields)
        cases.append([cmd, "h.gdt", *opts])  # not a problem document
        cases.append([cmd, "missing.gdt", *opts])
        cases.append([cmd, "bad.gdt", *opts])
        for k in (1, 2):
            for gone in itertools.combinations(fields, k):
                kept = {n: t for n, t in fields.items() if n not in gone}
                add(cmd, opts, f"{cmd}-no-{'-'.join(gone)}.gdt", kept)
        for k in (1, 2):
            for wrong in itertools.combinations(fields, k):
                swapped = {n: WRONG_FIELD[n] if n in wrong else t for n, t in fields.items()}
                add(cmd, opts, f"{cmd}-wrong-{'-'.join(wrong)}.gdt", swapped)
        # a missing field is reported before a field of the wrong kind
        last = list(fields)[-1]
        mixed = {n: (WRONG_FIELD[n] if n == "h" else t) for n, t in fields.items() if n != last}
        add(cmd, opts, f"{cmd}-no-{last}-wrong-h.gdt", mixed)
        add(cmd, opts, f"{cmd}-open-h.gdt", {**fields, "h": H4_OPEN})
        add(cmd, opts, f"{cmd}-two-form-h.gdt", {**fields, "h": H4_TWO})
        add(cmd, opts, f"{cmd}-extra.gdt", {**fields, "q": "polynomial\nterm 1 : 0 0 0 0\n"})
    add("twisted-check", (), "twisted-check-other.gdt", {"h": H4, "pi": PI4_OTHER})
    for emit in ("text", "json"):
        for cmd in ("twisted-check", "mc-defect", "mc-solve", "gauge-equiv"):
            opts = PROBLEMS[cmd][0]
            cases.append([cmd, f"{cmd}.gdt", *opts, "--emit", emit])
        cases.append(["twisted-check", "twisted-check-other.gdt", "--emit", emit])
        cases.append(["mc-solve", "mc-solve.gdt", "--truncation", "2", "--bounds-degree", "0",
                      "--emit", emit])
        add("gauge-equiv", ("--bounds-degree", "1", "--emit", emit), "gauge-equiv-far.gdt",
            {"a": SERIES4, "b": FAR4, "h": H4})
    add("mc-defect", (), "mc-defect-far.gdt", {"h": H4, "series": FAR4})
    add("gauge", (), "gauge-long-xi.gdt", {"h": H4, "series": SERIES4, "xi": XI4_LONG})
    add("gauge", (), "gauge-long-xi-open-h.gdt", {"h": H4_OPEN, "series": SERIES4, "xi": XI4_LONG})
    add("gauge", (), "gauge-long-xi-wrong-h.gdt", {"h": PI4, "series": SERIES4, "xi": XI4_LONG})
    add("gauge-equiv", (), "gauge-equiv-long-b.gdt", {"a": SERIES4, "b": XI4_LONG, "h": H4})
    # terms out of order, repeated and cancelling: the readers sum them
    shuffled_h = "form\nterm 1/2 @ 0 1 2 : 0 0 0 0\nterm 1/2 @ 0 1 2 : 0 0 0 0\n"
    shuffled_pi = (
        "multivector\nterm 1 @ 2 3 : 0 0 0 0\nterm 1 @ 0 1 : 0 0 1 0\n"
        "term 1 @ 0 1 : 0 0 0 0\nterm -1 @ 0 1 : 0 0 1 0\nterm 1 @ 1 3 : 0 0 1 0\n"
    )
    shuffled_series = (
        "artin-series 2\norder 1\nterm 1 @ 2 3 : 0 0 0 0\nterm 2 @ 0 1 : 0 0 0 0\n"
        "term -1 @ 0 1 : 0 0 0 0\norder 2\nterm 1 @ 0 1 : 0 0 1 0\nterm -4 @ 0 1 : 0 0 1 0\n"
    )
    add("mc-solve", ("--truncation", "3", "--bounds-degree", "1"), "mc-solve-shuffled.gdt",
        {"pi1": shuffled_pi, "h": shuffled_h})
    add("gauge-equiv", ("--bounds-degree", "1"), "gauge-equiv-shuffled.gdt",
        {"b": shuffled_series, "h": shuffled_h, "a": SERIES4})
    add("gauge", (), "gauge-shuffled.gdt", {"xi": XI4, "series": shuffled_series, "h": shuffled_h})
    add("twisted-check", (), "twisted-check-shuffled.gdt", {"h": shuffled_h, "pi": shuffled_pi})
    # the two-document form of twisted-check: a form, then a multivector
    docs["h4.gdt"] = _doc(H4, NAMES4)
    docs["h4-open.gdt"] = _doc(H4_OPEN, NAMES4)
    docs["pi4.gdt"] = _doc(PI4, NAMES4)
    docs["pi4-other-terms.gdt"] = _doc(PI4_OTHER, NAMES4)
    docs["pi4-other.gdt"] = _doc(PI4, "y1 y2 y3 y4")
    for pair in (
        ("h4.gdt", "pi4.gdt"), ("h4.gdt", "pi4-other-terms.gdt"), ("h4-open.gdt", "pi4.gdt"),
        ("pi4.gdt", "pi4.gdt"), ("h4.gdt", "h4.gdt"), ("h4.gdt", "pi4-other.gdt"),
        ("pi4.gdt", "pi4-other.gdt"), ("h4.gdt", "missing.gdt"), ("missing.gdt", "pi4.gdt"),
        ("twisted-check.gdt", "pi4.gdt"), ("h4-open.gdt", "pi4-other.gdt"),
    ):
        cases.append(["twisted-check", *pair])
    return cases


# Malformed lines, each in a document of the kind that reads it.
MALFORMED = {
    "polynomial": [
        "term", "term 1", "term x : 0 0 0", "term 1/0 : 0 0 0", "term 1 @ 0 : 0 0 0",
        "term 1 : 0 0", "term 1 : 0 -1 0", "term 1 : 0 a 0", "tern 1 : 0 0 0",
        "order 1", "term 1 : 0 0 0 @ 1 0 0",
    ],
    "multivector": [
        "term", "term 1", "term x @ 0 : 0 0 0", "term 1/0 @ 0 : 0 0 0", "term 1 : 0 0 0",
        "term 1 @ 0 0 0 0", "term 1 @ 3 : 0 0 0", "term 1 @ 1 0 : 0 0 0",
        "term 1 @ 1 1 : 0 0 0", "term 1 @ 0 : 0 0", "term 1 @ 0 : 0 -1 0",
        "term 1 @ a : 0 0 0", "term 1 @ -1 : 0 0 0", "term 1 @ 5 -1 : 0 0 0",
        "term 1 @ 2 0 5 : 0 0 0", "term x @ 9 : 0", "term 1 @ 0 : 0 0 0 @",
        "tern 1 @ 0 : 0 0 0", "order 1", "field a form",
    ],
    "form": ["term 1 @ 0", "term 1 @ 1 0 : 0 0 0", "term 1 @ 0 : 1 0", "term q @ 0 : 0 0 0"],
    "multidiffop 0": ["term 1 : 0 0 0 @ 1 0 0", "term 1 @ 0 0 0", "term 1 : 0 0"],
    "multidiffop 1": [
        "term", "term 1", "term 1 @ 0 0 0 : 0 0 0", "term 1 : 0 0 0",
        "term 1 : 0 0 0 @ 1 0 0 | 0 0 0", "term 1 : 0 0 @ 1 0 0", "term 1 : 0 0 0 @ 1 0",
        "term 1 : 0 0 0 @ -1 0 0", "term z : 0 0 0 @ 1 0 0", "tern 1 : 0 0 0 @ 1 0 0",
    ],
    "multidiffop 2": [
        "term 1 : 0 0 0 @ 1 0 0", "term 1 : 0 0 0 @ 1 0 0 | | 0 0 0",
        "term 1 : 0 0 0 @ 1 0 0 | 0 a 0", "term 1 : 0 0 0 @ | 1 0 0",
    ],
    "cochain-spec phi 2": ["term 1 @ 0 1 2", "term 1 @ 2 1 0 : 0 0 0", "term 1 : 0 0 0"],
    "artin-series 2": [
        "term 1 @ 0 1 : 0 0 0", "order", "order 1 2", "order x", "order 0", "order 3",
        "order 1\nterm 1 @ 0 1 : 0 0\n", "order 1\nterm 1 @ 1 0 : 0 0 0\n",
        "order 2\norder 1", "order 1\norder 1", "order 1\nterm 1 : 0 0 0\n",
    ],
}
# Malformed kind lines, headers and problem structure.
MALFORMED_DOCS = [
    "gdt 2\ncontext x\npolynomial\nend\n",
    "gdt 1\ncontext\npolynomial\nend\n",
    "gdt 1\ncontext x x\npolynomial\nend\n",
    "gdt 1\ncontext x\nmultivector 2\nend\n",
    "gdt 1\ncontext x\npolynomial 1\nend\n",
    "gdt 1\ncontext x\nmultidiffop\nend\n",
    "gdt 1\ncontext x\nmultidiffop -1\nend\n",
    "gdt 1\ncontext x\nartin-series\nend\n",
    "gdt 1\ncontext x\nartin-series 0\nend\n",
    "gdt 1\ncontext x\ncochain-spec\nend\n",
    "gdt 1\ncontext x\ncochain-spec m 1\nend\n",
    "gdt 1\ncontext x\ncochain-spec phi\nend\n",
    "gdt 1\ncontext x\nwidget\nend\n",
    "gdt 1\ncontext x\nproblem\nend\n",
    "gdt 1\ncontext x\nproblem p\nterm 1 : 0\nend\n",
    "gdt 1\ncontext x\nproblem p\nfield a\nend\n",
    "gdt 1\ncontext x\nproblem p\nfield a problem q\nend\n",
    "gdt 1\ncontext x\nproblem p\nfield a polynomial\nfield a form\nend\n",
    "gdt 1\ncontext x\nproblem p\nfield a polynomial\nterm 1 @ : 0\nend\n",
    "gdt 1\ncontext x\nproblem p\nfield a multidiffop 1\nterm 1 : 0\nend\n",
    "gdt 1\ncontext x\npolynomial\nterm 1 : 0\n",
    "gdt 1\ncontext x\npolynomial\nterm 1 : 0\nend\nend\n",
    "gdt 1\ncontext x\npolynomial\nend extra\n",
    "",
]
# The command that reads each kind of malformed document, as the argv before
# and after it, and a good line put ahead of the bad one.
READER = {
    "polynomial": (["poly"], [], "term 1 : 1 0 0\n"),
    "multivector": (["schouten"], ["w.gdt"], "term 1 @ 0 : 1 0 0\n"),
    "form": (["d"], [], "term 1 @ 0 : 1 0 0\n"),
    "multidiffop 0": (["hoch", "delta"], [], "term 1 : 1 0 0\n"),
    "multidiffop 1": (["hoch", "delta"], [], "term 1 : 1 0 0 @ 0 0 1\n"),
    "multidiffop 2": (["hoch", "delta"], [], ""),
    "cochain-spec phi 2": (["phi-eval"], ["v.gdt", "w.gdt"], ""),
    "artin-series 2": (["mc-defect"], [], ""),
}


def _malformed_cases(docs):
    cases = []
    for kind, lines in MALFORMED.items():
        before, after, good = READER[kind]
        for i, line in enumerate(lines):
            name = f"bad-{kind.replace(' ', '')}-{i}.gdt"
            body = f"{kind}\n{good}{line.rstrip()}\n"
            if kind.startswith("artin-series"):  # read as the series field of a problem
                body = f"problem p\nfield h {THREEFORM}field series {body}"
            docs[name] = _doc(body)
            cases.append([*before, name, *after])
    for i, text in enumerate(MALFORMED_DOCS):
        name = f"bad-doc-{i}.gdt"
        docs[name] = text
        cases.append(["poly", name])
    return cases


def _help_cases():
    commands = [
        "poly", "wedge", "schouten", "d", "contract", "ia", "phi-eval", "lemma-check",
        "linfty-check", "twisted-check", "mc-defect", "defect-series", "mc-solve", "gauge",
        "gauge-equiv", "hoch", "verify",
    ]
    hoch = ["delta", "gb", "cup", "brace", "ia", "hkr", "primitive"]
    cases = [["--help"]] + [[c, "--help"] for c in commands]
    cases += [["hoch", h, "--help"] for h in hoch]
    # usage errors: a missing or surplus operand, an unknown command
    cases += [
        [], ["schouten", "v.gdt"], ["d"], ["contract", "f.gdt", "v.gdt", "w.gdt"],
        ["hoch", "gb", "m2.gdt"], ["hoch"], ["hoch", "nope"], ["nope"], ["ia", "p.gdt"],
        ["gauge"], ["mc-solve", "x.gdt", "--truncation", "two"], ["poly"],
    ]
    return cases


def _build():
    docs = dict(DOCS)
    cases = _transform_cases() + _problem_cases(docs) + _malformed_cases(docs) + _help_cases()
    return docs, cases


DOCUMENTS, CASES = _build()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pinned")
    for name, text in DOCUMENTS.items():
        (d / name).write_text(text, encoding="utf-8")
    return d


@pytest.fixture(scope="module")
def expected():
    return json.loads(PINNED.read_text(encoding="utf-8"))


def test_every_case_is_pinned(expected):
    assert sorted(expected) == sorted({" ".join(a) for a in CASES})


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a) for a in CASES])
def test_cli_bytes_are_pinned(workdir, expected, monkeypatch, argv):
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert _run(argv) == expected[" ".join(argv)]


def _record() -> None:
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as d:
        for name, text in DOCUMENTS.items():
            pathlib.Path(d, name).write_text(text, encoding="utf-8")
        here = os.getcwd()
        os.chdir(d)
        try:
            got = {" ".join(a): _run(a) for a in CASES}
        finally:
            os.chdir(here)
    PINNED.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(got)} cases written to {PINNED}", file=sys.stderr)


if __name__ == "__main__":
    _record()
