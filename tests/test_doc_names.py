"""Docs name only functions and modules that exist.

Every backticked ``module.name`` in the sign ledger must resolve to an
attribute of that ``gdcalc`` module, and every backticked ``gdcalc.<module>``
in the README to an importable module or one of its attributes.  Every
backticked dotted name in a module, class or function docstring under
``src/gdcalc`` must resolve within ``gdcalc`` (``_linalg.Factorisation``) or
as written (``fractions.Fraction``).
"""
from __future__ import annotations

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def _resolve(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _names(doc: str, keep) -> list:
    text = (ROOT / doc).read_text(encoding="utf-8")
    return sorted({m for m in DOTTED.findall(text) if keep(m)})


def _docstring_names() -> list:
    found = set()
    for path in sorted((ROOT / "src" / "gdcalc").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(DOTTED.findall(ast.get_docstring(node) or ""))
    return sorted(found)


LEDGER = _names("docs/sign-ledger.md", lambda m: True)
README = _names("README.md", lambda m: m.startswith("gdcalc."))
DOCSTRINGS = _docstring_names()


def test_docs_name_something():
    assert LEDGER and README and DOCSTRINGS


@pytest.mark.parametrize("name", LEDGER)
def test_sign_ledger_names_exist(name):
    assert _resolve("gdcalc." + name), name


@pytest.mark.parametrize("name", README)
def test_readme_names_exist(name):
    assert _resolve(name), name


@pytest.mark.parametrize("name", DOCSTRINGS)
def test_docstring_names_exist(name):
    assert _resolve("gdcalc." + name) or _resolve(name), name


def test_resolver_refuses_missing_names():
    assert not _resolve("gdcalc.polyvec.form_scale")
    assert not _resolve("gdcalc.nosuchmodule")
    assert _resolve("gdcalc.cli.docfmt")
