"""The sweep drivers against the per-subset reference in ``_ref_fastsweep``.

The library reads unshuffle signs from ``subset_plan``'s parity table and
adds every term of an identity straight into the tuple's accumulator; the
reference recomputes each subset's sign and builds every value as its own
TermMap.  Whole reports (verdict, ``checked``, ``trivial``, witness) must
be equal.  Every 3-form is closed at n <= 3, so the failing reports, whose
witnesses are compared byte for byte, come from seeded non-closed 3-forms
with ``Fraction`` coefficients at n=4 with constant tuple elements.
"""
import itertools
import random
from fractions import Fraction

import pytest

import _ref_fastsweep as ref
from gdcalc import _fastsweep as fs
from gdcalc._fastterms import FastCtx, odd_mask, subset_plan
from gdcalc.exactcore import VarContext, koszul_unshuffle_sign, monomials_upto, poly_from_terms
from gdcalc.polyvec import d_form, form_is_zero, form_make

CTX = {
    2: VarContext(("x", "y")),
    3: VarContext(("x", "y", "z")),
    4: VarContext(("x1", "x2", "x3", "x4")),
}
COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4)]


def three_form(n, terms):
    return form_make(CTX[n], [(cof, poly_from_terms(n, [(c, e)])) for cof, c, e in terms])


def random_three_form(rng, n, max_deg):
    coframes = list(itertools.combinations(range(n), 3))
    monos = list(monomials_upto(n, max_deg))
    return three_form(
        n,
        [(rng.choice(coframes), rng.choice(COEFFS), rng.choice(monos)) for _ in range(rng.randint(1, 3))],
    )


def assert_same(name, *args, **kwargs):
    got = getattr(fs, name)(*args, **kwargs)
    want = getattr(ref, name)(*args, **kwargs)
    assert got == want
    assert got.checked > 0
    return got


H3_UNIT = three_form(3, [((0, 1, 2), 1, (0, 0, 0))])
H3_DRESSED = three_form(3, [((0, 1, 2), Fraction(-2, 3), (1, 0, 1))])


@pytest.mark.parametrize(
    "name, n, kwargs",
    [
        ("schouten_jacobi", 2, dict(poly_degree=2)),
        ("schouten_jacobi", 3, dict(poly_degree=1)),
        ("lemma_differential", 2, dict(coeff_degree=2, tuple_poly_degree=1)),
        ("lemma_differential", 3, dict(coeff_degree=1, tuple_poly_degree=1)),
        ("lemma_bracket_vanishes", 2, dict(coeff_degree=2)),
        ("lemma_bracket_vanishes", 3, dict(coeff_degree=0)),
    ],
)
def test_lemma_and_schouten_sweeps_match_reference(name, n, kwargs):
    assert assert_same(name, CTX[n], **kwargs).passed


@pytest.mark.parametrize(
    "name, n, poly_degree, H",
    [
        ("linfty_jacobi", 2, 2, form_make(CTX[2], [])),
        ("linfty_jacobi", 3, 1, H3_UNIT),
        ("linfty_mixed", 3, 1, H3_UNIT),
        ("linfty_mixed", 3, 1, H3_DRESSED),
        ("linfty_ternary", 3, 0, H3_UNIT),
        ("linfty_ternary", 3, 0, H3_DRESSED),
    ],
)
def test_linfty_sweeps_match_reference_on_closed_forms(name, n, poly_degree, H):
    assert assert_same(name, CTX[n], H, poly_degree=poly_degree).passed


def test_linfty_sweeps_match_reference_on_seeded_forms():
    rng = random.Random(20261018)
    failures = 0
    for _ in range(6):
        H = random_three_form(rng, 4, 1)
        mixed = assert_same("linfty_mixed", CTX[4], H, poly_degree=0)
        if not mixed.passed:
            failures += 1
            assert mixed.witness
        # the mixed relation holds exactly when H is closed
        assert mixed.passed == form_is_zero(d_form(H))
    assert failures >= 3
    for _ in range(2):
        assert_same("linfty_ternary", CTX[4], random_three_form(rng, 4, 1), poly_degree=0)


def test_differential_of_phi_matches_reference_without_memos():
    rng = random.Random(5)
    fc = FastCtx(3)
    els = fs.sweep_elements(fc, 1, range(4))
    for _ in range(200):
        e = rng.randint(0, 3)
        mask = rng.choice([fc.mask_of(c) for c in itertools.combinations(range(3), e)])
        exps = tuple(rng.randint(0, 1) for _ in range(3))
        picked = [rng.choice(els) for _ in range(e + 1)]
        args = [dict(el.terms) for el in picked]
        degs = [el.deg for el in picked]
        got = fs._differential_of_phi(fc, mask, exps, e, args, degs)
        assert got == ref._differential_of_phi(fc, mask, exps, e, args, degs)


@pytest.mark.parametrize("r", range(6))
def test_subset_plan_matches_unshuffle_sign(r):
    for k in range(r + 1):
        plan, signs = subset_plan(r, k)
        assert [t for t, _ in plan] == list(itertools.combinations(range(r), k))
        for t, rest in plan:
            assert sorted(t + rest) == list(range(r))
        for degs in itertools.product(range(4), repeat=r):
            par = sum(1 << s for s, d in enumerate(degs) if d % 2)
            assert odd_mask(degs) == par
            assert list(signs[par]) == [koszul_unshuffle_sign(degs, t) for t, _ in plan]
