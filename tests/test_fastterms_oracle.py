"""The contraction cochain against the slot-matching reference in ``_ref_fastterms``.

The library looks up each (coframe mask, argument frame masks) pattern in
the context's frame table, reading the argument degrees off the frames, and
multiplies the coefficients in; the reference re-enumerates every slot
matching on every call, on the degrees it is given.  Both must give equal
TermMaps with no stored zeros, on n=1-4, forms of degree k=1-4 with one to
three terms and ``int`` or ``Fraction`` coefficients, and arguments with
zero to three terms and non-unit coefficients.  On arguments that mix frame
degrees the library must equal the reference summed over their homogeneous
components, and ``m_into`` the bracket of each component of A with its sign.
"""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _ref_fastterms as ref
from gdcalc._fastterms import FastCtx, m_into, phi_eval, tm_add_into

FCS = {n: FastCtx(n) for n in (1, 2, 3, 4)}
COEFFS = [1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4)]


def masks_of_degree(n, d):
    return [sum(1 << i for i in c) for c in itertools.combinations(range(n), d)]


def make_case(pick, n, k):
    """(form_terms, args, degs) for a degree-k form at dimension n; degs are the frame degrees."""
    exps = lambda: tuple(pick(range(3)) for _ in range(n))
    form = {(pick(masks_of_degree(n, k)), exps()): pick(COEFFS) for _ in range(pick((1, 2, 3)))}
    args, degs = [], []
    for _ in range(k):
        d = pick(range(n + 1))
        frames = masks_of_degree(n, d)
        args.append({(pick(frames), exps()): pick(COEFFS) for _ in range(pick((0, 1, 2, 3)))})
        degs.append(d)
    return form, args, degs


def assert_same(fc, form, args, degs):
    got = phi_eval(fc, form, args)
    want = ref.phi_eval(fc, form, args, degs)
    assert got == want
    assert all(c for c in got.values())
    assert all(c for c in want.values())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_phi_eval_matches_reference(data):
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, n))
    pick = lambda seq: data.draw(st.sampled_from(list(seq)))
    assert_same(FCS[n], *make_case(pick, n, k))


def test_phi_eval_matches_reference_seeded():
    rng = random.Random(20240917)
    pick = lambda seq: rng.choice(list(seq))
    for n in (1, 2, 3, 4):
        fc = FastCtx(n)  # a fresh table, filled by this loop only
        for k in range(1, n + 1):
            for _ in range(150):
                assert_same(fc, *make_case(pick, n, k))


def test_phi_eval_repeated_frame_args_match_reference():
    """Every argument the same multi-term bivector: many matchings per pattern."""
    fc = FCS[4]
    z = (0, 0, 0, 0)
    pi = {(0b0011, z): 2, (0b1100, (1, 0, 0, 0)): Fraction(-1, 3), (0b0101, z): 1}
    for comask in masks_of_degree(4, 3):
        form = {(comask, (0, 1, 0, 0)): Fraction(3, 2)}
        assert_same(fc, form, [pi, pi, pi], [2, 2, 2])


def _unit(n):
    return {(1, (0,) * n): 2}


@pytest.mark.parametrize(
    "n,k,args",
    [
        (1, 1, []),
        (2, 2, [_unit(2)]),
        (3, 1, [_unit(3)] * 3),
        (3, 3, [{}, {}]),  # arguments without terms: the degree is still checked
        (4, 3, [_unit(4)] * 4),
        (4, 4, [_unit(4)] * 2),
    ],
)
def test_degree_mismatch_raises_in_both(n, k, args):
    fc = FCS[n]
    form = {(masks_of_degree(n, k)[0], (0,) * n): 1}
    degs = [1] * len(args)
    with pytest.raises(ValueError):
        phi_eval(fc, form, args)
    with pytest.raises(ValueError):
        ref.phi_eval(fc, form, args, degs)


# ---------------------------------------------------------------------------
# arguments that mix frame degrees


def components(fc, tm):
    """The homogeneous components of tm as {frame degree: TermMap}."""
    out = {}
    for key, c in tm.items():
        out.setdefault(fc.pop[key[0]], {})[key] = c
    return out


def mixed_term_map(pick, n):
    """Two to four terms whose frames have at least two distinct degrees."""
    exps = lambda: tuple(pick(range(3)) for _ in range(n))
    while True:
        tm = {(pick(range(1 << n)), exps()): pick(COEFFS) for _ in range(pick((2, 3, 4)))}
        if len(components(FCS[n], tm)) > 1:
            return tm


def test_phi_eval_on_mixed_degrees_sums_homogeneous_components_seeded():
    rng = random.Random(20261021)
    pick = lambda seq: rng.choice(list(seq))
    for n in (2, 3, 4):
        fc = FastCtx(n)
        for k in range(1, n + 1):
            for _ in range(60):
                form, _, _ = make_case(pick, n, k)
                args = [mixed_term_map(pick, n) for _ in range(k)]
                want = {}
                parts = [sorted(components(fc, a).items()) for a in args]
                for combo in itertools.product(*parts):
                    degs = [d for d, _ in combo]
                    tm_add_into(want, ref.phi_eval(fc, form, [tm for _, tm in combo], degs))
                got = phi_eval(fc, form, args)
                assert got == want
                assert all(c for c in got.values())


def test_m_into_on_mixed_degrees_signs_each_component_seeded():
    rng = random.Random(20261022)
    pick = lambda seq: rng.choice(list(seq))
    for n in (1, 2, 3, 4):
        fc = FastCtx(n)
        for _ in range(150):
            A, B = mixed_term_map(pick, n), mixed_term_map(pick, n)
            scale = pick(COEFFS)
            want = {}
            for k, A_k in components(fc, A).items():
                # m(a, b) = (-1)^{|a|-1}[a, b]
                tm_add_into(want, ref.schouten_terms(fc, A_k, B), scale if k % 2 else -scale)
            got = {}
            m_into(fc, A, B, scale, got)
            assert got == want
            assert all(c for c in got.values())
