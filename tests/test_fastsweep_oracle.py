"""The sweep drivers against the per-subset reference in ``_ref_fastsweep``.

The library sums memoised products of interned unit terms, with unshuffle
signs read from ``subset_plan``'s parity table; the reference recomputes
each subset's sign and builds every value as its own TermMap from the
elements' TermMaps.  Whole reports (verdict, ``checked``, ``trivial``,
witness) must be equal.  Every 3-form is closed at n <= 3, so the failing
reports, whose witnesses are compared byte for byte, come from non-closed
3-forms at n=4 (seeded ones with constant tuple elements, and one with
polynomial coefficients on a pool with dressed elements), and from a sign
corrupted in a table that both sides read: a frame sign of the merge table
(the Schouten sweeps, lemma_differential, linfty_mixed) or one contraction
frame entry (lemma_bracket_vanishes).
"""
import itertools
import random
from fractions import Fraction

import pytest

import _ref_fastsweep as ref
from gdcalc import _fastsweep as fs
from gdcalc import _fastterms
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
        ("schouten_antisymmetry", 2, dict(poly_degree=2)),
        ("schouten_antisymmetry", 3, dict(poly_degree=2)),
        ("schouten_leibniz", 2, dict(poly_degree=2)),
        ("schouten_leibniz", 3, dict(poly_degree=1)),
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
    # the library kernel on interned ids and memo tables against the
    # reference, which evaluates each value as its own TermMap
    rng = random.Random(5)
    fc = FastCtx(3)
    els = fs.sweep_elements(fc, 1, range(4))
    pool = fs._Pool(CTX[3].names, fc, els)
    br = pool.packed(pool.bracket, 2)
    for _ in range(200):
        e = rng.randint(0, 3)
        mask = rng.choice([fc.mask_of(c) for c in itertools.combinations(range(3), e)])
        exps = tuple(rng.randint(0, 1) for _ in range(3))
        idx = [rng.randrange(len(els)) for _ in range(e + 1)]
        differential = fs._differential_of_phi(pool, pool.contraction({(mask, exps): 1}, e), br)
        got = pool.termmap(differential(idx))
        args = [{(els[i].mask, els[i].exps): 1} for i in idx]
        degs = [els[i].deg for i in idx]
        assert got == ref._differential_of_phi(fc, mask, exps, e, args, degs)


def _unit_value(pool, value):
    # a memoised value as a TermMap, its ids distinct and its coefficients nonzero
    assert len({t for t, _ in value}) == len(value) and all(c for _, c in value)
    return pool.termmap(dict(value))


def test_unit_products_match_termmap_producers():
    # every ordered pair of the elements, then every pair that takes an id
    # interned by that pass, against the general producers on unit TermMaps
    fc = FastCtx(3)
    pool = fs._Pool(CTX[3].names, fc, fs.sweep_elements(fc, 2, range(4)))

    def check(x, y):
        a, b = {pool.keys[x]: 1}, {pool.keys[y]: 1}
        for product, into in ((pool.bracket, _fastterms.schouten_into), (pool.wedge, _fastterms.wedge_into)):
            want = {}
            into(fc, a, b, 1, want)
            assert _unit_value(pool, product(x, y)) == want, (product.__name__, pool.keys[x], pool.keys[y])

    n_els = len(pool.els)
    for x, y in itertools.product(range(n_els), repeat=2):
        check(x, y)
    n_ids = len(pool.keys)
    assert n_ids > n_els
    for x, y in itertools.product(range(n_ids), repeat=2):
        if max(x, y) >= n_els:
            check(x, y)


def test_contraction_of_multi_term_form_matches_phi_into():
    # phi(d alpha) for a 1-form alpha whose d has several coframes and
    # monomials, on every ordered pair of elements (frames and dressed)
    fc = FastCtx(3)
    pool = fs._Pool(CTX[3].names, fc, fs.sweep_elements(fc, 1, range(4)))
    xyz = poly_from_terms(3, [(1, (1, 1, 1)), (-2, (0, 2, 0))])
    dalpha = d_form(form_make(CTX[3], [((0,), xyz), ((2,), xyz)]))._tm
    assert len({m for m, _ in dalpha}) == 3 and len(dalpha) > 3
    table = pool.contraction(dalpha, 2)
    nonzero = 0
    for ids in itertools.product(range(len(pool.els)), repeat=2):
        want = {}
        args = [{pool.keys[x]: 1} for x in ids]
        _fastterms.phi_into(fc, dalpha, args, 1, want)
        assert _unit_value(pool, table.fill(fs._pack(ids))) == want, ids
        nonzero += bool(want)
    assert nonzero > 0


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


@pytest.fixture
def flipped_frame_sign(monkeypatch):
    """theta(0,1) ^ theta(2) merged with the wrong sign, in every table built meanwhile.

    The bracket and the wedge read their frame signs from the shared merge
    table, so the Jacobi and Leibniz identities fail on tuples that use
    it.  The shared tables are dropped before and after, so no other test
    sees them.
    """
    merge_sign = _fastterms._merge_sign

    def flipped(m1, m2):
        s = merge_sign(m1, m2)
        return -s if (m1, m2) == (0b011, 0b100) else s

    monkeypatch.setattr(_fastterms, "_merge_sign", flipped)
    _fastterms._shared_tables.cache_clear()
    yield
    _fastterms._shared_tables.cache_clear()


@pytest.mark.parametrize("name", ["schouten_jacobi", "schouten_leibniz", "linfty_jacobi"])
def test_failing_witness_matches_reference(flipped_frame_sign, name):
    args = (H3_UNIT,) if name.startswith("linfty") else ()
    got = getattr(fs, name)(CTX[3], *args, poly_degree=1)
    want = getattr(ref, name)(CTX[3], *args, poly_degree=1)
    assert not got.passed and got.trivial > 0
    assert (got.checked, got.trivial) == (want.checked, want.trivial)
    assert got.witness.encode() == want.witness.encode()


@pytest.fixture
def flipped_bracket_half(monkeypatch):
    """D(theta(0), theta(0,1)), the first half plan of that frame pair, negated.

    [theta(0,1), theta(0)] reads the other, unflipped half of its own plan,
    so a sweep fails antisymmetry only if it computes each ordered pair
    from its own operands and never takes [b, a] from [a, b].  The shared
    tables are dropped before and after, as for `flipped_frame_sign`.
    """
    bracket_plans = _fastterms._bracket_plans

    def flipped(fc, m1, m2):
        ab, ba = bracket_plans(fc, m1, m2)
        if (m1, m2) == (0b001, 0b011):
            ab = tuple((i, om, -s) for i, om, s in ab)
        return ab, ba

    monkeypatch.setattr(_fastterms, "_bracket_plans", flipped)
    _fastterms._shared_tables.cache_clear()
    yield
    _fastterms._shared_tables.cache_clear()


def test_antisymmetry_witness_matches_reference_under_flipped_half_plan(flipped_bracket_half):
    got = fs.schouten_antisymmetry(CTX[3], poly_degree=1)
    want = ref.schouten_antisymmetry(CTX[3], poly_degree=1)
    assert not got.passed and got.checked > 0
    assert (got.checked, got.trivial) == (want.checked, want.trivial)
    assert got.witness.encode() == want.witness.encode()


@pytest.fixture
def flipped_contraction_sign(monkeypatch):
    """phi(dx0 ^ dx1) on theta(0), theta(1) with the wrong sign, in every context.

    Both sides read the contraction's frame entries through
    ``_fastterms._frame_entry``, so [phi(alpha), phi(beta)] fails to vanish
    on tuples that use this entry.  Frame entries are memoised per context,
    and every sweep builds its own, so no other test sees the flip.
    """
    frame_entry = _fastterms._frame_entry

    def flipped(fc, comask, masks):
        hit = frame_entry(fc, comask, masks)
        if hit and (comask, masks) == (0b011, (0b001, 0b010)):
            return hit[0], -hit[1]
        return hit

    monkeypatch.setattr(_fastterms, "_frame_entry", flipped)


# not closed, with two coframes, so the mixed kernel keeps a per-term coverage test
H4_OPEN_DRESSED = three_form(
    4, [((0, 1, 2), Fraction(-2, 3), (0, 0, 1, 1)), ((0, 1, 3), Fraction(7, 4), (1, 0, 0, 0))]
)


@pytest.mark.parametrize(
    "name, n, args, kwargs, corruption",
    [
        ("lemma_differential", 3, (), dict(coeff_degree=1, tuple_poly_degree=1), "flipped_frame_sign"),
        ("lemma_bracket_vanishes", 3, (), dict(coeff_degree=1), "flipped_contraction_sign"),
        ("linfty_mixed", 3, (H3_UNIT,), dict(poly_degree=1), "flipped_frame_sign"),
        ("linfty_mixed", 4, (H4_OPEN_DRESSED,), dict(poly_degree=1, mv_degree=2), None),
    ],
)
def test_kernel_sweeps_failing_witness_matches_reference(request, name, n, args, kwargs, corruption):
    # the sweeps whose kernels share row plans between tuples and blocks;
    # the open dressed H fails uncorrupted, on a pool with dressed elements
    if corruption:
        request.getfixturevalue(corruption)
    got = getattr(fs, name)(CTX[n], *args, **kwargs)
    want = getattr(ref, name)(CTX[n], *args, **kwargs)
    assert not got.passed and got.checked > 0
    assert (got.checked, got.trivial) == (want.checked, want.trivial)
    assert got.witness.encode() == want.witness.encode()
