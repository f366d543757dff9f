"""The in-place summing routes against the reference route of ``_ref_polyvec``.

Every multivector and form operation, the contraction and structure
cochains, the solver's linear step, the gauge flow and the primitive search
must give the same terms as the code that summed through
``mv_make``/``poly_add`` copies and dense matrices: equal ``terms``,
``Fraction`` coefficients, no stored zeros, and no output polynomial shared
with an input.
"""
from __future__ import annotations

import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _ref_polyvec as ref
from gdcalc._fastterms import FastCtx, tm_add_into
from gdcalc._linalg import Factorisation
from gdcalc.twistcheck import m_value, phi_value
from gdcalc.deform import (
    ArtinRing,
    GaugeParam,
    _equation_keys,
    _span_sum,
    defect_series,
    gauge_equivalent,
    gauge_flow,
    mc_solve,
    series_eq,
    series_make,
)
from gdcalc.exactcore import VarContext
from gdcalc.hochschild import delta_primitive, hkr, hoch_delta, mdo_add, mdo_make
from gdcalc.polyvec import (
    PolyVector,
    basis_multivectors,
    contract,
    d_form,
    form_make,
    form_wedge,
    mv_make,
    mv_scale,
    schouten,
    wedge_mv,
)
from gdcalc.twistcheck import make_twisted

CTXS = {n: VarContext(tuple(f"x{i}" for i in range(1, n + 1))) for n in range(1, 5)}
COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]


def _frames(n, degrees):
    return [f for k in degrees for f in itertools.combinations(range(n), k)]


def _assert_canonical(got, want):
    """Equal terms, Fraction coefficients, no stored zeros or empty polynomials."""
    assert type(got) is type(want)
    assert got.ctx == want.ctx
    assert got.terms == want.terms
    for poly in got.terms.values():
        assert poly
        for c in poly.values():
            assert type(c) is Fraction and c != 0


def _assert_no_alias(out, *inputs):
    """No polynomial dict of the output is one of the inputs' dicts.

    ``terms`` builds its dicts on each read, so the inputs' dicts are held
    while the output's are compared: an id of a freed dict can be reused.
    """
    held = [p for x in inputs for p in x.terms.values()]
    assert not any(p is q for p in out.terms.values() for q in held)


# ---------------------------------------------------------------------------
# strategies: raw term lists with duplicates, ints, zeros and exact cancellations


@st.composite
def raw_terms(draw, n, degrees, max_terms=4, max_deg=2, cancel=True):
    """Terms with repeated frames and int coefficients; with ``cancel``, also
    zeros and negated copies of some terms, which cancel exactly."""
    frames = _frames(n, degrees)
    exps = st.tuples(*([st.integers(0, max_deg)] * n))
    coeff = st.sampled_from(COEFFS + [0] if cancel else COEFFS)
    poly = st.dictionaries(exps, coeff, min_size=0 if cancel else 1, max_size=3)
    terms = draw(
        st.lists(st.tuples(st.sampled_from(frames), poly), min_size=0 if cancel else 1, max_size=max_terms)
    )
    if cancel:
        for frame, p in list(terms):
            if draw(st.booleans()):
                terms.append((frame, {e: -c for e, c in p.items()}))
    return draw(st.permutations(terms))


def multivectors(n, degrees=None, **kw):
    """Mixed-degree multivectors; mostly nonzero (sums may still cancel)."""
    degrees = range(n + 1) if degrees is None else degrees
    return raw_terms(n, degrees, cancel=False, **kw).map(lambda ts: mv_make(CTXS[n], ts))


def forms(n, degrees=None, **kw):
    degrees = range(n + 1) if degrees is None else degrees
    return raw_terms(n, degrees, cancel=False, **kw).map(lambda ts: form_make(CTXS[n], ts))


dims = st.integers(1, 4)


# ---------------------------------------------------------------------------
# constructors


@settings(max_examples=150, deadline=None)
@given(dims.flatmap(lambda n: st.tuples(st.just(n), raw_terms(n, range(n + 1)))))
def test_make_matches_reference(case):
    n, terms = case
    ctx = CTXS[n]
    got = mv_make(ctx, terms)
    _assert_canonical(got, ref.mv_make(ctx, terms))
    assert not any(got.terms[f] is p for f, p in terms if f in got.terms)
    _assert_canonical(form_make(ctx, terms), ref.form_make(ctx, terms))


def test_make_drops_exact_cancellations():
    ctx = CTXS[2]
    p = {(1, 0): Fraction(1, 2), (0, 2): -3}
    neg = {e: -c for e, c in p.items()}
    for make in (mv_make, form_make):
        assert make(ctx, [((0,), p), ((0, 1), p), ((0,), neg)]).terms == {
            (0, 1): {(1, 0): Fraction(1, 2), (0, 2): Fraction(-3)}
        }
        assert make(ctx, [((0,), p), ((0,), neg)]).terms == {}
        assert make(ctx, [([1], {(0, 0): 0})]).terms == {}


@pytest.mark.parametrize("make", [mv_make, form_make, ref.mv_make, ref.form_make])
def test_make_rejects_polynomials_over_different_variable_counts(make):
    ctx = CTXS[2]
    with pytest.raises(ValueError, match="different variable counts"):
        make(ctx, [((0,), {(1, 0): 1}), ((0,), {(1, 0, 0): 1})])


def test_make_keeps_frame_validation():
    with pytest.raises(ValueError):
        mv_make(CTXS[2], [((1, 0), {(0, 0): 1})])
    with pytest.raises(ValueError):
        form_make(CTXS[2], [((2,), {(0, 0): 1})])


# ---------------------------------------------------------------------------
# wedge, bracket, d, contraction


def _pair(make):
    return dims.flatmap(lambda n: st.tuples(make(n), make(n)))


@settings(max_examples=150, deadline=None)
@given(_pair(multivectors), _pair(forms))
def test_wedges_match_reference(mvs, fms):
    a, b = mvs
    got = wedge_mv(a, b)
    _assert_canonical(got, ref.wedge_mv(a, b))
    _assert_no_alias(got, a, b)
    f, g = fms
    _assert_canonical(form_wedge(f, g), ref.form_wedge(f, g))


@settings(max_examples=150, deadline=None)
@given(_pair(multivectors))
def test_schouten_matches_reference(pair):
    a, b = pair
    got = schouten(a, b)
    _assert_canonical(got, ref.schouten(a, b))
    _assert_no_alias(got, a, b)


@settings(max_examples=150, deadline=None)
@given(dims.flatmap(lambda n: st.tuples(forms(n, [1]), multivectors(n), forms(n))))
def test_contract_and_d_match_reference(case):
    alpha, v, w = case
    got = contract(alpha, v)
    _assert_canonical(got, ref.contract(alpha, v))
    _assert_no_alias(got, alpha, v)
    dw = d_form(w)
    _assert_canonical(dw, ref.d_form(w))
    _assert_no_alias(dw, w)


def test_bracket_and_wedge_cancellations_are_dropped():
    ctx = CTXS[3]
    euler = mv_make(ctx, [((0,), {(1, 0, 0): 1})])
    assert schouten(euler, euler).terms == {}
    theta = mv_make(ctx, [((1,), {(0, 2, 1): Fraction(2, 3)})])
    assert wedge_mv(theta, theta).terms == {}
    exact = d_form(form_make(ctx, [((), {(1, 1, 0): 1})]))
    assert d_form(exact).terms == {}


# ---------------------------------------------------------------------------
# the contraction and structure cochains


@st.composite
def phi_cases(draw):
    n = draw(dims)
    k = draw(st.integers(0, min(n, 3)))
    omega = draw(forms(n, [k], max_terms=2, max_deg=1))
    args = tuple(draw(multivectors(n, range(1, n + 1), max_terms=4, max_deg=1)) for _ in range(k))
    return k, omega, args


@settings(max_examples=120, deadline=None)
@given(phi_cases())
def test_phi_evaluation_matches_reference(case):
    k, omega, args = case
    got = phi_value(omega, args)
    _assert_canonical(got, ref.evaluate(ref.phi(omega, k), args))
    _assert_no_alias(got, omega, *args)


@settings(max_examples=100, deadline=None)
@given(_pair(multivectors))
def test_structure_cochain_evaluation_matches_reference(pair):
    got = m_value(*pair)
    _assert_canonical(got, ref.evaluate(ref.structure_cochain(pair[0].ctx), pair))
    _assert_no_alias(got, *pair)


# ---------------------------------------------------------------------------
# the solver's linear step, the gauge flow, the primitive search


def _random_mv(rng, n, degrees, terms=3, max_deg=1):
    frames = _frames(n, degrees)
    monos = list(itertools.product(range(max_deg + 1), repeat=n))
    return mv_make(
        CTXS[n],
        [(rng.choice(frames), {rng.choice(monos): rng.choice(COEFFS)}) for _ in range(terms)],
    )


def _solve_mv_equation(cols, rhs, ctx):
    """The library's factorisation of the TermMaps of cols, with rhs's keys
    among its equations in ``deform``'s order, as (consistent, x,
    rhs − Σ x_b·cols[b])."""
    fc = FastCtx(ctx.n)
    tcols = [ref.to_termmap(fc, c) for c in cols]
    trhs = ref.to_termmap(fc, rhs)
    consistent, x = Factorisation(tcols, _equation_keys(fc, trhs, *tcols)).solve(trhs)
    residual = dict(trhs)
    tm_add_into(residual, _span_sum(x, tcols), -1)
    return consistent, x, ref.from_termmap(PolyVector, ctx, fc, residual)


def _assert_same_solution(got, want):
    g_consistent, g_x, g_residual = got
    w_consistent, w_x, w_residual = want
    assert g_consistent == w_consistent
    assert g_x == w_x
    assert [type(v) for v in g_x] == [type(v) for v in w_x]
    _assert_canonical(g_residual, w_residual)


def test_solve_mv_equation_matches_reference_seeded():
    rng = random.Random(5150)
    inconsistent = 0
    for case in range(80):
        n = 1 + case % 4
        ctx = CTXS[n]
        cols = [_random_mv(rng, n, range(n + 1), rng.randint(0, 3)) for _ in range(rng.randint(0, 7))]
        if cols and rng.random() < 0.5:
            # a combination of the columns, so the system is consistent
            rhs = ref.mv_make(ctx, [])
            for c in cols:
                rhs = ref.mv_add(rhs, ref.mv_scale(c, rng.choice(COEFFS + [0])))
        else:
            rhs = _random_mv(rng, n, range(n + 1), rng.randint(0, 4))
        got = _solve_mv_equation(cols, rhs, ctx)
        _assert_same_solution(got, ref._solve_mv_equation(cols, rhs, ctx))
        inconsistent += not got[0]
    assert inconsistent > 0


def test_mc_solve_columns_match_reference():
    """The solver's own columns: 2[π₁, b] over the degree-≤1 bivector basis."""
    ctx = CTXS[4]
    pi1 = mv_make(ctx, [((0, 1), {(0, 0, 0, 0): 1}), ((2, 3), {(0, 0, 0, 0): 1})])
    basis = basis_multivectors(ctx, 1, (2,))
    cols = [ref.mv_scale(schouten(pi1, b), 2) for b in basis]
    rhs = mv_make(ctx, [((0, 1, 3), {(0, 0, 0, 0): Fraction(-6)}), ((1, 2, 3), {(1, 0, 0, 0): 2})])
    _assert_same_solution(
        _solve_mv_equation(cols, rhs, ctx), ref._solve_mv_equation(cols, rhs, ctx)
    )


def _structures():
    one3, one4 = {(0, 0, 0): Fraction(1)}, {(0, 0, 0, 0): Fraction(1)}
    return [
        make_twisted(form_make(CTXS[2], [])),
        make_twisted(form_make(CTXS[3], [((0, 1, 2), one3)])),
        make_twisted(form_make(CTXS[4], [((0, 1, 2), one4)])),
    ]


def test_gauge_flow_matches_reference_seeded():
    """Truncations 2-4 on all three structures, then truncation 5 with H ≠ 0."""
    rng = random.Random(8128)
    for case in range(32):
        if case < 24:
            S = _structures()[case % 4 % 3]
            ring = ArtinRing(2 + case % 3)  # the s²-terms of the cubic part need order 4
        else:
            S = _structures()[1 + case % 2]
            ring = ArtinRing(5)
        n = S.ctx.n
        orders = range(1, ring.truncation + 1)
        gamma = series_make(ring, {k: _random_mv(rng, n, [2], rng.randint(1, 2)) for k in orders})
        xi = GaugeParam(ring, {k: _random_mv(rng, n, [1], rng.randint(0, 2)) for k in orders})
        got = gauge_flow(S, gamma, xi)
        want = ref.gauge_flow(S, gamma, xi)
        assert got.ring == want.ring
        assert set(got.coeffs) == set(want.coeffs)
        for k, v in got.coeffs.items():
            _assert_canonical(v, want.coeffs[k])


def _assert_same_series(got, want):
    assert got.ring == want.ring
    assert set(got.coeffs) == set(want.coeffs)
    for k, v in got.coeffs.items():
        _assert_canonical(v, want.coeffs[k])


def test_gauge_flow_on_mixed_degrees_matches_reference_seeded():
    """Series coefficients of every degree: each enters the cubic term with its own.

    The cubic term first acts at order 3, on the order-1 coefficient; from
    truncation 4 on it also reads flowed entries of higher s-power.
    """
    rng = random.Random(4096)
    for case in range(20):
        S = _structures()[1 + case % 2]
        n = S.ctx.n
        ring = ArtinRing(3 if case < 12 else 4 + case % 2)
        orders = range(1, ring.truncation + 1)
        gamma = series_make(
            ring, {k: _random_mv(rng, n, range(n + 1), rng.randint(2, 4)) for k in orders}
        )
        xi = GaugeParam(ring, {k: _random_mv(rng, n, [1], rng.randint(1, 2)) for k in orders})
        _assert_same_series(gauge_flow(S, gamma, xi), ref.gauge_flow(S, gamma, xi))


def test_gauge_columns_are_minus_the_bracket_with_gamma1_seeded():
    """flow(ξ + b·t^{m−1})_m − flow(ξ)_m = −[b, γ₁], on the reference flow.

    ξ_{m−1} paired with γ_j lands at order m−1+j, the cubic term at order
    ≥ m+1, and γ₁ is the only state entry of t-order 1; so at order m,
    whatever ξ is, b enters through −[b, γ₁] alone.  ``gauge_equivalent``
    takes its columns from this identity rather than from flows.
    """
    rng = random.Random(6174)
    moved = 0
    for case in range(8):
        S = _structures()[1 + case % 2]
        n, zero = S.ctx.n, ref.mv_zero(S.ctx)
        ring = ArtinRing(3 + case // 2 % 2)
        orders = range(1, ring.truncation + 1)
        gamma = series_make(
            ring, {k: _random_mv(rng, n, range(n + 1), rng.randint(1, 3)) for k in orders}
        )
        xi = {k: _random_mv(rng, n, [1], rng.randint(0, 2)) for k in orders}
        flowed = ref.gauge_flow(S, gamma, GaugeParam(ring, xi))
        for m in range(2, ring.truncation + 1):
            b = _random_mv(rng, n, [1], 2)
            probe = {**xi, m - 1: ref.mv_add(xi[m - 1], b)}
            probed = ref.gauge_flow(S, gamma, GaugeParam(ring, probe))
            got = ref.mv_sub(probed.coeffs.get(m, zero), flowed.coeffs.get(m, zero))
            want = ref.mv_scale(ref.schouten(b, gamma.coeffs.get(1, zero)), -1)
            _assert_canonical(got, want)
            moved += bool(want.terms)
    assert moved > 0


def _assert_same_solve(got, want):
    assert (got.status, got.order, got.poly_degree) == (want.status, want.order, want.poly_degree)
    assert (got.residual is None) == (want.residual is None)
    if got.residual is not None:
        _assert_canonical(got.residual, want.residual)
    assert (got.solution is None) == (want.solution is None)
    if got.solution is not None:
        _assert_same_series(got.solution, want.solution)


def test_mc_solve_and_defect_series_match_reference_seeded():
    """Four-variable leading terms a·∂₁∧∂₂ + b·∂₃∧∂₄ (+ c·∂₁∧∂₃) under constant 3-forms:
    corrections at several orders, obstructions at orders 3 and 4, and at order 2
    when a linear term is added."""
    rng = random.Random(2718)
    ctx = CTXS[4]
    zero = (0, 0, 0, 0)
    outcomes = collections.Counter()
    for case in range(16):
        H = form_make(ctx, [(rng.choice([(0, 1, 2), (0, 1, 3), (1, 2, 3)]), {zero: rng.choice(COEFFS)})])
        S = make_twisted(H)
        terms = [((0, 1), {zero: rng.choice(COEFFS)}), ((2, 3), {zero: rng.choice(COEFFS)})]
        if case % 2:
            terms.append(((0, 2), {zero: rng.choice(COEFFS)}))
        if case % 8 == 7:
            terms.append(((1, 3), {(1, 0, 0, 0): 1}))
        pi1 = mv_make(ctx, terms)
        N, deg = 2 + case // 2 % 2, case // 4 % 3
        got = mc_solve(S, pi1, N, poly_degree=deg)
        _assert_same_solve(got, ref.mc_solve(S, pi1, N, poly_degree=deg))
        outcomes[got.status, got.order] += 1
        series = got.solution or series_make(
            ArtinRing(N), {k: _random_mv(rng, 4, [2], 2) for k in range(1, N + 1)}
        )
        want = ref.defect_series(S, series)
        got_defect = defect_series(S, series)
        assert set(got_defect) == set(want)
        for k, v in got_defect.items():
            _assert_canonical(v, want[k])
    assert outcomes["solved", None] and outcomes["obstructed", 2]
    assert outcomes["obstructed", 3] and outcomes["obstructed", 4]


def _assert_same_gauge(got, want):
    assert (got.equivalent, got.poly_degree) == (want.equivalent, want.poly_degree)
    assert (got.witness is None) == (want.witness is None)
    if got.witness is not None:
        assert got.witness.ring == want.witness.ring
        assert set(got.witness.coeffs) == set(want.witness.coeffs)
        for k, v in got.witness.coeffs.items():
            _assert_canonical(v, want.witness.coeffs[k])


def test_gauge_equivalent_matches_reference_seeded():
    """Pairs built by a flow, by an extra t² term and by differing leading terms.

    f·∂x∧∂y series are solutions for H = 0 at n=2 and for H = dx∧dy∧dz at
    n=3 (they are Poisson and never reach ∂z), and so are their flows.
    """
    rng = random.Random(1729)
    verdicts = collections.Counter()
    for case in range(16):
        S = _structures()[case % 2]
        n = S.ctx.n
        ring = ArtinRing(2 + case % 3 // 2)
        plane = [rng.choice(COEFFS)] + [0] * n
        g1 = series_make(
            ring,
            {
                k: mv_make(S.ctx, [((0, 1), {(0,) * n: c})])
                for k, c in zip(range(1, ring.truncation + 1), plane)
            },
        )
        kind = case % 4
        if kind < 2:
            # one term of total degree ≤ 1 per order, inside the search's bounds
            fields = basis_multivectors(S.ctx, 1, (1,))
            xi = GaugeParam(
                ring, {k: mv_scale(rng.choice(fields), rng.choice(COEFFS)) for k in range(1, 2 + kind)}
            )
            g2 = gauge_flow(S, g1, xi)
        elif kind == 2:
            extra = mv_make(S.ctx, [((0, 1), {(1,) + (0,) * (n - 1): rng.choice(COEFFS)})])
            g2 = series_make(ring, {**g1.coeffs, 2: extra})
        else:
            g2 = series_make(ring, {**g1.coeffs, 1: mv_make(S.ctx, [((0, 1), {(0,) * n: 7})])})
        deg = 1 - case // 12
        got = gauge_equivalent(S, g1, g2, poly_degree=deg)
        _assert_same_gauge(got, ref.gauge_equivalent(S, g1, g2, poly_degree=deg))
        verdicts[got.equivalent, bool(got.witness and got.witness.coeffs)] += 1
    assert verdicts[True, True] and verdicts[False, False]

    # truncation 4, linear coefficients under H = dx∧dy∧dz, where the cubic
    # term of the flow acts; x²·∂z at order 1 moves order 2 out of reach
    S, flat = _structures()[1], make_twisted(form_make(CTXS[3], []))
    ring = ArtinRing(4)
    monos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    fields = basis_multivectors(S.ctx, 1, (1,))
    verdicts.clear()
    cubic = 0
    for case in range(6):
        g1 = series_make(
            ring,
            {
                k: mv_make(S.ctx, [((0, 1), {m: rng.choice(COEFFS) for m in rng.sample(monos, 2)})])
                for k in (1, 2)
            },
        )
        if case % 3 == 2:
            far = mv_make(S.ctx, [((2,), {(2, 0, 0): rng.choice(COEFFS)})])
            xi = GaugeParam(ring, {1: far})
        else:
            xi = GaugeParam(
                ring, {k: mv_scale(rng.choice(fields), rng.choice(COEFFS)) for k in range(1, 4 - case % 3)}
            )
        g2 = gauge_flow(S, g1, xi)
        cubic += not series_eq(g2, gauge_flow(flat, g1, xi))
        got = gauge_equivalent(S, g1, g2, poly_degree=1)
        _assert_same_gauge(got, ref.gauge_equivalent(S, g1, g2, poly_degree=1))
        verdicts[got.equivalent] += 1
    assert cubic and verdicts[True] and verdicts[False]


def _assert_same_primitive(got, want):
    assert (got.found, got.rank) == (want.found, want.rank)
    assert got.candidate.terms == want.candidate.terms
    assert got.residual.terms == want.residual.terms
    assert (got.primitive is None) == (want.primitive is None)


def test_delta_primitive_matches_dense_reference():
    ctx2 = CTXS[2]
    bivector = mv_make(ctx2, [((0, 1), {(0, 0): 1})])
    op = mdo_make(ctx2, 1, [(((1, 0),), {(1, 1): Fraction(2, 3)}), (((0, 2),), {(0, 0): -1})])
    # arity 2 with coefficients 3/4 and -5/7, and an arity-3 class over
    # three variables whose hkr coefficient is (2/3)/3! = 1/9
    op2 = mdo_make(ctx2, 2, [
        (((1, 0), (0, 1)), {(1, 0): Fraction(3, 4)}),
        (((0, 0), (1, 0)), {(0, 1): Fraction(-5, 7), (0, 0): 2}),
    ])
    ctx3 = CTXS[3]
    trivector = hkr(mv_make(ctx3, [((0, 1, 2), {(1, 0, 0): Fraction(2, 3)})]))
    op3 = mdo_make(ctx3, 2, [(((0, 1, 0), (0, 0, 1)), {(0, 1, 0): Fraction(-7, 5)})])
    cases = [
        (hkr(bivector), 2, 2),  # not exact: an inconsistent system
        (hoch_delta(op), 2, 2),  # exact by construction
        (hoch_delta(op), 1, 1),  # exact, but outside these bounds
        (hoch_delta(op2), 1, 1),  # arity 3, exact within the bounds
        (hoch_delta(op2), 1, 0),  # arity 3, exact, but outside these bounds
        (mdo_add(trivector, hoch_delta(op3)), 1, 1),  # arity 3, not exact
    ]
    for T, poly_degree, op_order in cases:
        got = delta_primitive(T, poly_degree=poly_degree, op_order=op_order)
        want = ref.delta_primitive(T, poly_degree=poly_degree, op_order=op_order)
        _assert_same_primitive(got, want)
    assert [delta_primitive(T, poly_degree=p, op_order=o).found for T, p, o in cases] == [
        False,
        True,
        False,
        True,
        False,
        False,
    ]
