"""Reference multivector route: the summing code the library replaced.

The parent revisions' ``mv_make``, ``form_make``, ``wedge_mv``,
``form_wedge``, ``schouten``, ``contract`` and ``d_form`` (``polyvec``),
the ``Cochain`` evaluator with the ``phi`` kernel and the structure cochain
(``chevalley``), ``defect_series``, ``mc_solve``, ``_solve_mv_equation``,
``gauge_flow`` and ``gauge_equivalent`` (``deform``) and
``delta_primitive`` with its candidate basis and dense system assembly
(``hochschild``), kept verbatim with the helpers they call.  The one
change is that the deform routines contract with this module's own
``phi(S.H, 3)``, since a ``TwistedStructure`` carries only its form.  Every sum goes through
``mv_make``/``poly_add`` copies, and the linear systems are dense ``m×n``
lists solved by the dense oracle of ``_dense_gauss`` (the solver those
lists were written for).  Slow and test-only: ``tests/test_polyvec_oracle.py``
pins the library against it.

``to_termmap``/``from_termmap`` convert between a value and the term
engine's TermMap for tests that feed the engine directly.  They read only
the public ``terms`` and the checking constructor, and work out frame
masks themselves, so a test comparing the two routes does not go through
the library's own storage.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from _dense_gauss import dense_gaussian_solve as gaussian_solve
from gdcalc.deform import (
    ArtinRing,
    ArtinSeries,
    GaugeParam,
    GaugeReport,
    SolveReport,
    series_eq,
    series_make,
)
from gdcalc.exactcore import (
    Poly,
    VarContext,
    add_term_into as _add_term,
    grlex_key,
    koszul_sign,
    monomials_upto,
    partial_derive,
    poly_add,
    poly_from_terms,
    poly_is_zero,
    poly_mul,
    poly_neg,
    poly_scale,
)
from gdcalc.hochschild import (
    MultiDiffOp,
    Orders,
    PrimitiveResult,
    hoch_delta,
    mdo_make,
    mdo_sub,
)
from gdcalc.polyvec import (
    DiffForm,
    Frame,
    PolyVector,
    basis_multivectors,
    form_degree,
    mv_eq,
    mv_homogeneous_degree,
    mv_is_zero,
)
from gdcalc.twistcheck import TwistedStructure


# ---------------------------------------------------------------------------
# the term-engine conversion


def to_termmap(fc, v) -> Dict[Tuple[int, Tuple[int, ...]], object]:
    """The terms of a PolyVector or DiffForm keyed by (frame mask, exponents).

    A coefficient whose denominator is 1 is stored as an int; ``fc`` is
    accepted for the engine's signature and not read.
    """
    out = {}
    for frame, poly in v.terms.items():
        m = sum(1 << i for i in frame)
        for exps, c in poly.items():
            out[(m, exps)] = int(c) if c.denominator == 1 else c
    return out


def from_termmap(cls, ctx: VarContext, fc, tm):
    """Build a cls (PolyVector or DiffForm) from a TermMap through its checking constructor."""
    terms: Dict[Frame, Poly] = {}
    for (m, exps), c in tm.items():
        if c:
            frame = tuple(i for i in range(m.bit_length()) if m >> i & 1)
            terms.setdefault(frame, {})[exps] = Fraction(c)
    return cls(ctx, terms)


# ---------------------------------------------------------------------------
# polyvec


def mv_zero(ctx: VarContext) -> PolyVector:
    return PolyVector(ctx, {})


def mv_make(ctx: VarContext, terms: Iterable[Tuple[Frame, Poly]]) -> PolyVector:
    out: Dict[Frame, Poly] = {}
    for frame, poly in terms:
        frame = tuple(frame)
        acc = poly_add(out.get(frame, {}), poly)
        if acc:
            out[frame] = acc
        else:
            out.pop(frame, None)
    return PolyVector(ctx, out)


def mv_func(ctx: VarContext, poly: Poly) -> PolyVector:
    """Embed a polynomial as a degree-0 multivector."""
    return mv_make(ctx, [((), poly)])


def form_make(ctx: VarContext, terms: Iterable[Tuple[Frame, Poly]]) -> DiffForm:
    out: Dict[Frame, Poly] = {}
    for frame, poly in terms:
        frame = tuple(frame)
        acc = poly_add(out.get(frame, {}), poly)
        if acc:
            out[frame] = acc
        else:
            out.pop(frame, None)
    return DiffForm(ctx, out)


def mv_add(a: PolyVector, b: PolyVector) -> PolyVector:
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")
    return mv_make(a.ctx, list(a.terms.items()) + list(b.terms.items()))


def mv_neg(a: PolyVector) -> PolyVector:
    return PolyVector(a.ctx, {f: poly_neg(p) for f, p in a.terms.items()})


def mv_sub(a: PolyVector, b: PolyVector) -> PolyVector:
    return mv_add(a, mv_neg(b))


def mv_scale(a: PolyVector, c) -> PolyVector:
    c = Fraction(c)
    if c == 0:
        return mv_zero(a.ctx)
    return PolyVector(a.ctx, {f: poly_scale(p, c) for f, p in a.terms.items()})


def mv_pmul(a: PolyVector, p: Poly) -> PolyVector:
    """Multiply every coefficient by a polynomial (the A-module action)."""
    if poly_is_zero(p):
        return mv_zero(a.ctx)
    return mv_make(a.ctx, [(f, poly_mul(q, p)) for f, q in a.terms.items()])


def _merge_frames(f1: Frame, f2: Frame) -> Optional[Tuple[int, Frame]]:
    """Merge two increasing frames; return (sign, merged) or None on overlap.

    The sign is the parity of the number of pairs (i in f1, j in f2) with
    j < i — the transpositions needed to interleave the blocks.
    """
    if not f1:
        return 1, f2
    if not f2:
        return 1, f1
    inv = 0
    merged: List[int] = []
    i = j = 0
    while i < len(f1) and j < len(f2):
        a, b = f1[i], f2[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            inv += len(f1) - i
            j += 1
    merged.extend(f1[i:])
    merged.extend(f2[j:])
    return (-1 if inv % 2 else 1), tuple(merged)


def wedge_mv(a: PolyVector, b: PolyVector) -> PolyVector:
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")
    terms: List[Tuple[Frame, Poly]] = []
    for f1, p1 in a.terms.items():
        for f2, p2 in b.terms.items():
            m = _merge_frames(f1, f2)
            if m is None:
                continue
            sign, merged = m
            prod = poly_mul(p1, p2)
            terms.append((merged, prod if sign > 0 else poly_neg(prod)))
    return mv_make(a.ctx, terms)


def form_wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")
    terms: List[Tuple[Frame, Poly]] = []
    for f1, p1 in a.terms.items():
        for f2, p2 in b.terms.items():
            m = _merge_frames(f1, f2)
            if m is None:
                continue
            sign, merged = m
            prod = poly_mul(p1, p2)
            terms.append((merged, prod if sign > 0 else poly_neg(prod)))
    return form_make(a.ctx, terms)


def _right_theta_derivative(frame: Frame, i: int) -> Optional[Tuple[int, Frame]]:
    """Right derivative of the Grassmann monomial theta_frame by theta_i.

    Returns (sign, frame without i); the right derivative of a length-k
    monomial at 1-based position p carries (-1)^(k-p).
    """
    try:
        pos = frame.index(i)
    except ValueError:
        return None
    k = len(frame)
    sign = -1 if (k - pos - 1) % 2 else 1
    return sign, frame[:pos] + frame[pos + 1 :]


def _half_bracket(
    f1: Frame, p1: Poly, f2: Frame, p2: Poly, ctx: VarContext
) -> List[Tuple[Frame, Poly]]:
    """D(a,b) for single terms a = p1 theta_{f1}, b = p2 theta_{f2}."""
    out: List[Tuple[Frame, Poly]] = []
    for i in f1:
        dp2 = partial_derive(p2, i)
        if poly_is_zero(dp2):
            continue
        rd = _right_theta_derivative(f1, i)
        assert rd is not None
        sign, reduced = rd
        m = _merge_frames(reduced, f2)
        if m is None:
            continue
        msign, merged = m
        prod = poly_mul(p1, dp2)
        if sign * msign < 0:
            prod = poly_neg(prod)
        out.append((merged, prod))
    return out


def schouten(a: PolyVector, b: PolyVector) -> PolyVector:
    """Schouten bracket, extended bilinearly over homogeneous components.

    Degree |a|+|b|-1; graded antisymmetric with respect to the shifted
    degrees: [a,b] = -(-1)^{(|a|-1)(|b|-1)} [b,a].
    """
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")
    terms: List[Tuple[Frame, Poly]] = []
    for f1, p1 in a.terms.items():
        for f2, p2 in b.terms.items():
            terms.extend(_half_bracket(f1, p1, f2, p2, a.ctx))
            flip = (-1) ** ((len(f1) - 1) * (len(f2) - 1))
            for frame, poly in _half_bracket(f2, p2, f1, p1, a.ctx):
                terms.append((frame, poly_neg(poly) if flip > 0 else poly))
    return mv_make(a.ctx, terms)


def d_form(w: DiffForm) -> DiffForm:
    terms: List[Tuple[Frame, Poly]] = []
    for coframe, poly in w.terms.items():
        for i in range(w.ctx.n):
            dp = partial_derive(poly, i)
            if poly_is_zero(dp):
                continue
            m = _merge_frames((i,), coframe)
            if m is None:
                continue
            sign, merged = m
            terms.append((merged, dp if sign > 0 else poly_neg(dp)))
    return form_make(w.ctx, terms)


def contract(alpha: DiffForm, v: PolyVector) -> PolyVector:
    """Left interior pairing of a one-form against a multivector.

    <alpha, X_1 ^ ... ^ X_k> = sum_i (-1)^(i-1) alpha(X_i) X_1 ^ ... ^ X_k
    with slot i removed; A-bilinear in both arguments.
    """
    if alpha.ctx != v.ctx:
        raise ValueError("context mismatch")
    if any(len(c) != 1 for c in alpha.terms):
        raise ValueError("contract expects a homogeneous one-form")
    terms: List[Tuple[Frame, Poly]] = []
    for coframe, g in alpha.terms.items():
        j = coframe[0]
        for frame, f in v.terms.items():
            try:
                pos = frame.index(j)
            except ValueError:
                continue
            prod = poly_mul(g, f)
            if pos % 2:
                prod = poly_neg(prod)
            terms.append((frame[:pos] + frame[pos + 1 :], prod))
    return mv_make(v.ctx, terms)

# ---------------------------------------------------------------------------
# chevalley

Kernel = Callable[[Tuple[PolyVector, ...]], PolyVector]


@dataclass(frozen=True)
class Cochain:
    """A multilinear graded-symmetric operation carried as an evaluator.

    ``degree`` is the total cochain degree entering bracket signs: the
    output's shifted degree minus the sum of the inputs' shifted degrees,
    plus (arity - 1).
    """

    ctx: VarContext
    arity: int
    degree: int
    kernel: Kernel
    name: str = ""
    # for cochains contracted out of a form: the form itself, so callers can
    # prune evaluations that must vanish for frame-support reasons
    source_form: Optional["DiffForm"] = None


def cochain_zero(ctx: VarContext, arity: int, degree: int = 0) -> Cochain:
    return Cochain(ctx, arity, degree, lambda args: mv_zero(ctx), name="0")


def _homogeneous_components(v: PolyVector) -> List[PolyVector]:
    by_deg: Dict[int, Dict] = {}
    for frame, poly in v.terms.items():
        by_deg.setdefault(len(frame), {})[frame] = poly
    return [PolyVector(v.ctx, terms) for _, terms in sorted(by_deg.items())]


def evaluate(c: Cochain, args: Sequence[PolyVector]) -> PolyVector:
    """Apply a cochain, extending its kernel multilinearly to mixed inputs."""
    args = tuple(args)
    if len(args) != c.arity:
        raise ValueError(f"cochain of arity {c.arity} applied to {len(args)} arguments")
    for a in args:
        if a.ctx != c.ctx:
            raise ValueError("context mismatch")
    split = [_homogeneous_components(a) for a in args]
    if any(not comps for comps in split):
        return mv_zero(c.ctx)
    total = mv_zero(c.ctx)
    for combo in itertools.product(*split):
        total = mv_add(total, c.kernel(combo))
    return total


def _degree_of(v: PolyVector) -> int:
    # kernels only ever see single-degree nonzero arguments
    return len(next(iter(v.terms)))


def structure_cochain(ctx: VarContext) -> Cochain:
    """The arity-2 cochain m(a,b) = (-1)^{|a|-1}[a,b] over this module's bracket."""

    def kernel(args: Tuple[PolyVector, ...]) -> PolyVector:
        a, b = args
        sign = -1 if (_degree_of(a) - 1) % 2 else 1
        return mv_scale(schouten(a, b), sign)

    return Cochain(ctx, 2, 1, kernel, name="m")


def _contract_coord(j: int, v: PolyVector) -> PolyVector:
    """<dx_j, v> without building the one-form."""
    terms = []
    for frame, poly in v.terms.items():
        try:
            pos = frame.index(j)
        except ValueError:
            continue
        reduced = frame[:pos] + frame[pos + 1 :]
        terms.append((reduced, {e: -c for e, c in poly.items()} if pos % 2 else poly))
    return mv_make(v.ctx, terms)


def phi(omega: DiffForm, arity: Optional[int] = None) -> Cochain:
    """The contraction cochain of a homogeneous k-form.

    Arity k, degree k-2; a 0-form acts as the constant function cochain.
    For the zero form the arity cannot be inferred and must be supplied.
    """
    k = form_degree(omega)
    if k is None:
        if not omega.terms:
            if arity is None:
                raise ValueError("zero form: arity must be supplied explicitly")
            return cochain_zero(omega.ctx, arity, arity - 2)
        raise ValueError("phi expects a homogeneous form")
    if arity is not None and arity != k:
        raise ValueError(f"arity {arity} contradicts form degree {k}")
    ctx = omega.ctx
    coframes = list(omega.terms.items())

    if k == 0:
        ((_, g0),) = coframes

        def kernel0(args: Tuple[PolyVector, ...]) -> PolyVector:
            return mv_func(ctx, g0)

        return Cochain(ctx, 0, -2, kernel0, name="phi", source_form=omega)

    def kernel(args: Tuple[PolyVector, ...]) -> PolyVector:
        degs = [_degree_of(a) for a in args]
        total = mv_zero(ctx)
        for coframe, g in coframes:
            # contractions of each coordinate differential against each slot
            table = [[_contract_coord(j, a) for a in args] for j in coframe]
            for sigma in itertools.permutations(range(k)):
                wedge: Optional[PolyVector] = None
                for pos in range(k):
                    piece = table[pos][sigma[pos]]
                    if mv_is_zero(piece):
                        wedge = None
                        break
                    wedge = piece if wedge is None else wedge_mv(wedge, piece)
                    if mv_is_zero(wedge):
                        wedge = None
                        break
                if wedge is None:
                    continue
                exponent = sum((k - 1 - pos) * degs[sigma[pos]] for pos in range(k))
                sign = koszul_sign(degs, sigma) * (-1 if exponent % 2 else 1)
                total = mv_add(total, mv_scale(mv_pmul(wedge, g), sign))
        return total

    return Cochain(ctx, k, k - 2, kernel, name="phi", source_form=omega)

# ---------------------------------------------------------------------------
# deform


def _mv_keys(v: PolyVector):
    return [(frame, mono) for frame, poly in v.terms.items() for mono in poly]


def _solve_mv_equation(
    cols: List[PolyVector], rhs: PolyVector, ctx
) -> Tuple[bool, List[Fraction], PolyVector]:
    """Solve Σ x_b·cols[b] = rhs over the span keys; returns (consistent, x, residual)."""
    keys = sorted(
        {k for c in cols for k in _mv_keys(c)} | set(_mv_keys(rhs)),
        key=lambda fm: (len(fm[0]), fm[0], grlex_key(fm[1])),
    )
    index = {k: i for i, k in enumerate(keys)}
    rows = [[0] * len(cols) for _ in keys]
    for b, c in enumerate(cols):
        for frame, poly in c.terms.items():
            for mono, val in poly.items():
                rows[index[(frame, mono)]][b] = val
    vec = [0] * len(keys)
    for frame, poly in rhs.terms.items():
        for mono, val in poly.items():
            vec[index[(frame, mono)]] = val
    res = gaussian_solve(rows, vec, ncols=len(cols))
    reached = mv_zero(ctx)
    for coeff, c in zip(res.x, cols):
        if coeff != 0:
            reached = mv_add(reached, mv_scale(c, coeff))
    return res.consistent, res.x, mv_sub(rhs, reached)


def _state_add(a, b):
    out = dict(a)
    for key, v in b.items():
        cur = out.get(key)
        merged = mv_add(cur, v) if cur is not None else v
        if mv_is_zero(merged):
            out.pop(key, None)
        else:
            out[key] = merged
    return out


def _state_eq(a, b) -> bool:
    return set(a) == set(b) and all(mv_eq(a[k], b[k]) for k in a)


def gauge_flow(S: TwistedStructure, gamma: ArtinSeries, xi: GaugeParam) -> ArtinSeries:
    """Integrate dγ/ds = −[ξ,γ] − (3/2)·l3(ξ,γ,γ) from s=0 to s=1, exactly.

    Nilpotence of t makes the flow polynomial in s, so Picard iteration on
    the s-polynomial state reaches a fixed point within the truncation order.
    The cubic coefficient is pinned by the requirement that the flow carry
    solutions of the twisted equation to solutions (checked in the suite).
    """
    if xi.ring != gamma.ring:
        raise ValueError("series and gauge parameter use different truncations")
    for v in xi.coeffs.values():
        if v.ctx != S.ctx:
            raise ValueError("context mismatch")
    for v in gamma.coeffs.values():
        if v.ctx != S.ctx:
            raise ValueError("context mismatch")
    n_trunc = gamma.ring.truncation
    three_halves = Fraction(3, 2)
    l3 = phi(S.H, arity=3)

    # state: (s-power, t-order) -> multivector
    base = {(0, k): v for k, v in gamma.coeffs.items()}

    def flow_rhs(state):
        out: Dict[Tuple[int, int], PolyVector] = {}

        def put(key, v):
            if mv_is_zero(v):
                return
            cur = out.get(key)
            merged = mv_add(cur, v) if cur is not None else v
            if mv_is_zero(merged):
                out.pop(key, None)
            else:
                out[key] = merged

        for a, xv in xi.coeffs.items():
            for (m, b), gv in state.items():
                if a + b <= n_trunc:
                    put((m, a + b), mv_scale(schouten(xv, gv), -1))
            for (m1, b1), g1 in state.items():
                for (m2, b2), g2 in state.items():
                    if a + b1 + b2 <= n_trunc:
                        val = evaluate(l3, (xv, g1, g2))
                        put((m1 + m2, a + b1 + b2), mv_scale(val, -three_halves))
        return out

    def integrate(state):
        return {
            (m + 1, k): mv_scale(v, Fraction(1, m + 1)) for (m, k), v in state.items()
        }

    current = base
    for _ in range(n_trunc + 2):
        updated = _state_add(base, integrate(flow_rhs(current)))
        if _state_eq(updated, current):
            break
        current = updated
    else:
        raise RuntimeError("internal error: flow iteration failed to stabilize")

    totals: Dict[int, PolyVector] = {}
    for (_, k), v in current.items():
        cur = totals.get(k)
        totals[k] = mv_add(cur, v) if cur is not None else v
    return series_make(gamma.ring, totals)


def _add_mv_into(out: Dict[Frame, Poly], v, factor=1) -> Dict[Frame, Poly]:
    """Add factor·v (a PolyVector or DiffForm) into the term map out; returns out."""
    for frame, poly in v.terms.items():
        _add_term(out, frame, poly, factor)
    return out


def _combination(ctx, x: Sequence[Fraction], vecs: Sequence[PolyVector]) -> PolyVector:
    """Σ x_b·vecs[b], summed in place over the nonzero x_b."""
    acc: Dict = {}
    for coeff, v in zip(x, vecs):
        if coeff:
            _add_mv_into(acc, v, coeff)
    return PolyVector(ctx, acc)


def defect_series(S: TwistedStructure, pi: ArtinSeries) -> Dict[int, PolyVector]:
    """Order-by-order integrability defect of the series, orders 1..N.

    Order k carries Σ_{i+j=k}[π_i,π_j] − Σ_{i+j+l=k} l3(π_i,π_j,π_l) over
    ordered index tuples; the series solves the twisted equation modulo
    t^{N+1} exactly when every order vanishes.
    """
    l3 = phi(S.H, arity=3)
    cs = pi.coeffs
    for v in cs.values():
        if v.ctx != S.ctx:
            raise ValueError("context mismatch")
        if mv_homogeneous_degree(v) != 2:
            raise ValueError("defect is defined for bivector series")
    n_trunc = pi.ring.truncation
    out: Dict[int, PolyVector] = {}
    for k in range(1, n_trunc + 1):
        acc: Dict = {}
        for i in range(1, k):
            j = k - i
            if i in cs and j in cs:
                _add_mv_into(acc, schouten(cs[i], cs[j]))
        for i in range(1, k - 1):
            for j in range(1, k - i):
                l = k - i - j
                if l >= 1 and i in cs and j in cs and l in cs:
                    _add_mv_into(acc, evaluate(l3, (cs[i], cs[j], cs[l])), -1)
        out[k] = PolyVector(S.ctx, acc)
    return out


def mc_solve(
    S: TwistedStructure, pi1: PolyVector, N: int, *, poly_degree: int
) -> SolveReport:
    """Extend t·pi1 to a solution modulo t^{N+2}, order by order.

    The unknown at step k (2 ≤ k ≤ N) enters the order-(k+1) defect linearly
    through 2[π₁,π_k]; the right-hand side collects the already-determined
    bracket and contraction terms.  The unknown ranges over frame-basis
    bivectors with monomial coefficients of degree ≤ poly_degree.  Greedy:
    obstructions are relative to the lower-order choices already made.
    """
    l3 = phi(S.H, arity=3)
    if pi1.ctx != S.ctx:
        raise ValueError("context mismatch")
    if not mv_is_zero(pi1) and mv_homogeneous_degree(pi1) != 2:
        raise ValueError("leading term must be a bivector field")
    ring = ArtinRing(N)
    cs: Dict[int, PolyVector] = {1: pi1}

    def report_obstructed(order: int, residual: PolyVector) -> SolveReport:
        return SolveReport("obstructed", None, order, residual, poly_degree)

    if N >= 2:
        defect2 = schouten(pi1, pi1)
        if not mv_is_zero(defect2):
            return report_obstructed(2, defect2)
        basis = list(basis_multivectors(S.ctx, poly_degree, (2,)))
        cols = [mv_scale(schouten(pi1, b), 2) for b in basis]
        for k in range(2, N + 1):
            target = k + 1
            acc: Dict = {}
            for i in range(2, target - 1):
                j = target - i
                if j >= 2 and i in cs and j in cs:
                    _add_mv_into(acc, schouten(cs[i], cs[j]), -1)
            for i in range(1, target - 1):
                for j in range(1, target - i):
                    l = target - i - j
                    if l >= 1 and i in cs and j in cs and l in cs:
                        _add_mv_into(acc, evaluate(l3, (cs[i], cs[j], cs[l])))
            rhs = PolyVector(S.ctx, acc)
            consistent, x, linear_residual = _solve_mv_equation(cols, rhs, S.ctx)
            pik = _combination(S.ctx, x, basis)
            if not consistent:
                # order-(k+1) defect at the best candidate
                return report_obstructed(target, mv_scale(linear_residual, -1))
            if not mv_is_zero(pik):
                cs[k] = pik

    solution = series_make(ring, cs)
    check = defect_series(S, solution)
    if any(not mv_is_zero(v) for v in check.values()):
        raise RuntimeError("internal error: solved series fails its own defect check")
    return SolveReport("solved", solution, None, None, poly_degree)


def gauge_equivalent(
    S: TwistedStructure, g1: ArtinSeries, g2: ArtinSeries, *, poly_degree: int
) -> GaugeReport:
    """Search for ξ with gauge_flow(g1, ξ) = g2, order by order.

    Both inputs must solve the twisted equation.  The flow never moves the
    first-order coefficient, so differing leading terms are immediately
    inequivalent.  At each order m ≥ 2 the dependence on ξ_{m−1} is affine;
    the linear part is probed by whole-flow evaluations on basis fields and
    solved exactly.  False means: no witness within these bounds.
    """
    if g1.ring != g2.ring:
        raise ValueError("series use different truncations")
    for g in (g1, g2):
        if any(not mv_is_zero(v) for v in defect_series(S, g).values()):
            raise ValueError("gauge equivalence needs solutions of the equation")
    ring = g1.ring
    ctx = S.ctx
    zero = mv_zero(ctx)
    if not mv_eq(g1.coeffs.get(1, zero), g2.coeffs.get(1, zero)):
        return GaugeReport(False, None, poly_degree)

    basis = list(basis_multivectors(ctx, poly_degree, (1,)))
    xi_coeffs: Dict[int, PolyVector] = {}
    for m in range(2, ring.truncation + 1):
        flowed = gauge_flow(S, g1, GaugeParam(ring, dict(xi_coeffs)))
        current = flowed.coeffs.get(m, zero)
        delta = mv_sub(g2.coeffs.get(m, zero), current)
        if mv_is_zero(delta):
            continue
        cols = []
        for b in basis:
            probe = dict(xi_coeffs)
            probe[m - 1] = b
            probed = gauge_flow(S, g1, GaugeParam(ring, probe))
            cols.append(mv_sub(probed.coeffs.get(m, zero), current))
        consistent, x, _ = _solve_mv_equation(cols, delta, ctx)
        if not consistent:
            return GaugeReport(False, None, poly_degree)
        v = _combination(ctx, x, basis)
        if not mv_is_zero(v):
            xi_coeffs[m - 1] = v

    witness = GaugeParam(ring, xi_coeffs)
    if not series_eq(gauge_flow(S, g1, witness), g2):
        raise RuntimeError("internal error: assembled witness fails its self-check")
    return GaugeReport(True, witness, poly_degree)

# ---------------------------------------------------------------------------
# hochschild


def _candidate_basis(
    ctx: VarContext, arity: int, poly_degree: int, op_order: int
) -> List[MultiDiffOp]:
    multiindices = list(monomials_upto(ctx.n, op_order))
    monos = list(monomials_upto(ctx.n, poly_degree))
    basis = []
    for orders in itertools.product(multiindices, repeat=arity):
        for mono in monos:
            basis.append(
                mdo_make(ctx, arity, [(tuple(orders), poly_from_terms(ctx.n, [(1, mono)]))])
            )
    return basis


def delta_primitive(
    T: MultiDiffOp, *, poly_degree: int, op_order: int
) -> PrimitiveResult:
    """Search for ξ of arity one less with δξ = T, within the stated bounds.

    The search space is spanned by single-term cochains whose slot orders are
    bounded by ``op_order`` and whose coefficients are monomials of degree at
    most ``poly_degree``; the linear system matches coefficients of δξ and T
    exactly.  When inconsistent, the canonical near-solution and its residual
    are reported instead.
    """
    if T.arity == 0:
        raise ValueError("0-ary cochains have no primitive space")
    ctx = T.ctx
    basis = _candidate_basis(ctx, T.arity - 1, poly_degree, op_order)
    images = [hoch_delta(b) for b in basis]

    keys = sorted(
        {(o, m) for img in images for o, p in img.terms.items() for m in p}
        | {(o, m) for o, p in T.terms.items() for m in p}
    )
    key_index = {key: i for i, key in enumerate(keys)}
    rows = [[0] * len(basis) for _ in keys]
    for col, img in enumerate(images):
        for o, p in img.terms.items():
            for m, cval in p.items():
                rows[key_index[(o, m)]][col] = cval
    rhs = [0] * len(keys)
    for o, p in T.terms.items():
        for m, cval in p.items():
            rhs[key_index[(o, m)]] = cval

    res = gaussian_solve(rows, rhs, ncols=len(basis))
    acc: Dict[Orders, Poly] = {}
    for coeff, b in zip(res.x, basis):
        for orders, p in b.terms.items():
            _add_term(acc, orders, p, coeff)
    candidate = MultiDiffOp(ctx, T.arity - 1, acc)
    residual = mdo_sub(T, hoch_delta(candidate))
    found = res.consistent
    return PrimitiveResult(
        found=found,
        primitive=candidate if found else None,
        candidate=candidate,
        residual=residual,
        rank=res.rank,
    )
