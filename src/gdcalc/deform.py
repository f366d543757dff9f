"""Formal deformations over truncated polynomial coefficients.

Series of bivector fields with coefficients in t·Q[t]/t^{N+1} are extended
order by order to solutions of the twisted integrability equation, and gauge
transformations act through an exactly integrated flow.  All linear algebra
is exact; reports are deterministic (canonical basis order, free variables
pinned to zero).

Every public function reads its inputs' TermMaps, with one term engine
context for the call (``gauge_equivalent``'s flows share it), sums with
``schouten_into``/``phi_into``/``tm_add_into``, and wraps each result map
as a ``PolyVector`` at exit.  ``_defect`` is the one order-k defect
routine.  ``mc_solve`` and ``gauge_equivalent`` solve against the same
columns at every order, so each factors its TermMap columns once per call
(``_linalg.Factorisation``, one equation per key of a column, in
``_equation_keys`` order) and replays the factorisation on each order's
right-hand side (``_replay``: order m fixes the unknown of index m−1).  A
consistent order's solution does not depend on the rows the elimination
selects; an obstruction's near-solution does, and it is the one that
factorisation of the columns' keys gives, with free variables at zero:
``_replay`` returns the first inconsistent order with the residual of its
own replay, so a call eliminates one system, obstructed or not.
``gauge_equivalent`` reports no near-solution.

The flow is built in one pass by t-order (``_flow``): ξ has t-order ≥ 1, so
the flow's entries of t-order k read only entries of lower t-order, and each
is final when it is first computed.  The same order count gives
``gauge_equivalent`` its columns in closed form: at order m, ξ_{m−1} paired
with γ_j lands at order m−1+j, which is m only for j = 1, and the cubic term
lands at order ≥ m+1, so ξ_{m−1} moves order m by −[ξ_{m−1}, γ₁] alone.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ._fastterms import FastCtx, TermKey, TermMap, phi_into, schouten_into, tm_add_into
from ._linalg import Factorisation
from .polyvec import PolyVector, basis_multivectors, canonical_keys, mv_eq, mv_homogeneous_degree, mv_is_zero
from .twistcheck import TwistedStructure

__all__ = [
    "ArtinRing",
    "ArtinSeries",
    "GaugeParam",
    "SolveReport",
    "GaugeReport",
    "series_make",
    "series_eq",
    "defect_series",
    "mc_solve",
    "gauge_flow",
    "gauge_equivalent",
]


@dataclass(frozen=True)
class ArtinRing:
    """Scalars adjoin t modulo t^{truncation+1}."""

    truncation: int

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation order must be at least 1")


@dataclass(frozen=True)
class ArtinSeries:
    """Σ_{k≥1} t^k·(multivector field), truncated; no t⁰ term by construction."""

    ring: ArtinRing
    coeffs: Dict[int, PolyVector]


def series_make(ring: ArtinRing, coeffs: Mapping[int, PolyVector]) -> ArtinSeries:
    out: Dict[int, PolyVector] = {}
    ctx = None
    for k, v in coeffs.items():
        if not 1 <= k <= ring.truncation:
            raise ValueError(f"order {k} outside 1..{ring.truncation}")
        if ctx is None:
            ctx = v.ctx
        elif v.ctx != ctx:
            raise ValueError("mixed contexts in one series")
        if not mv_is_zero(v):
            out[k] = v
    return ArtinSeries(ring, out)


def series_eq(a: ArtinSeries, b: ArtinSeries) -> bool:
    if a.ring != b.ring or set(a.coeffs) != set(b.coeffs):
        return False
    return all(mv_eq(a.coeffs[k], b.coeffs[k]) for k in a.coeffs)


@dataclass(frozen=True)
class GaugeParam:
    """Σ_{k≥1} t^k·(vector field): the degree-0 gauge directions."""

    ring: ArtinRing
    coeffs: Dict[int, PolyVector]

    def __post_init__(self):
        clean: Dict[int, PolyVector] = {}
        for k, v in self.coeffs.items():
            if not 1 <= k <= self.ring.truncation:
                raise ValueError(f"order {k} outside 1..{self.ring.truncation}")
            if mv_is_zero(v):
                continue
            if mv_homogeneous_degree(v) != 1:
                raise ValueError("gauge coefficients must be vector fields")
            clean[k] = v
        object.__setattr__(self, "coeffs", clean)


# ---------------------------------------------------------------------------
# TermMap helpers

Terms = Dict[int, TermMap]  # t-order -> coefficient


def _bivector_terms(S: TwistedStructure, series: ArtinSeries) -> Terms:
    for v in series.coeffs.values():
        if v.ctx != S.ctx:
            raise ValueError("context mismatch")
        if mv_homogeneous_degree(v) != 2:
            raise ValueError("defect is defined for bivector series")
    return {k: v._tm for k, v in series.coeffs.items()}


def _diff(a: TermMap, b: TermMap) -> TermMap:
    """a − b as a fresh TermMap."""
    acc = dict(a)
    tm_add_into(acc, b, -1)
    return acc


def _span_sum(x: Sequence[Fraction], tms: Sequence[TermMap]) -> TermMap:
    """Σ x_b·tms[b], summed in place over the nonzero x_b."""
    acc: TermMap = {}
    for coeff, tm in zip(x, tms):
        if coeff:
            tm_add_into(acc, tm, coeff)
    return acc


def _equation_keys(fc: FastCtx, *tms: TermMap) -> List[TermKey]:
    """The keys of the TermMaps, in ``canonical_keys`` order."""
    return canonical_keys(fc.n, set().union(*tms))


def _replay(
    fc: FastCtx,
    basis: Sequence[TermMap],
    cols: Sequence[TermMap],
    orders: range,
    rhs: Callable[[int], TermMap],
    fixed: Terms,
) -> Optional[Tuple[int, TermMap]]:
    """Fix one unknown per order against one factorisation of cols.

    At order m, rhs(m) is read with the lower orders fixed, and the unknown
    of index m−1 is the combination of basis whose columns sum to it; a
    nonzero one goes into fixed.  Returns the first inconsistent order with
    its residual Σ x_b·cols_b − rhs(m) at the near-solution x, or None.
    """
    factored = Factorisation(cols, _equation_keys(fc, *cols))
    for m in orders:
        b = rhs(m)
        if not b:
            continue
        consistent, x = factored.solve(b)
        if not consistent:
            return m, _diff(_span_sum(x, cols), b)
        v = _span_sum(x, basis)
        if v:
            fixed[m - 1] = v
    return None


# ---------------------------------------------------------------------------
# the defect series


def _defect(fc: FastCtx, H: TermMap, cs: Terms, k: int, scale=1) -> TermMap:
    """scale times the order-k defect of the bivector coefficients cs.

    Σ_{i+j=k}[π_i,π_j] − Σ_{i+j+l=k} Φ(H)(π_i,π_j,π_l) over ordered index
    tuples with every index ≥ 1, in lexicographic order.  Only orders that
    cs holds are visited, so the cost follows |cs|, not k.
    """
    acc: TermMap = {}
    orders = [i for i in sorted(cs) if 1 <= i < k]
    for i in orders:
        if k - i in cs:
            schouten_into(fc, cs[i], cs[k - i], scale, acc)
    if H:
        for i in orders:
            for j in orders:
                l = k - i - j
                if l < 1:
                    break
                if l in cs:
                    phi_into(fc, H, [cs[i], cs[j], cs[l]], -scale, acc)
    return acc


def defect_series(S: TwistedStructure, pi: ArtinSeries) -> Dict[int, PolyVector]:
    """Order-by-order integrability defect of the series, orders 1..N.

    Order k carries Σ_{i+j=k}[π_i,π_j] − Σ_{i+j+l=k} l3(π_i,π_j,π_l) over
    ordered index tuples; the series solves the twisted equation modulo
    t^{N+1} exactly when every order vanishes.
    """
    fc = FastCtx(S.ctx.n)
    cs = _bivector_terms(S, pi)
    return {
        k: PolyVector._wrap(S.ctx, _defect(fc, S.H._tm, cs, k))
        for k in range(1, pi.ring.truncation + 1)
    }


# ---------------------------------------------------------------------------
# the order-by-order solver


@dataclass(frozen=True)
class SolveReport:
    status: str  # "solved" | "obstructed"
    solution: Optional[ArtinSeries]
    order: Optional[int]
    residual: Optional[PolyVector]
    poly_degree: int


def mc_solve(
    S: TwistedStructure, pi1: PolyVector, N: int, *, poly_degree: int
) -> SolveReport:
    """Extend t·pi1 to a solution modulo t^{N+2}, order by order, for N ≥ 2.

    At N = 1 nothing is solved or checked: t·pi1 comes back ``solved``, a
    solution modulo t² only, even where [π₁, π₁] ≠ 0.  The unknown at step
    k (2 ≤ k ≤ N) enters the order-(k+1) defect linearly through
    2[π₁,π_k]; the right-hand side is minus the order-(k+1) defect of the
    orders already fixed.  The unknown ranges over frame-basis
    bivectors with monomial coefficients of degree ≤ poly_degree.  Greedy:
    obstructions are relative to the lower-order choices already made.

    An ``obstructed`` verdict at order 3 is exact within the bounds: π₂
    enters order 3 linearly and no lower-order choice precedes it, so no π₂
    of degree ≤ poly_degree solves it.  A verdict at order 4 or above is
    relative to the π_k the solver picked at lower orders, and it can be
    false: for H = dx1∧dx2∧dx3 and π₁ = ∂₁∧∂₂ + ∂₃∧∂₄,
    ``scripts/obstruction_profile.py`` prints ``deg<=1 N=3: obstructed at
    order 4``, yet t·π₁ + t²·3x₁∂₁∧∂₄, of degree 1, has zero
    ``defect_series`` at orders 1-5.

    ``residual`` is None when ``solved``.  Obstructed at order 2, it is the
    order-2 defect [π₁,π₁], which no unknown enters.  Obstructed at order
    m ≥ 3, it is the order-m defect with π_{m−1} set to the near-solution:
    that of the factorisation of the columns' keys, with free variables at
    zero, which leaves unmet the equations the elimination finds
    inconsistent.
    """
    if poly_degree < 0:
        raise ValueError(f"poly_degree must be non-negative, got {poly_degree}")
    if pi1.ctx != S.ctx:
        raise ValueError("context mismatch")
    if not mv_is_zero(pi1) and mv_homogeneous_degree(pi1) != 2:
        raise ValueError("leading term must be a bivector field")
    ring = ArtinRing(N)
    fc, H = FastCtx(S.ctx.n), S.H._tm
    p1 = pi1._tm
    cs: Terms = {1: p1}

    def report_obstructed(order: int, residual: TermMap) -> SolveReport:
        return SolveReport("obstructed", None, order, PolyVector._wrap(S.ctx, residual), poly_degree)

    if N >= 2:
        defect2 = _defect(fc, H, cs, 2)
        if defect2:
            return report_obstructed(2, defect2)
        basis = [b._tm for b in basis_multivectors(S.ctx, poly_degree, (2,))]
        cols: List[TermMap] = [{} for _ in basis]
        for b, col in zip(basis, cols):
            schouten_into(fc, p1, b, 2, col)
        # order m fixes π_{m−1} against minus the order-m defect
        bad = _replay(fc, basis, cols, range(3, N + 2), lambda m: _defect(fc, H, cs, m, -1), cs)
        if bad:
            return report_obstructed(*bad)

    if any(_defect(fc, H, cs, k) for k in range(1, N + 1)):
        raise RuntimeError("internal error: solved series fails its own defect check")
    solution = series_make(ring, {k: PolyVector._wrap(S.ctx, v) for k, v in cs.items()})
    return SolveReport("solved", solution, None, None, poly_degree)


# ---------------------------------------------------------------------------
# gauge flow


def _flow(fc: FastCtx, H: TermMap, gamma: Terms, xi: Terms, n_trunc: int) -> Terms:
    """The flowed coefficients of gamma under the vector fields xi, empty ones dropped.

    The flow's state maps (s-power m, t-order k) to a TermMap and is the
    fixed point of state = gamma + ∫₀ˢ rhs(state), where s^m·v integrates to
    s^{m+1}·v/(m+1).  Every ξ coefficient and every state entry has t-order
    ≥ 1, so the entries of t-order k read only entries of lower t-order: the
    bracket −[ξ_a, ·] reads t-order k−a, and the cubic term
    −(3/2)·l3(ξ_a, ·, ·) reads t-orders b1, b2 with a+b1+b2 = k.  One pass
    over k = 1..N therefore builds the fixed point exactly, each entry from
    final ones.  Coefficients of gamma may have any degrees, which the term
    engine reads off their frames.
    """
    rows: Dict[int, List[Tuple[int, TermMap]]] = {}  # t-order -> [(s-power, entry)]
    totals: Terms = {}
    for k in range(1, n_trunc + 1):
        out: Dict[int, TermMap] = {0: gamma[k]} if gamma.get(k) else {}
        for a, xv in xi.items():
            for m, gv in rows.get(k - a, ()):
                # an int scale at m = 0 keeps integral coefficients ints
                schouten_into(fc, xv, gv, Fraction(-1, m + 1) if m else -1, out.setdefault(m + 1, {}))
            for b1 in range(1, k - a) if H else ():
                for m1, g1 in rows.get(b1, ()):
                    for m2, g2 in rows.get(k - a - b1, ()):
                        m = m1 + m2 + 1
                        phi_into(fc, H, [xv, g1, g2], Fraction(-3, 2 * m), out.setdefault(m, {}))
        rows[k] = [(m, v) for m, v in out.items() if v]
        total: TermMap = {}
        for _, v in rows[k]:
            tm_add_into(total, v)
        if total:
            totals[k] = total
    return totals


def gauge_flow(S: TwistedStructure, gamma: ArtinSeries, xi: GaugeParam) -> ArtinSeries:
    """Integrate dγ/ds = −[ξ,γ] − (3/2)·l3(ξ,γ,γ) from s=0 to s=1, exactly.

    Nilpotence of t makes the flow polynomial in s.  Its s-polynomial state
    is built in one pass by t-order (``_flow``): ξ raises the t-order, so each
    order reads only orders already final.  The cubic coefficient is pinned
    by the requirement that the flow carry solutions of the twisted equation
    to solutions (checked in the suite).
    """
    if xi.ring != gamma.ring:
        raise ValueError("series and gauge parameter use different truncations")
    for v in itertools.chain(xi.coeffs.values(), gamma.coeffs.values()):
        if v.ctx != S.ctx:
            raise ValueError("context mismatch")
    gamma_tms = {k: v._tm for k, v in gamma.coeffs.items()}
    xi_tms = {k: v._tm for k, v in xi.coeffs.items()}
    moved = _flow(FastCtx(S.ctx.n), S.H._tm, gamma_tms, xi_tms, gamma.ring.truncation)
    return series_make(gamma.ring, {k: PolyVector._wrap(S.ctx, v) for k, v in moved.items()})


# ---------------------------------------------------------------------------
# gauge equivalence search


@dataclass(frozen=True)
class GaugeReport:
    equivalent: bool
    witness: Optional[GaugeParam]
    poly_degree: int


def gauge_equivalent(
    S: TwistedStructure, g1: ArtinSeries, g2: ArtinSeries, *, poly_degree: int
) -> GaugeReport:
    """Search for ξ with gauge_flow(g1, ξ) = g2, order by order.

    Both inputs must solve the twisted equation.  The flow never moves the
    first-order coefficient, so differing leading terms are immediately
    inequivalent.  At each order m ≥ 2 the flow's order-m coefficient is
    affine in ξ_{m−1} with linear part b ↦ −[b, γ₁]: ξ_{m−1} paired with γ_j
    lands at order m−1+j, which is m only for j = 1, the cubic term lands at
    order ≥ m+1, and γ₁ is the only state entry of t-order 1.  So the columns
    −[b, γ₁] over the basis fields b are built once, in closed form; at each
    order only the flow of the ξ fixed so far is evaluated, and the system is
    solved exactly.  The assembled witness is checked by one more flow.
    False means: no witness within these bounds.
    """
    if poly_degree < 0:
        raise ValueError(f"poly_degree must be non-negative, got {poly_degree}")
    if g1.ring != g2.ring:
        raise ValueError("series use different truncations")
    ring = g1.ring
    n_trunc = ring.truncation
    fc, H = FastCtx(S.ctx.n), S.H._tm
    ends = []
    for g in (g1, g2):
        cs = _bivector_terms(S, g)
        if any(_defect(fc, H, cs, k) for k in range(1, n_trunc + 1)):
            raise ValueError("gauge equivalence needs solutions of the equation")
        ends.append(cs)
    start, target = ends
    if start.get(1, {}) != target.get(1, {}):
        return GaugeReport(False, None, poly_degree)

    basis = [b._tm for b in basis_multivectors(S.ctx, poly_degree, (1,))]
    # ξ_{m−1} moves order m by −[ξ_{m−1}, γ₁] alone, at every m
    cols: List[TermMap] = [{} for _ in basis]
    for b, col in zip(basis, cols):
        schouten_into(fc, b, start.get(1, {}), -1, col)
    xi: Terms = {}
    delta = lambda m: _diff(target.get(m, {}), _flow(fc, H, start, xi, n_trunc).get(m, {}))  # noqa: E731
    if _replay(fc, basis, cols, range(2, n_trunc + 1), delta, xi):
        return GaugeReport(False, None, poly_degree)

    if _flow(fc, H, start, xi, n_trunc) != target:
        raise RuntimeError("internal error: assembled witness fails its self-check")
    witness = {k: PolyVector._wrap(S.ctx, v) for k, v in xi.items()}
    return GaugeReport(True, GaugeParam(ring, witness), poly_degree)
