"""Formal deformations over truncated polynomial coefficients.

Series of bivector fields with coefficients in t·Q[t]/t^{N+1} are extended
order by order to solutions of the twisted integrability equation, and gauge
transformations act through an exactly integrated flow.  All linear algebra
is exact; reports are deterministic (canonical basis order, free variables
pinned to zero).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from ._linalg import flatten_terms, solve_keyed
from .chevalley import evaluate
from .exactcore import grlex_key
from .polyvec import (
    PolyVector,
    _add_mv_into,
    basis_multivectors,
    mv_eq,
    mv_homogeneous_degree,
    mv_is_zero,
    mv_scale,
    mv_sub,
    mv_zero,
    schouten,
)
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
# the defect series


def defect_series(S: TwistedStructure, pi: ArtinSeries) -> Dict[int, PolyVector]:
    """Order-by-order integrability defect of the series, orders 1..N.

    Order k carries Σ_{i+j=k}[π_i,π_j] − Σ_{i+j+l=k} l3(π_i,π_j,π_l) over
    ordered index tuples; the series solves the twisted equation modulo
    t^{N+1} exactly when every order vanishes.
    """
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
                    _add_mv_into(acc, evaluate(S.l3, (cs[i], cs[j], cs[l])), -1)
        out[k] = PolyVector(S.ctx, acc)
    return out


# ---------------------------------------------------------------------------
# the order-by-order solver


@dataclass(frozen=True)
class SolveReport:
    status: str  # "solved" | "obstructed"
    solution: Optional[ArtinSeries]
    order: Optional[int]
    residual: Optional[PolyVector]
    poly_degree: int


def _combination(ctx, x: Sequence[Fraction], vecs: Sequence[PolyVector]) -> PolyVector:
    """Σ x_b·vecs[b], summed in place over the nonzero x_b."""
    acc: Dict = {}
    for coeff, v in zip(x, vecs):
        if coeff:
            _add_mv_into(acc, v, coeff)
    return PolyVector(ctx, acc)


def _solve_mv_equation(
    cols: List[PolyVector], rhs: PolyVector, ctx
) -> Tuple[bool, List[Fraction], PolyVector]:
    """Solve Σ x_b·cols[b] = rhs over the span keys; returns (consistent, x, residual)."""
    res = solve_keyed(
        [flatten_terms(c.terms) for c in cols],
        flatten_terms(rhs.terms),
        row_key=lambda fm: (len(fm[0]), fm[0], grlex_key(fm[1])),
    )
    return res.consistent, res.x, mv_sub(rhs, _combination(ctx, res.x, cols))


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
                        _add_mv_into(acc, evaluate(S.l3, (cs[i], cs[j], cs[l])))
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


# ---------------------------------------------------------------------------
# gauge flow


def _sum_by_key(
    ctx, parts: Iterable[Tuple[Hashable, PolyVector, Fraction]]
) -> Dict[Hashable, PolyVector]:
    """Σ factor·v for each key over (key, v, factor) parts; keys that cancel are dropped."""
    acc: Dict[Hashable, Dict] = {}
    for key, v, factor in parts:
        terms = _add_mv_into(acc.setdefault(key, {}), v, factor)
        if not terms:
            del acc[key]
    return {key: PolyVector(ctx, terms) for key, terms in acc.items()}


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
    ctx = S.ctx

    # state: (s-power, t-order) -> multivector
    base = {(0, k): v for k, v in gamma.coeffs.items() if v.terms}

    def step(state):
        """Parts of base + ∫₀ˢ rhs(state); s^m·v integrates to s^{m+1}·v/(m+1)."""
        for key, v in base.items():
            yield key, v, 1
        for a, xv in xi.coeffs.items():
            for (m, b), gv in state.items():
                if a + b <= n_trunc:
                    yield (m + 1, a + b), schouten(xv, gv), Fraction(-1, m + 1)
            for (m1, b1), g1 in state.items():
                for (m2, b2), g2 in state.items():
                    if a + b1 + b2 <= n_trunc:
                        m = m1 + m2 + 1
                        val = evaluate(S.l3, (xv, g1, g2))
                        yield (m, a + b1 + b2), val, Fraction(-3, 2 * m)

    current = base
    for _ in range(n_trunc + 2):
        updated = _sum_by_key(ctx, step(current))
        if _state_eq(updated, current):
            break
        current = updated
    else:
        raise RuntimeError("internal error: flow iteration failed to stabilize")

    totals = _sum_by_key(ctx, ((k, v, 1) for (_, k), v in current.items()))
    return series_make(gamma.ring, totals)


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
