"""Twisted bracket structures on polynomial multivector fields.

A closed 3-form H deforms the graded Lie structure of the Schouten bracket
into a pair (l2, l3): l2 is the structure cochain ``m_value(a, b)``, the
sign-adjusted bracket, and l3 contracts arguments into H (``phi_value`` of
H), so a ``TwistedStructure`` carries just the checked form.
``phi_value(omega, args)`` evaluates the contraction cochain of any
homogeneous k-form on k arguments; both values hand their arguments'
TermMaps, of any mix of degrees, to ``_fastterms.phi_into`` or
``_fastterms.m_into``, which read each term's degree off its frame.
``mc_defect`` sums the quadratic-cubic defect of a bivector on the term
engine; the l2/l3 compatibility relations are swept by ``_fastsweep``
(``linfty_jacobi``, ``linfty_mixed``, ``linfty_ternary``).

Sign conventions (fixed package-wide, see docs/sign-ledger.md):

* permuting arguments of degrees p, q past each other contributes
  (-1)^{pq} (unshifted degrees);
* the structure cochain is m(a, b) = (-1)^{|a|-1} [a, b];
* the contraction cochain of a decomposable k-form a_1 ^ ... ^ a_k (with
  polynomial coefficient g) is

      phi(w)(p_1,...,p_k) = sum_sigma kappa(sigma)
          * (-1)^{sum_i (k-i) |p_sigma(i)|}
          * g * <a_1, p_sigma(1)> ^ ... ^ <a_k, p_sigma(k)>

  where kappa is the Koszul sign of sigma on the argument word, pinned by
  the identities d(phi(w)) = phi(dw) and [phi(a), phi(b)] = 0 that the
  sweeps of ``_fastsweep`` and the test suite's evaluator-level cochain
  calculus check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._fastterms import FastCtx, TermMap, m_into, phi_into, schouten_into
from .exactcore import VarContext
from .polyvec import (
    DiffForm,
    PolyVector,
    d_form,
    form_degree,
    form_is_zero,
    mv_homogeneous_degree,
    mv_is_zero,
)

__all__ = [
    "NotClosedError",
    "TwistedStructure",
    "make_twisted",
    "mc_defect",
    "is_twisted_poisson",
    "m_value",
    "phi_value",
]


def phi_value(omega: DiffForm, args: Sequence[PolyVector]) -> PolyVector:
    """The contraction cochain of a homogeneous k-form on k = len(args) arguments.

    Extended multilinearly to arguments of mixed degree; a 0-form on no
    arguments is its function, and the zero form gives zero on any number
    of arguments.
    """
    args = tuple(args)
    k = form_degree(omega)
    if k is None and omega._tm:
        raise ValueError("phi expects a homogeneous form")
    if k is not None and k != len(args):
        raise ValueError(f"arity {len(args)} contradicts form degree {k}")
    ctx = omega.ctx
    if any(a.ctx != ctx for a in args):
        raise ValueError("context mismatch")
    acc: TermMap = {}
    if omega._tm:
        phi_into(FastCtx(ctx.n), omega._tm, [a._tm for a in args], 1, acc)
    return PolyVector._wrap(ctx, acc)


def m_value(a: PolyVector, b: PolyVector) -> PolyVector:
    """The structure cochain m(a, b) = (-1)^{|a|-1}[a, b], summed over a's degrees."""
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")
    acc: TermMap = {}
    m_into(FastCtx(a.ctx.n), a._tm, b._tm, 1, acc)
    return PolyVector._wrap(a.ctx, acc)


class NotClosedError(ValueError):
    """Raised when the twisting 3-form has a nonzero exterior derivative.

    The residual derivative is kept on the exception so callers (and the CLI)
    can report exactly how closedness fails.
    """

    def __init__(self, d_h: DiffForm):
        super().__init__("twisting form is not closed")
        self.d_h = d_h


@dataclass(frozen=True)
class TwistedStructure:
    """The (l2, l3) pair twisted by the closed 3-form H, carried by H itself."""

    ctx: VarContext
    H: DiffForm


def make_twisted(H: DiffForm) -> TwistedStructure:
    """Check H and build the (l2, l3) pair it twists.

    Raises ValueError if H is not homogeneous of degree 3 (the zero form is
    allowed and yields a vanishing ternary operation), and NotClosedError
    if dH != 0.
    """
    if not form_is_zero(H) and form_degree(H) != 3:
        raise ValueError("twisting form must be homogeneous of degree 3")
    dH = d_form(H)
    if not form_is_zero(dH):
        raise NotClosedError(dH)
    return TwistedStructure(ctx=H.ctx, H=H)


def mc_defect(S: TwistedStructure, pi: PolyVector) -> PolyVector:
    """Integrability defect [pi,pi] - phi(H)(pi,pi,pi) of a bivector field.

    Vanishing of the defect is the twisted integrability condition; it is
    quadratic in pi through the bracket and cubic through the contraction
    term, so it does not scale linearly.
    """
    if pi.ctx != S.ctx:
        raise ValueError("context mismatch")
    if mv_is_zero(pi):
        return pi
    if mv_homogeneous_degree(pi) != 2:
        raise ValueError("defect is defined for homogeneous degree-2 fields")
    fc = FastCtx(S.ctx.n)
    P = pi._tm
    acc: TermMap = {}
    schouten_into(fc, P, P, 1, acc)
    if S.H._tm:
        phi_into(fc, S.H._tm, [P, P, P], -1, acc)
    return PolyVector._wrap(S.ctx, acc)


def is_twisted_poisson(S: TwistedStructure, pi: PolyVector) -> bool:
    return mv_is_zero(mc_defect(S, pi))
