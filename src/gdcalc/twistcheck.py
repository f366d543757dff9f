"""Twisted bracket structures on polynomial multivector fields.

A closed 3-form H deforms the graded Lie structure of the Schouten bracket
into a pair (l2, l3): l2 stays the sign-adjusted bracket (``m_value``) and
l3 contracts arguments into H (``phi_value`` of H), so a
``TwistedStructure`` carries just the checked form.  ``mc_defect`` sums the
quadratic-cubic defect of a bivector on the term engine; the l2/l3
compatibility relations are swept by ``_fastsweep`` (``linfty_jacobi``,
``linfty_mixed``, ``linfty_ternary``).

Sign conventions are documented in docs/sign-ledger.md.
"""
from __future__ import annotations

from dataclasses import dataclass

from ._fastterms import FastCtx, TermMap, phi_into, schouten_into
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
]


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
        phi_into(fc, S.H._tm, [P, P, P], (2, 2, 2), -1, acc)
    return PolyVector._wrap(S.ctx, acc)


def is_twisted_poisson(S: TwistedStructure, pi: PolyVector) -> bool:
    return mv_is_zero(mc_defect(S, pi))
