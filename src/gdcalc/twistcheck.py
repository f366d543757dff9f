"""Twisted bracket structures on polynomial multivector fields.

A closed 3-form H deforms the graded Lie structure of the Schouten bracket
into a pair (l2, l3): the binary operation stays the (sign-adjusted) bracket,
while the ternary operation contracts arguments into H.  This module builds
the pair and evaluates the quadratic-cubic integrability defect of a
bivector; the compatibility relations between l2 and l3 are swept on
spanning sets by ``_fastsweep`` (``linfty_jacobi``, ``linfty_mixed``,
``linfty_ternary``).

Sign conventions are documented in docs/sign-ledger.md.
"""
from __future__ import annotations

from dataclasses import dataclass

from .chevalley import Cochain, evaluate, phi, structure_cochain
from .exactcore import VarContext
from .polyvec import (
    DiffForm,
    PolyVector,
    d_form,
    form_degree,
    form_is_zero,
    mv_homogeneous_degree,
    mv_is_zero,
    mv_sub,
    schouten,
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
    ctx: VarContext
    H: DiffForm
    l2: Cochain
    l3: Cochain


def make_twisted(H: DiffForm) -> TwistedStructure:
    """Build the (l2, l3) pair twisted by a closed 3-form H.

    Raises ValueError if H is not homogeneous of degree 3 (the zero form is
    allowed and yields a vanishing ternary operation), and NotClosedError
    if dH != 0.
    """
    if not form_is_zero(H) and form_degree(H) != 3:
        raise ValueError("twisting form must be homogeneous of degree 3")
    dH = d_form(H)
    if not form_is_zero(dH):
        raise NotClosedError(dH)
    return TwistedStructure(
        ctx=H.ctx,
        H=H,
        l2=structure_cochain(H.ctx),
        l3=phi(H, arity=3),
    )


def mc_defect(S: TwistedStructure, pi: PolyVector) -> PolyVector:
    """Integrability defect [pi,pi] - l3(pi,pi,pi) of a bivector field.

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
    return mv_sub(schouten(pi, pi), evaluate(S.l3, (pi, pi, pi)))


def is_twisted_poisson(S: TwistedStructure, pi: PolyVector) -> bool:
    return mv_is_zero(mc_defect(S, pi))
