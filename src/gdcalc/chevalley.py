"""The contraction cochain and the structure cochain, evaluated on multivectors.

Cochains on shifted multivector fields are multilinear, graded-symmetric
maps from multivector fields to multivector fields.  ``phi_value(omega,
args)`` evaluates the contraction cochain of a homogeneous k-form on k
arguments and ``m_value(a, b)`` the arity-2 structure cochain; both split
mixed-degree arguments into homogeneous components by frame degree and sum.

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

Each call reads its operands' TermMaps, sums ``_fastterms.phi_into`` or
``_fastterms.m_into`` into one TermMap with one engine context, and wraps
that map as the result.
"""
from __future__ import annotations

import itertools
from typing import Sequence

from ._fastterms import FastCtx, TermMap, m_into, phi_into, split_degrees
from .polyvec import DiffForm, PolyVector, form_degree

__all__ = ["m_value", "phi_value"]


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
    fc = FastCtx(ctx.n)
    acc: TermMap = {}
    if omega._tm:
        parts = [split_degrees(fc, a._tm) for a in args]
        for combo in itertools.product(*parts):
            phi_into(fc, omega._tm, [tm for _, tm in combo], [d for d, _ in combo], 1, acc)
    return PolyVector._wrap(ctx, acc)


def m_value(a: PolyVector, b: PolyVector) -> PolyVector:
    """The structure cochain m(a, b) = (-1)^{|a|-1}[a, b], summed over a's degrees."""
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")
    fc = FastCtx(a.ctx.n)
    acc: TermMap = {}
    for deg, A in split_degrees(fc, a._tm):
        m_into(fc, A, b._tm, deg, 1, acc)
    return PolyVector._wrap(a.ctx, acc)
