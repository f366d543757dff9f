"""Cochain calculus on shifted multivector fields, and the contraction map.

A cochain of arity k is a k-linear, graded-symmetric map from multivector
fields to multivector fields. Cochains are carried as evaluators: a kernel
defined on degree-homogeneous arguments plus metadata (arity, total
degree); a generic wrapper extends every kernel multilinearly to arbitrary
inputs by splitting them into homogeneous components.

Sign conventions (fixed package-wide, see docs/sign-ledger.md):

* permuting arguments of degrees p, q past each other contributes
  (-1)^{pq} (unshifted degrees);
* the arity-2 structure cochain is m(a, b) = (-1)^{|a|-1} [a, b];
* the contraction cochain of a decomposable k-form a_1 ^ ... ^ a_k (with
  polynomial coefficient g) is

      phi(w)(p_1,...,p_k) = sum_sigma kappa(sigma)
          * (-1)^{sum_i (k-i) |p_sigma(i)|}
          * g * <a_1, p_sigma(1)> ^ ... ^ <a_k, p_sigma(k)>

  where kappa is the Koszul sign of sigma on the argument word. The
  sigma-dependent exponent makes the evaluator graded-symmetric, and the
  whole convention set is pinned by two identities the test suite checks
  exhaustively: d(phi(w)) = phi(dw) and [phi(a), phi(b)] = 0;
* composition inserts the right factor into the first slot, summed over
  unshuffles: (F.G)(args) = sum_I eps(I) F(G(args_I), args_rest), with
  eps the Koszul sign of pulling I to the front;
* [F, G] = F.G - (-1)^{deg F * deg G} G.F, and the differential is
  bracketing with m.

The library evaluates compositions and brackets only at term level, in the
sweeps of ``_fastsweep``; the test suite keeps an evaluator-level
composition, bracket and differential as their independent reference.
Both kernels run on the term engine: the structure cochain through
``polyvec.schouten``, and the contraction cochain's kernel converts its
arguments with ``polyvec.to_termmap`` and sums ``_fastterms.phi_into`` into
one TermMap, with one engine context (and so one frame table) per
``phi(omega)`` cochain.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ._fastterms import FastCtx, TermMap, phi_into
from .exactcore import VarContext
from .polyvec import (
    DiffForm,
    PolyVector,
    _add_mv_into,
    form_degree,
    from_termmap,
    mv_scale,
    mv_zero,
    schouten,
    to_termmap,
)

__all__ = [
    "Cochain",
    "cochain_zero",
    "evaluate",
    "phi",
    "structure_cochain",
]

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
    total: Dict = {}
    for combo in itertools.product(*split):
        _add_mv_into(total, c.kernel(combo))
    return PolyVector(c.ctx, total)


def _degree_of(v: PolyVector) -> int:
    # kernels only ever see single-degree nonzero arguments
    return len(next(iter(v.terms)))


def cochain_zero(ctx: VarContext, arity: int, degree: int = 0) -> Cochain:
    return Cochain(ctx, arity, degree, lambda args: mv_zero(ctx), name="0")


# ---------------------------------------------------------------------------
# the structure cochain and the contraction cochain


def structure_cochain(ctx: VarContext) -> Cochain:
    """The arity-2 cochain m(a,b) = (-1)^{|a|-1}[a,b] packaging the bracket."""

    def kernel(args: Tuple[PolyVector, ...]) -> PolyVector:
        a, b = args
        sign = -1 if (_degree_of(a) - 1) % 2 else 1
        return mv_scale(schouten(a, b), sign)

    return Cochain(ctx, 2, 1, kernel, name="m")


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
    fc = FastCtx(ctx.n)
    form = to_termmap(fc, omega)

    def kernel(args: Tuple[PolyVector, ...]) -> PolyVector:
        acc: TermMap = {}
        phi_into(
            fc, form, [to_termmap(fc, a) for a in args], [_degree_of(a) for a in args], 1, acc
        )
        return from_termmap(PolyVector, ctx, fc, acc)

    return Cochain(ctx, k, k - 2, kernel, name="phi", source_form=omega)
