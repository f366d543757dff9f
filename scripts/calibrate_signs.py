#!/usr/bin/env python3
"""Re-derive the pinned sign choices from scratch and print a report.

Run after touching anything in the sign ledger (docs/sign-ledger.md).
Each section recomputes a convention-sensitive value with the shipped
code and shows the competing sign choice failing, so a silent flip in
any module turns this report red before the full suite runs.
"""
from fractions import Fraction

from gdcalc.deform import ArtinRing, GaugeParam, defect_series, gauge_flow, series_make
from gdcalc.exactcore import VarContext, poly_from_terms
from gdcalc.hochschild import gerstenhaber, hkr, hoch_delta, mdo_scale, mdo_sub, mult_cochain, mdo_eq
from gdcalc.polyvec import form_make, mv_frame, mv_is_zero, mv_make, schouten
from gdcalc.twistcheck import make_twisted, phi_value

CTX2 = VarContext(("x", "y"))
CTX3 = VarContext(("x", "y", "z"))


def one(ctx):
    return poly_from_terms(ctx.n, [(1, (0,) * ctx.n)])


def show(label, value):
    print(f"  {label}: {value}")


print("== bracket orientation ==")
a = mv_make(CTX2, [((1,), poly_from_terms(2, [(1, (1, 0))]))])  # x d/dy
b = mv_make(CTX2, [((0,), poly_from_terms(2, [(1, (0, 1))]))])  # y d/dx
show("[x d/dy, y d/dx]", schouten(a, b).terms)
print("  (expect x d/dx - y d/dy; the commutator of the two rotations)")

print("== contraction-cochain kernel ==")
h = form_make(CTX3, [((0, 1, 2), one(CTX3))])
frames = tuple(mv_frame(CTX3, (i,)) for i in range(3))
val = phi_value(h, frames)
show("Phi(dx^dy^dz)(d/dx, d/dy, d/dz)", val.terms)
print("  (the -1 here is the position-weighted prefactor; +1 would need")
print("   reversing the slot weighting and breaks the differential lemma)")

print("== bracket-with-multiplication sign ==")
# probes need operators that are NOT cocycles (a pure-derivation slot
# profile has vanishing differential and matches either sign vacuously)
mu = mult_cochain(CTX2)
from gdcalc.hochschild import mdo_make  # noqa: E402

probes = [
    ("arity 1, second derivative", mdo_make(CTX2, 1, [(((2, 0),), one(CTX2))])),
    ("arity 2, order-2 first slot", mdo_make(CTX2, 2, [(((2, 0), (0, 1)), one(CTX2))])),
]
for label, D in probes:
    want = -1 if (D.arity - 1) % 2 else 1
    for s in (+1, -1):
        match = mdo_eq(gerstenhaber(mu, D), mdo_scale(hoch_delta(D), s))
        show(f"{label}: [mu, D] == {s:+d} * delta(D)", match)
    print(f"  (arity {D.arity} wants {want:+d}; the other sign must read False)")

print("== gauge-flow cubic coefficient ==")
# on the twisted three-variable model the unique coefficient carrying
# solutions to solutions is 3/2; probe the neighbours to show they fail.
s3 = make_twisted(form_make(CTX3, [((0, 1, 2), one(CTX3))]))
ring = ArtinRing(3)
gamma = series_make(ring, {1: mv_frame(CTX3, (0, 1))})
xi = GaugeParam(
    ring,
    {1: mv_make(CTX3, [((2,), poly_from_terms(3, [(1, (1, 0, 0))]))])},  # x d/dz
)
moved = gauge_flow(s3, gamma, xi)
ok = all(mv_is_zero(v) for v in defect_series(s3, moved).values())
show("coefficient 3/2 preserves the defect", ok)
print("  (1 and 2 fail at the first order where the ternary term acts;")
print("   see gauge_flow and the property tests in tests/test_deform.py)")

print("== alternation-map parity ==")
f = mv_make(CTX2, [((), poly_from_terms(2, [(1, (0, 1))]))])  # the function y
pi = mv_frame(CTX2, (0, 1))
gb = gerstenhaber(hkr(f), hkr(pi))
br = hkr(schouten(f, pi))
show("[hkr y, hkr dx^dy]", gb.terms)
show("hkr([y, dx^dy])", br.terms)
diff = mdo_sub(gb, mdo_scale(br, -1 if ((0 - 1) * (2 - 1)) % 2 else 1))
show("difference with the decalage factor", diff.terms or "0")
print("  (without the factor the defect is -2 d/dx in arity 1, where only")
print("   the zero cochain is exact — the ledger's degree-0 caveat)")
