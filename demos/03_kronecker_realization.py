"""Realizing formal symbols as q-series of quasimodular forms.

The regular coefficients of the Kronecker function tabulate derivatives of
Eisenstein series; a fixed group-ring combination extends them to depth
two.  The induced linear map sends every relation row to the zero series,
its depth-two values admit an explicit quasimodular closed form, and its
constant terms recover Bernoulli-number values.
"""

from fractions import Fraction

from doubleeis import (
    G1,
    G2,
    GP,
    KroneckerRealization,
    closed_form_depth2,
    eisenstein_relations,
    realize_bernoulli,
    realize_kronecker,
    recognize_quasimodular,
)

N = 10
print("Depth one: G(k;d) realizes to a scaled derivative of an Eisenstein series.")
print("  G(2;0) ->", realize_kronecker(G1(2, 0), N).to_text())
print("  G(3;1) ->", realize_kronecker(G1(3, 1), N).to_text())
print("  G(3;0) ->", realize_kronecker(G1(3, 0), N).to_text(), " (odd weight vanishes)")
print()

print("Products: P(4,4;0,0) ->", realize_kronecker(GP(4, 4, 0, 0), 6).to_text())
print()

print("Depth two by series extraction, checked against the closed form:")
for k1, k2 in [(2, 2), (1, 3), (4, 4)]:
    extracted = realize_kronecker(G2(k1, k2, 0, 0), N)
    closed = closed_form_depth2(k1, k2, N)
    print(f"  G({k1},{k2};0,0) -> {extracted.to_text()}")
    print(f"    closed form agrees: {extracted == closed}")
print()

ctx = KroneckerRealization(20)
rows = eisenstein_relations(6)
print(f"All {len(rows)} weight-6 relation rows realize to the zero series:",
      all(not ctx.element_value(r) for r in rows))
print()

series = realize_kronecker(G1(8, 0), 30)
combo = recognize_quasimodular(series, 8)
print("Recognition of the realized G(8;0) in the G2^a G4^b G6^c basis:", combo)
print("  i.e. the classical relation G_8 = 6/7 * G_4^2")
print()

print("Constant terms (the rational realization):")
for k in (2, 4, 6, 8):
    print(f"  G({k};0) ->", realize_bernoulli(G1(k, 0)))
print("  P(4,4;0,0) ->", realize_bernoulli(GP(4, 4, 0, 0)), "=", Fraction(1, 1440) ** 2)
