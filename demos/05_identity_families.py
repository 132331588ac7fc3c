"""The classical identity families, verified two ways.

Every constructor returns an element asserting "= 0"; it is checked by
reduction against the relation system (exact linear algebra) and by
realization as a q-series (which must vanish identically).  The chain ends
with Ramanujan's differential equations for E_2, E_4, E_6 in the
G_k normalization.
"""

from doubleeis import is_zero_in_space, realize_element
from doubleeis.identities import (
    mfprod_i,
    mfprod_ii,
    parity_expression,
    ramanujan,
    ramanujan_printed_g4,
    relprodandg,
    sum_formula,
)

print("Sum formula instances (k, d):")
for k, d in [(2, 0), (3, 0), (2, 1), (4, 2)]:
    e = sum_formula(k, d)
    print(f"  ({k},{d}): {e.to_text()}")
    print(f"        reduces to zero: {is_zero_in_space(e)},"
          f" realizes to zero: {not realize_element(e, 20)}")
print()

print("Parity: odd-weight depth-two symbols rewrite in depth one and products.")
e = parity_expression(2, 1, 0, 0)
print("  G(2,1;0,0) case:", e.to_text())
print("  reduces to zero:", is_zero_in_space(e))
print()

print("Even weight: products of depth-one symbols against G(k;0) and G(k-1;1).")
e = relprodandg(1, 3)
print("  (k1,k2)=(1,3):", e.to_text(), "->", is_zero_in_space(e))
e = mfprod_i(4)
print("  solved for G(3;1):", e.to_text(), "->", is_zero_in_space(e))
e = mfprod_ii(8)
print("  weight 8 combination:", e.to_text(), "->", is_zero_in_space(e))
print("  which encodes the classical G_8 = 6/7 G_4^2.")
print()

print("Ramanujan differential equations (realized series must vanish):")
for which in ("G2", "G4", "G6"):
    element = ramanujan(which)
    series = realize_element(element, 30)
    print(f"  {which}: formal zero: {is_zero_in_space(element)}, series zero: {not series}")
print()

element = ramanujan_printed_g4()
series = realize_element(element, 30)
print("Negative control (coefficients 8 and 14 swapped):")
print("  formal zero:", is_zero_in_space(element), "- series zero:", not series)
print("  offending constant term:", series.coefficient(0))
