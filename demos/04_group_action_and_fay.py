"""The GL(2,Z) action, the Fay identity, and the bi-period space.

A 2x2 integer matrix acts on four-variable series by a linear substitution
twisted by the determinant.  The Kronecker function satisfies a three-term
quadratic functional equation (the Fay identity), which makes its two-point
product an odd/symmetric bi-period object: it is killed by 1 + U + U^2,
1 + S, and 1 - epsilon.
"""

from fractions import Fraction

from doubleeis import MATRICES, MultiPoly, act, act_group_ring, fay_check, kronecker_b1, parse_group_ring
from doubleeis.kronecker import kronecker_wplus_candidate, kronecker_wplus_check
from doubleeis.multipoly import X1

print("Named matrices:", ", ".join(sorted(k for k in MATRICES if k != "1")))
print("T acts by (X1, X2; Y1, Y2) -> (X1+X2, X2; Y1, Y2-Y1):")
for form, name in ((X1, "X1"), ((0, 0, 0, 1), "Y2")):
    image = act(MATRICES["T"], MultiPoly.from_form(form))
    print(f"  {name} -> {dict(image.terms())}")
print()

print("Group-ring elements parse from compact expressions:")
combo = parse_group_ring("5-3*U+U*epsilon")
for coeff, matrix in combo.terms:
    print(f"  {coeff:+d} * {matrix.entries}")
print()

print("Matrix identities used throughout:")
m = MATRICES
print("  T == U S^-1:", m["T"] == m["U"] * m["S"].inverse())
print("  A^3 == -identity:", m["A"] ** 3 == m["sigma"])
print()

print("Fay identity after clearing X1 X2 (X1-X2) Y1 Y2 (Y1+Y2):")
print("  bare pole part -(1/X + 1/Y)/2:", fay_check(None, 8, 6))
print("  full Kronecker function:      ", fay_check(kronecker_b1(8, 10), 8, 10))
print()

print("Bi-period membership (killed by 1+U+U^2, 1+S, 1-epsilon):")
from doubleeis import wplus_check

print("  (1/X1 + 1/Y1)(1/X2 + 1/Y2):", wplus_check(kronecker_wplus_candidate(None, 6), 6, 4))
print("  two-point Kronecker product:", kronecker_wplus_check(6, 8))
