"""The structural maps between the two formal spaces.

``map_pi`` projects Eisenstein elements onto zeta elements, ``map_sigma``
splits it in the opposite direction, and ``map_partial`` raises the weight
by two.  All three are linear and kill the defining relation rows of their
source space; pi and partial are defined on the G-generators, and extend to
P-generators through :func:`doubleeis.spaces.stuffle_expansion`, the one
harmonic product that also gives the relation rows and the unique choice
compatible with linearity modulo relations.  Each image is cached as a
tuple, and an element's image is their linear extension by
:func:`.elements.linear_extension`, which the Kronecker realization shares.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .elements import EISENSTEIN, ZETA, FormalElement, G1, G2, GP, GenId, Z1, Z2, linear_extension
from .spaces import stuffle_expansion


def _apply(image, element: FormalElement, space: str) -> FormalElement:
    """The linear extension of a per-generator image, in the target space.

    Images of generators of one weight share one weight, so the result
    needs no further check.
    """
    terms = linear_extension(image, element._terms.items())
    if not terms:
        return FormalElement.zero(space)
    return FormalElement._make(space, next(iter(terms)).weight, terms)


@cache
def _pi_gen(gen: GenId) -> tuple[tuple[GenId, Fraction], ...]:
    if gen.kind == "G1":
        k, d = gen.args
        out = []
        if d == 0:
            out.append((Z1(k), Fraction(1)))
        if k == 1:
            out.append((Z1(d + 1), Fraction(factorial(d))))
        return tuple(out)
    if gen.kind == "G2":
        k1, k2, d1, d2 = gen.args
        out = []
        if d1 == 0 and d2 == 0:
            out.append((Z2(k1, k2), Fraction(1)))
        if k1 == 1 and k2 == 1:
            for a in range(max(1, d2 + 1), d1 + d2 + 2):
                b = d1 + d2 + 2 - a
                c = Fraction(factorial(d1) * factorial(a - 1), factorial(a - 1 - d2))
                out.append((Z2(a, b), c))
        return tuple(out)
    # P-generators map through their harmonic-product expansion
    return tuple((h, c * w) for g, c in stuffle_expansion(*gen.args) for h, w in _pi_gen(g))


def map_pi(element: FormalElement) -> FormalElement:
    """Project an Eisenstein-space element onto the zeta space."""
    if element.space not in (None, EISENSTEIN):
        raise ValueError("map_pi expects an Eisenstein-space element")
    return _apply(_pi_gen, element, ZETA)


@cache
def _sigma_gen(gen: GenId) -> tuple[tuple[GenId, Fraction], ...]:
    half = Fraction(1, 2)
    if gen.kind == "Z1":
        (k,) = gen.args
        out = [(G1(k, 0), Fraction(1))]
        if k == 2:
            out.append((G1(2, 0), Fraction(-1)))
        return tuple(out)
    if gen.kind == "Z2":
        k1, k2 = gen.args
        out = [(G2(k1, k2, 0, 0), Fraction(1))]
        if k2 == 1:
            out.append((G1(k1, 1), half))
        if k1 == 1:
            out.append((G1(k2, 1), -half))
        if k1 == 2:
            out.append((G1(k2 + 1, 1), half))
        return tuple(out)
    k1, k2 = gen.args
    out = [(GP(k1, k2, 0, 0), Fraction(1))]
    if k1 == 2:
        out.append((G1(k2 + 1, 1), half))
    if k2 == 2:
        out.append((G1(k1 + 1, 1), half))
    if k1 == 1 and k2 == 1:
        out.append((G1(2, 0), Fraction(-1)))
    return tuple(out)


def map_sigma(element: FormalElement) -> FormalElement:
    """Lift a zeta-space element into the Eisenstein space (splits map_pi for weight >= 3)."""
    if element.space not in (None, ZETA):
        raise ValueError("map_sigma expects a zeta-space element")
    return _apply(_sigma_gen, element, EISENSTEIN)


@cache
def _partial_gen(gen: GenId) -> tuple[tuple[GenId, Fraction], ...]:
    if gen.kind == "G1":
        k, d = gen.args
        return ((G1(k + 1, d + 1), Fraction(k)),)
    if gen.kind == "G2":
        k1, k2, d1, d2 = gen.args
        return (
            (G2(k1 + 1, k2, d1 + 1, d2), Fraction(k1)),
            (G2(k1, k2 + 1, d1, d2 + 1), Fraction(k2)),
        )
    return tuple((h, c * w) for g, c in stuffle_expansion(*gen.args) for h, w in _partial_gen(g))


def map_partial(element: FormalElement) -> FormalElement:
    """The weight-raising derivation, matching q d/dq under realization."""
    if element.space not in (None, EISENSTEIN):
        raise ValueError("map_partial expects an Eisenstein-space element")
    return _apply(_partial_gen, element, EISENSTEIN)
