"""Constructors for the named relation families of the Eisenstein space.

Every constructor returns a :class:`FormalElement` asserting ``= 0``; the
two available oracles are reduction to the normal form zero and realization
to the zero q-series.  The parity family is extracted from a group-ring
identity between the depth-two generating series and the depth-one /
product series, evaluated here on series whose coefficients are rational
combinations of generators (:func:`generating_series`), each read off as a
checked :class:`FormalElement`; its right side is the group-ring form
:func:`.kronecker.double_shuffle_form` that also gives b2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb
from typing import Iterable

from .action import GroupRingElem, MATRICES
from .elements import EISENSTEIN, Combination, FormalElement, G1, G2, GP, GenId, generating_monomial
from .kronecker import double_shuffle_form, realize_element
from .multipoly import MultiPoly
from .spaces import enumerate_generators, is_zero_in_space


def sum_formula(k: int, d: int) -> FormalElement:
    """The sum formula in weight k + d:

        sum_{k1+k2=k, d1+d2=d, (k1,d2) != (1,0)} (-1)^d2 C(d,d2) G(k1,k2;d1,d2)
            - G(k;d) + 1/(d+1) G(k-1;d+1)  = 0.
    """
    if k < 2 or d < 0:
        raise ValueError("the sum formula needs k >= 2 and d >= 0")
    terms: list[tuple[GenId, Fraction]] = []
    for k1 in range(1, k):
        for d2 in range(d + 1):
            if k1 == 1 and d2 == 0:
                continue
            c = Fraction((-1) ** d2 * comb(d, d2))
            terms.append((G2(k1, k - k1, d - d2, d2), c))
    terms.append((G1(k, d), Fraction(-1)))
    terms.append((G1(k - 1, d + 1), Fraction(1, d + 1)))
    return FormalElement(terms)


# -- parity -------------------------------------------------------------------

def generating_series(gens: Iterable[GenId]) -> MultiPoly:
    """The generating series of ``gens``: each generator over its factorial, a
    :class:`.elements.Combination`, at its monomial (:func:`.elements.generating_monomial`)."""
    terms = {}
    for gen in gens:
        exps, scale = generating_monomial(gen)
        terms[exps] = Combination({gen: Fraction(1, scale)})
    return MultiPoly(terms, None)


@cache
def _parity_rhs(weight: int) -> MultiPoly:
    """The depth-one / product side of the parity identity for one odd weight.

    Both defining rows express the epsilon- and conjugated-epsilon images of
    the depth-two series through depth-one and product series; iterating the
    order-three element A = epsilon U epsilon three times telescopes to

        G2 | (1 - sigma) = (P | (1 - T^-1 epsilon) - R* + Rsh | T^-1 epsilon)
                           | (1 + A + A^2),

    and (1 - sigma) doubles every coefficient in odd weight.
    """
    a = GroupRingElem.matrix(MATRICES["A"])
    cyclic = 1 + a + a * a
    tinv_eps = GroupRingElem.matrix(MATRICES["T"].inverse() * MATRICES["epsilon"])
    gens = enumerate_generators(EISENSTEIN, weight)
    return double_shuffle_form((1 - tinv_eps) * cyclic, -cyclic, tinv_eps * cyclic,
                               generating_series(g for g in gens if g.kind == "GP"),
                               generating_series(g for g in gens if g.kind == "G1"))


def parity_expression(k1: int, k2: int, d1: int, d2: int) -> FormalElement:
    """Rewrite an odd-weight depth-two generator in depth-one and product terms.

    Returns G(k1,k2;d1,d2) minus the extracted combination, a relation that
    reduces to zero.  Raises for even total weight, where the identity's
    left side vanishes instead of doubling.
    """
    weight = k1 + k2 + d1 + d2
    if weight % 2 == 0:
        raise ValueError("parity expressions exist in odd weight only")
    if weight < 3 or min(k1, k2) < 1 or min(d1, d2) < 0:
        raise ValueError("need k1, k2 >= 1, d1, d2 >= 0 and weight >= 3")
    gen = G2(k1, k2, d1, d2)
    exps, scale = generating_monomial(gen)
    combo = FormalElement(_parity_rhs(weight).coefficient(exps) or ()) * Fraction(scale, 2)
    if any(g.kind == "G2" for g in combo.generators()):
        raise AssertionError("parity extraction produced a depth-two term")
    return FormalElement.single(gen) - combo


# -- products against depth one ----------------------------------------------

def relprodandg(k1: int, k2: int) -> FormalElement:
    """The even-weight coefficient identity relating G(k;0), G(k-1;1) and products:

        (1/2)(C(k,k2) - (-1)^k1) G(k;0)
          = sum_{j even} (C(k-j-1,k1-1) + C(k-j-1,k2-1) - delta_{j,k1}) P(j,k-j;0,0)
          + (1/2)(C(k-3,k1-1) + C(k-3,k2-1) + delta_{k1,1} + delta_{k2,1}) G(k-1;1),

    returned as left side minus right side.
    """
    k = k1 + k2
    if min(k1, k2) < 1 or k < 4 or k % 2:
        raise ValueError("need k1, k2 >= 1 with even k1 + k2 >= 4")
    terms: list[tuple[GenId, Fraction]] = [
        (G1(k, 0), Fraction(comb(k, k2) - (-1) ** k1, 2))
    ]
    for j in range(2, k - 1, 2):
        c = comb(k - j - 1, k1 - 1) + comb(k - j - 1, k2 - 1) - (1 if j == k1 else 0)
        if c:
            terms.append((GP(j, k - j, 0, 0), Fraction(-c)))
    c = Fraction(comb(k - 3, k1 - 1) + comb(k - 3, k2 - 1) + (k1 == 1) + (k2 == 1), 2)
    if c:
        terms.append((G1(k - 1, 1), -c))
    return FormalElement(terms)


def mfprod_i(k: int) -> FormalElement:
    """G(k-1;1) = (k+1)/2 G(k;0) - sum of even products; the k1 = 1 instance
    of :func:`relprodandg` solved for G(k-1;1)."""
    if k < 4 or k % 2:
        raise ValueError("need even k >= 4")
    return -relprodandg(1, k - 1)


def mfprod_ii(k: int) -> FormalElement:
    """(k+1)(k-1)(k-6)/12 G(k;0) = sum (k1-1)(k2-1) P(k1,k2;0,0) over even
    k1, k2 >= 4; assembled as k-3 times the (k-2, 2) instance minus twice
    the (k-3, 3) instance of :func:`relprodandg`."""
    if k < 6 or k % 2:
        raise ValueError("need even k >= 6")
    return relprodandg(k - 2, 2) * (k - 3) - relprodandg(k - 3, 3) * 2


# -- Ramanujan's differential equations ----------------------------------------

RAMANUJAN_ELEMENTS = {
    "G2": [(G1(3, 1), 2), (G1(4, 0), -5), (GP(2, 2, 0, 0), 2)],
    "G4": [(G1(5, 1), 4), (G1(6, 0), -14), (GP(2, 4, 0, 0), 8)],
    "G6": [(G1(7, 1), 6), (GP(4, 4, 0, 0), Fraction(-120, 7)), (GP(2, 6, 0, 0), 12)],
}


def ramanujan(which: str) -> FormalElement:
    """One of the three differential equations as a formal relation.

    Under realization the three elements become q d/dq G_2 - 5 G_4 + 2 G_2^2,
    q d/dq G_4 - 14 G_6 + 8 G_2 G_4 and q d/dq G_6 - 120/7 G_4^2 + 12 G_2 G_6.
    """
    try:
        return FormalElement(RAMANUJAN_ELEMENTS[which])
    except KeyError:
        raise ValueError(f"unknown equation {which!r}; choose G2, G4 or G6") from None


def ramanujan_printed_g4() -> FormalElement:
    """The weight-6 display with the 8 and 14 swapped; a negative control
    whose realization has a nonzero constant term."""
    return FormalElement([(G1(5, 1), 4), (G1(6, 0), -8), (GP(2, 4, 0, 0), 14)])


# -- reporting ------------------------------------------------------------------

def identity_report(name: str, params: dict, element: FormalElement, q_order: int,
                    cache_dir=None) -> dict:
    """Run both oracles on one identity instance and summarize as JSON data."""
    reduced = is_zero_in_space(element, cache_dir=cache_dir) if element else True
    realized = realize_element(element, q_order)
    return {
        "name": name,
        "params": params,
        "element": [[str(c), str(g)] for g, c in element.terms()],
        "reduced_to_zero": reduced,
        "realized_zero_to_order": q_order if not realized else None,
    }
