"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Everything here is exact rational arithmetic; no tolerances beyond the
stated truncation orders.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import time
from fractions import Fraction
from math import comb, factorial

import pytest

from doubleeis.eisenstein import bernoulli, recognize_quasimodular
from doubleeis.elements import EISENSTEIN, ZETA, FormalElement, G1, G2, GP, Z1, Z2, ZP
from doubleeis.identities import (
    mfprod_ii,
    parity_expression,
    ramanujan,
    ramanujan_printed_g4,
    relprodandg,
    sum_formula,
)
from doubleeis.kronecker import (
    KroneckerRealization,
    check_derivation_diagram,
    closed_form_depth2,
    fay_check,
    realize_bernoulli,
    symbolic_b1,
)
from doubleeis.maps import map_partial, map_pi, map_sigma
from doubleeis.spaces import (
    RelationSystem,
    eisenstein_relations,
    enumerate_generators,
    is_zero_in_space,
    relation_system,
    zeta_relations,
)

EISENSTEIN_DIMENSIONS = (1, 2, 5, 8, 15, 22, 35, 48, 69, 90, 121, 152)


def report(number: int, ok: bool, description: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_eisenstein_dimension_table():
    start = time.monotonic()
    dims = tuple(RelationSystem.build("E", w).dimension for w in range(1, 13))
    elapsed = time.monotonic() - start
    ok = dims == EISENSTEIN_DIMENSIONS and elapsed < 120.0
    report(1, ok, f"dim table K=1..12 = {dims} computed fresh in {elapsed:.1f}s (< 120s)")


def test_criterion_02_zeta_dimension_formula():
    dims = [relation_system("Z", k).dimension for k in range(1, 21)]
    ok = dims == [(k + 1) // 2 for k in range(1, 21)]
    report(2, ok, "dim of the zeta space is floor((k+1)/2) for k = 1..20")


def test_criterion_03_map_well_definedness():
    ok = True
    for weight in range(2, 11):
        for row in eisenstein_relations(weight):
            ok &= is_zero_in_space(map_pi(row))
            ok &= is_zero_in_space(map_partial(row))
    for weight in range(2, 13):
        for row in zeta_relations(weight):
            ok &= is_zero_in_space(map_sigma(row))
    for weight in range(3, 13):
        for gen in enumerate_generators(ZETA, weight):
            e = FormalElement.single(gen)
            ok &= is_zero_in_space(map_pi(map_sigma(e)) - e)
    report(3, ok, "pi, partial and sigma kill relation rows; pi o sigma = id for 3 <= k <= 12")


def test_criterion_04_fay_identity():
    ok_kronecker = fay_check(symbolic_b1(8), 8, 20)
    ok_polar = fay_check(None, 8, 20)
    report(4, ok_kronecker and ok_polar,
           "Fay identity at degree 8, q-order 20 for the Kronecker function and its pole part")


def test_criterion_05_closed_form_consistency(kron50):
    ok = True
    for k in range(2, 13, 2):
        for k1 in range(1, k):
            extracted = kron50.value(G2(k1, k - k1, 0, 0)).truncate(30)
            ok &= extracted == closed_form_depth2(k1, k - k1, 30)
    report(5, ok, "depth-two extraction equals the closed form for all even k1+k2 <= 12, order 30")


def test_criterion_06_realization_kills_relations(kron50):
    ok = True
    for weight in range(2, 13, 2):
        for row in eisenstein_relations(weight):
            value = kron50.element_value(row)
            ok &= not value.truncate(30)
    report(6, ok, "every relation row of even weight <= 12 realizes to the zero series at order 30")


def test_criterion_07_quasimodularity(kron50):
    ok = True
    for k in range(2, 13, 2):
        for k1 in range(1, k):
            series = kron50.value(G2(k1, k - k1, 0, 0)).truncate(30)
            ok &= recognize_quasimodular(series, k) is not None
    report(7, ok, "realized depth-two values are quasimodular for all even weights <= 12")


def _verify_family(instances, kron):
    for element in instances:
        if not is_zero_in_space(element):
            return False
        if kron.element_value(element):
            return False
    return True


def test_criterion_08_identity_families(kron50):
    ok = True

    sums = [sum_formula(k, d) for k in range(2, 11) for d in range(11 - k)]
    ok &= _verify_family(sums, kron50)

    parities = [
        parity_expression(*gen.args)
        for weight in (3, 5, 7, 9)
        for gen in enumerate_generators(EISENSTEIN, weight)
        if gen.kind == "G2"
    ]
    ok &= _verify_family(parities, kron50)

    products = [
        relprodandg(k1, k - k1) for k in range(4, 13, 2) for k1 in range(1, k)
    ]
    ok &= _verify_family(products, kron50)

    displays = [
        FormalElement([(G1(8, 0), 1), (GP(4, 4, 0, 0), Fraction(-6, 7))]),
        FormalElement([(G1(10, 0), 1), (GP(4, 6, 0, 0), Fraction(-10, 11))]),
    ]
    ok &= _verify_family([mfprod_ii(8), mfprod_ii(10)] + displays, kron50)

    report(8, ok,
           "sum formula (k+d <= 10), parity (odd <= 9), product relations (k <= 12) and the"
           " weight 8/10 Eisenstein products all reduce and realize to zero at order 50")


def test_criterion_09_ramanujan(kron50):
    ok = True
    for which in ("G2", "G4", "G6"):
        element = ramanujan(which)
        ok &= is_zero_in_space(element)
        ok &= not kron50.element_value(element)
    bad_element = ramanujan_printed_g4()
    bad_series = kron50.element_value(bad_element)
    ok &= not is_zero_in_space(bad_element)
    ok &= bool(bad_series)
    report(9, ok, "the three differential equations hold at order 50; the misprinted variant fails both checks")


def test_criterion_10_derivation_diagram():
    ok = all(check_derivation_diagram(weight, 30) for weight in range(1, 9))
    report(10, ok, "q d/dq intertwines the realization with the weight-raising map for K <= 8, order 30")


def test_criterion_11_bernoulli_realization():
    ok = True
    for k in range(2, 13, 2):
        ok &= realize_bernoulli(G1(k, 0)) == -bernoulli(k) / (2 * factorial(k))

    # pull back along sigma and check both defining rows of the zeta space in Q
    bern = KroneckerRealization(0)

    def value(gen):
        image = map_sigma(FormalElement.single(gen))
        out = Fraction(0)
        for g, c in image.terms():
            out += c * bern.value(g).coefficient(0)
        return out

    for k in range(2, 11):
        vz = {j: value(Z2(j, k - j)) for j in range(1, k)}
        vk = value(Z1(k))
        for k1 in range(1, k):
            k2 = k - k1
            vp = value(ZP(k1, k2))
            ok &= vp == vz[k1] + vz[k2] + vk
            ok &= vp == sum(
                (comb(j - 1, k1 - 1) + comb(j - 1, k2 - 1)) * vz[j] for j in range(1, k)
            )
    report(11, ok, "constant terms give -B_k/(2 k!) and satisfy both defining rows of the zeta space")
