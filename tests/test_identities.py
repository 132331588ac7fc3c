import hashlib
from fractions import Fraction

import pytest

from doubleeis.elements import EISENSTEIN, FormalElement, G1, G2, GP
from doubleeis.identities import (
    identity_report,
    mfprod_i,
    mfprod_ii,
    parity_expression,
    ramanujan,
    ramanujan_printed_g4,
    relprodandg,
    sum_formula,
)
from doubleeis.kronecker import realize_element
from doubleeis.spaces import enumerate_generators, is_zero_in_space, normal_form


def test_sum_formula_weight_two():
    e = sum_formula(2, 0)
    assert e == FormalElement([(G1(2, 0), -1), (G1(1, 1), 1)])
    assert is_zero_in_space(e)


def test_sum_formula_weight_three():
    e = sum_formula(3, 0)
    assert e == FormalElement([(G2(2, 1, 0, 0), 1), (G1(3, 0), -1), (G1(2, 1), 1)])
    assert is_zero_in_space(e)


def test_sum_formula_with_derivatives():
    e = sum_formula(2, 1)
    assert e.coefficient(G1(1, 2)) == Fraction(1, 2)
    assert is_zero_in_space(e)


def test_sum_formula_range_reduces():
    for k in range(2, 8):
        for d in range(8 - k):
            assert is_zero_in_space(sum_formula(k, d))


def test_sum_formula_realizes_to_zero():
    for k, d in [(2, 0), (3, 1), (4, 2), (5, 0)]:
        assert not realize_element(sum_formula(k, d), 25)


def test_sum_formula_validation():
    with pytest.raises(ValueError):
        sum_formula(1, 0)


def test_parity_examples():
    assert is_zero_in_space(parity_expression(1, 1, 1, 0))
    e = parity_expression(2, 1, 0, 0)
    assert is_zero_in_space(e)
    # the extracted combination involves no depth-two generator
    assert all(g.kind != "G2" for g in (e - FormalElement.single(G2(2, 1, 0, 0))).generators())


def test_parity_all_depth_two_weight_five():
    for gen in enumerate_generators(EISENSTEIN, 5):
        if gen.kind == "G2":
            assert is_zero_in_space(parity_expression(*gen.args))


def test_parity_realizes_to_zero():
    for gen in enumerate_generators(EISENSTEIN, 5):
        if gen.kind == "G2":
            assert not realize_element(parity_expression(*gen.args), 20)


#: sha256 over "<gen> -> <parity expression>" lines for every G2 generator of
#: odd weights 3..11, in enumeration order (420 lines)
PARITY_EXPRESSIONS_SHA256 = "7752a54740a73a100cdd9ec184e202a6f1e7d08e85d6c343acdeeff2d9d8e062"


def test_parity_expressions_match_their_digest():
    h = hashlib.sha256()
    lines = 0
    for weight in range(3, 12, 2):
        for gen in enumerate_generators(EISENSTEIN, weight):
            if gen.kind == "G2":
                h.update(f"{gen} -> {parity_expression(*gen.args).to_text()}\n".encode())
                lines += 1
    assert lines == 420
    assert h.hexdigest() == PARITY_EXPRESSIONS_SHA256


def test_parity_rejects_even_weight():
    with pytest.raises(ValueError):
        parity_expression(1, 1, 0, 0)


def test_parity_projects_to_zeta_relation():
    # the (0,0) instances push forward to valid zeta-space relations
    from doubleeis.maps import map_pi

    for k1, k2 in [(1, 2), (2, 1), (2, 3), (4, 1)]:
        image = map_pi(parity_expression(k1, k2, 0, 0))
        assert is_zero_in_space(image)


def test_relprodandg_weight_four():
    e = relprodandg(1, 3)
    assert e == FormalElement(
        [(G1(4, 0), Fraction(5, 2)), (GP(2, 2, 0, 0), -1), (G1(3, 1), -1)]
    )
    assert is_zero_in_space(e)


def test_relprodandg_weight_six_instance():
    e = relprodandg(1, 5)
    assert e == FormalElement(
        [(G1(6, 0), Fraction(7, 2)), (GP(2, 4, 0, 0), -1), (GP(4, 2, 0, 0), -1), (G1(5, 1), -1)]
    )
    assert is_zero_in_space(e)


def test_relprodandg_mixed_binomial():
    assert is_zero_in_space(relprodandg(2, 2))


def test_relprodandg_validation():
    with pytest.raises(ValueError):
        relprodandg(1, 2)
    with pytest.raises(ValueError):
        relprodandg(1, 1)


def test_mfprod_i():
    assert mfprod_i(4) == FormalElement(
        [(G1(3, 1), 1), (G1(4, 0), Fraction(-5, 2)), (GP(2, 2, 0, 0), 1)]
    )
    for k in (4, 6, 8):
        assert is_zero_in_space(mfprod_i(k))


def test_mfprod_ii_small():
    # at k = 6 the left side has the factor k - 6 = 0: a pure product relation
    e = mfprod_ii(6)
    assert e.coefficient(G1(6, 0)) == 0
    assert is_zero_in_space(e)


def test_mfprod_ii_reproduces_eisenstein_products():
    assert is_zero_in_space(mfprod_ii(8))
    assert is_zero_in_space(mfprod_ii(10))
    assert is_zero_in_space(
        FormalElement([(G1(8, 0), 1), (GP(4, 4, 0, 0), Fraction(-6, 7))])
    )
    assert is_zero_in_space(
        FormalElement([(G1(10, 0), 1), (GP(4, 6, 0, 0), Fraction(-10, 11))])
    )


def test_ramanujan_equations():
    for which in ("G2", "G4", "G6"):
        element, series = ramanujan(which, 25)
        assert is_zero_in_space(element)
        assert not series


def test_ramanujan_realized_series_shape(kron50):
    from doubleeis.eisenstein import derived_eisenstein, eisenstein_qexp

    _, series = ramanujan("G2", 30)
    g2 = eisenstein_qexp(2, 30)
    g4 = eisenstein_qexp(4, 30)
    direct = derived_eisenstein(2, 1, 30) - g4 * 5 + g2 * g2 * 2
    assert not direct  # the classical equation itself
    assert series == direct


def test_ramanujan_printed_variant_fails():
    element, series = ramanujan_printed_g4(20)
    assert not is_zero_in_space(element)
    assert series
    # realized constant term: -8 * (-1/60480) + 14 * (-1/34560) = -11/40320
    assert series.coefficient(0) == Fraction(-11, 40320)


def test_ramanujan_unknown_name():
    with pytest.raises(ValueError):
        ramanujan("G8")


def test_identity_report():
    report = identity_report("sum-formula", {"k": 3, "d": 0}, sum_formula(3, 0), 20)
    assert report["reduced_to_zero"] is True
    assert report["realized_zero_to_order"] == 20
    assert ["1", "G(2;1)"] in report["element"]
    bad, _ = ramanujan_printed_g4(15)
    report = identity_report("ramanujan-printed", {}, bad, 15)
    assert report["reduced_to_zero"] is False
    assert report["realized_zero_to_order"] is None
