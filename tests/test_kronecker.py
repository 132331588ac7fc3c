import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleeis import eisenstein, kronecker
from doubleeis.action import GroupRingElem, MATRICES, act, act_group_ring
from doubleeis.eisenstein import (
    certified_order,
    derived_eisenstein,
    eisenstein_qexp,
    evaluate_atoms,
    quasimodular_monomials,
    recognize_quasimodular,
)
from doubleeis.elements import EISENSTEIN, Combination, FormalElement, G1, G2, GP, Z1
from doubleeis.kronecker import (
    KroneckerRealization,
    build_b2,
    check_derivation_diagram,
    closed_form_depth2,
    fay_check,
    fay_numerator,
    kronecker_b1,
    kronecker_wplus_candidate,
    pair_product,
    realize_bernoulli,
    realize_element,
    realize_kronecker,
    symbolic_b1,
    wplus_check,
)
from doubleeis.multipoly import X1, X2, Y1, Y2, MultiPoly, divided_difference
from doubleeis.series import QSeries
from doubleeis.spaces import _rref, eisenstein_relations, enumerate_generators, normal_form, stuffle_row

M = MATRICES
X1MX2, X1PX2, Y1MY2, Y1PY2 = (1, -1, 0, 0), (1, 1, 0, 0), (0, 0, 1, -1), (0, 0, 1, 1)


def _symbolic_b2(degree: int) -> MultiPoly:
    """The symbolic b2 through total degree ``degree``: the union of its cached pieces."""
    return MultiPoly({k: c for n in range(degree + 1) for k, c in kronecker._b2_piece(n)._t.items()}, degree)


def _pole_free_cleared(regular: MultiPoly, degree: int) -> MultiPoly:
    """X1 Y1 times ``regular`` kept through ``degree``: the cleared C of
    :func:`fay_check` without the pole."""
    return MultiPoly.monomial((1, 0, 1, 0), Fraction(1)) * regular.truncate(degree)


def test_table_entries():
    t = kronecker_b1(6, 10)
    assert t.coefficient((1, 0, 0, 0)) * factorial(0) == eisenstein_qexp(2, 10)
    assert t.coefficient((2, 0, 1, 0)) * factorial(1) == derived_eisenstein(2, 1, 10) * Fraction(1, 2)
    assert t.coefficient((1, 0, 1, 0)) is None
    assert t.coefficient((0, 0, 1, 0)) * factorial(1) == eisenstein_qexp(2, 10)
    assert t.coefficient((0, 0, 3, 0)) * factorial(3) == derived_eisenstein(4, 0, 10) * 6  # |r-s|!/r! = 3!


def test_table_only_odd_entries():
    t = kronecker_b1(7, 5)
    assert all((r + s) % 2 == 1 for (r, _, s, _) in t._t)


def test_table_depth_one_consistency():
    # entry (k-1, d) with d <= k-1 is (k-d-1)!/(k-1)! (q d/dq)^d G_{k-d}
    t = kronecker_b1(9, 8)
    for k in range(1, 10):
        for d in range(min(k, 10 - k)):
            expected = derived_eisenstein(k - d, d, 8) * Fraction(
                factorial(k - d - 1), factorial(k - 1)
            ) if (k - d) % 2 == 0 else None
            if (k - 1 + d) % 2 == 1:
                assert t.coefficient((k - 1, 0, d, 0)) * factorial(d) == expected
            else:
                assert t.coefficient((k - 1, 0, d, 0)) is None


def test_q_derivative_equals_mixed_partial():
    # q d/dq of the table equals d/dX d/dY applied to it, entry by entry
    t = kronecker_b1(8, 10)
    lhs = t.map_coefficients(lambda s: s.qderive()).truncate(6)
    rhs = t.partial(0).partial(2).truncate(6)
    assert lhs == rhs


def test_build_b2_requires_odd_table():
    bad = MultiPoly({(1, 0, 1, 0): QSeries.constant(1, 4)}, 5)
    with pytest.raises(ValueError):
        build_b2(bad, 4)


def test_build_b2_requires_degree_margin():
    t = kronecker_b1(4, 4)
    with pytest.raises(ValueError):
        build_b2(t, 4)


def test_b2_solves_the_double_shuffle_system():
    n_order = 10
    b1 = kronecker_b1(7, n_order)
    degree = 6
    b2 = build_b2(b1, degree)
    p = pair_product(b1, degree)
    eps = GroupRingElem.matrix(M["epsilon"])
    t = GroupRingElem.matrix(M["T"])
    rstar = divided_difference(b1, "star").truncate(degree)
    rshuffle = divided_difference(b1, "shuffle").truncate(degree)
    assert p == act_group_ring(1 + eps, b2) + rstar
    assert p == act_group_ring(t * (1 + eps), b2) + rshuffle


def test_b2_zero_input():
    assert not build_b2(MultiPoly.zero(None), 4)


def test_b2_q_derivative_equals_pairing_operator():
    b2 = _symbolic_b2(6).truncate(6).map_coefficients(lambda c: evaluate_atoms(c.items(), 8))
    lhs = b2.map_coefficients(lambda s: s.qderive()).truncate(4)
    rhs = (b2.partial(0).partial(2) + b2.partial(1).partial(3)).truncate(4)
    assert lhs == rhs


def _forms_product(forms) -> MultiPoly:
    p = MultiPoly.monomial((0, 0, 0, 0), Fraction(1))
    for form in forms:
        p = p * MultiPoly.from_form(form)
    return p


def _cleared_image(elem, numerator, target) -> MultiPoly:
    """The numerator of (numerator / (X1 X2 Y1 Y2))|elem over the product of the
    linear forms ``target``: a matrix sends X1 X2 Y1 Y2 to the product of its
    four images, each of which must be a form of ``target`` up to sign."""
    total = MultiPoly.zero(None)
    for coeff, matrix in elem.terms:
        rest, sign = list(target), coeff
        for image in matrix.images():
            if image not in rest:
                image, sign = tuple(-c for c in image), -sign
            rest.remove(image)
        total = total + act(matrix, numerator) * _forms_product(rest) * sign
    return total


#: the images of X1 X2 Y1 Y2 under 1, epsilon, T^-1 and T^-1 epsilon, or under
#: 1, epsilon, T and T epsilon, divide the product of these forms up to sign
_OVER_TINV = (X1, X2, X1MX2, Y1, Y2, Y1PY2)
_OVER_T = (X1, X2, X1PX2, Y1, Y2, Y1MY2)

_BETA_B1 = kronecker_b1(7, 8)
_BETA_DEGREE = 5


def _beta_correction_identities(beta, b1=_BETA_B1, degree=_BETA_DEGREE) -> tuple[bool, bool]:
    # beta|(1+eps) = 3 R* + pol|(1 - T^-1 - T^-1 eps)
    # beta|T(1+eps) = 3 Rsh + pol|(1 - T - T eps)
    # pol = -(1/2)[(1/X2 + 1/Y2) b1(X1;Y1) + (1/X1 + 1/Y1) b1(X2;Y2)] is the
    # cross term of the two-point product f(X1;Y1) f(X2;Y2), f = pole + b1,
    # here its numerator over X1 X2 Y1 Y2; each identity is compared on
    # numerators over the product of _OVER_TINV or _OVER_T
    pol = (
        kronecker_wplus_candidate(b1, degree)
        - kronecker_wplus_candidate(None, degree)
        - pair_product(b1) * _forms_product((X1, X2, Y1, Y2))
    )
    eps = GroupRingElem.matrix(M["epsilon"])
    t = GroupRingElem.matrix(M["T"])
    tinv = GroupRingElem.matrix(M["T"].inverse())
    rstar = divided_difference(b1, "star").truncate(degree)
    rshuffle = divided_difference(b1, "shuffle").truncate(degree)

    lhs = act_group_ring(1 + eps, beta)
    rhs_pol = _cleared_image(1 - tinv - tinv * eps, pol, _OVER_TINV)
    first = (lhs - rstar * 3) * _forms_product(_OVER_TINV) == rhs_pol

    lhs = act_group_ring(t * (1 + eps), beta)
    rhs_pol = _cleared_image(1 - t - t * eps, pol, _OVER_T)
    second = (lhs - rshuffle * 3) * _forms_product(_OVER_T) == rhs_pol
    return first, second


def _beta(b1=_BETA_B1, degree=_BETA_DEGREE) -> MultiPoly:
    # the correction series of b2 = (1/3) P|(1 + T^-1) - (1/3) beta
    tinv = GroupRingElem.matrix(M["T"].inverse())
    return act_group_ring(1 + tinv, pair_product(b1, degree)) - build_b2(b1, degree) * 3


def test_beta_correction_identities():
    assert _beta_correction_identities(_beta()) == (True, True)


@pytest.mark.parametrize("key", [(1, 0, 0, 0), (2, 0, 1, 0), (2, 1, 1, 1)])
def test_beta_correction_identities_fail_with_a_perturbed_term(key):
    # degrees 1, 3 and 5: each identity is compared through degree 5
    beta = _beta()
    bad = beta + MultiPoly({key: QSeries.constant(1, 8)}, beta.cap)
    assert _beta_correction_identities(bad) == (False, False)


def test_polar_solution_of_the_system():
    # for a candidate in the bi-period space, a third of its (1 + T^-1) image
    # reproduces it under both symmetrizations; b2 = p~|(1 + T^-1) / 3, so by
    # the right action law b2|g = p~|(1 + T^-1) g / 3, compared on numerators
    p_tilde = kronecker_wplus_candidate(None, 3)
    third = Fraction(1, 3)
    to_b2 = 1 + GroupRingElem.matrix(M["T"].inverse())
    eps = GroupRingElem.matrix(M["epsilon"])
    t = GroupRingElem.matrix(M["T"])
    one = GroupRingElem.scalar(1)
    assert _cleared_image(to_b2 * (1 + eps), p_tilde, _OVER_TINV) * third == _cleared_image(one, p_tilde, _OVER_TINV)
    assert _cleared_image(to_b2 * t * (1 + eps), p_tilde, _OVER_T) * third == _cleared_image(one, p_tilde, _OVER_T)


def test_fay_polar_only():
    assert fay_check(None, 8)


def test_fay_kronecker():
    assert fay_check(kronecker_b1(6, 8), 6)


def test_fay_perturbed_fails():
    bad = MultiPoly({(1, 0, 0, 0): Fraction(1)}, None)
    assert not fay_check(bad, 6)


def test_fay_regular_part_alone_fails():
    without_pole = _pole_free_cleared(kronecker_b1(6, 6), 6)
    assert not kronecker._vanishes(fay_numerator(pair_product(without_pole)))


# -- the Fay sum as the 1 + U + U^2 condition of the bi-period space ------------

def _fay_sum_reference(c: MultiPoly) -> MultiPoly:
    """The cleared Fay sum t1 - t2 + t3 of C = ``c``, written out term by term."""
    def at(x, y):
        return c.substitute((x, X2, y, Y2))

    def term(a, b, f, g):
        return a * b * (MultiPoly.from_form(f) * MultiPoly.from_form(g))

    minus_x2, minus_y2, minus_y1py2 = (0, -1, 0, 0), (0, 0, 0, -1), (0, 0, -1, -1)
    t1 = term(c, at(X2, Y2), X1MX2, Y1PY2)
    t2 = term(at(X1MX2, minus_y2), at(X1, Y1PY2), X2, Y1)
    t3 = term(at(minus_x2, minus_y1py2), at(X1MX2, Y1), X1, Y2)
    return t1 - t2 + t3


def _assert_fay_numerator_is_the_fay_sum(c: MultiPoly):
    n = pair_product(c)
    numerator, reference = fay_numerator(n), _fay_sum_reference(c)
    assert numerator == reference and numerator.cap == reference.cap
    # negative controls: T in place of U, and the middle sign flipped
    quadratic = MultiPoly.from_form(X1MX2) * MultiPoly.from_form(Y1PY2)
    x2y1 = MultiPoly.monomial((0, 1, 1, 0), Fraction(1))
    x1y2 = MultiPoly.monomial((1, 0, 0, 1), Fraction(1))
    t, u = M["T"], M["U"]
    assert n * quadratic - act(t, n) * x2y1 + act(t * t, n) * x1y2 != reference
    assert n * quadratic + act(u, n) * x2y1 + act(u * u, n) * x1y2 != reference


@pytest.mark.parametrize("degree", [4, 6, 8])
def test_fay_numerator_is_the_written_out_fay_sum(degree):
    c = kronecker._cleared(symbolic_b1(degree), degree)
    _assert_fay_numerator_is_the_fay_sum(c)
    assert fay_numerator(pair_product(c)).cap == degree + 5


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       st.fractions(max_denominator=6).filter(bool), max_size=6),
       st.integers(2, 6))
def test_fay_numerator_is_the_fay_sum_for_rational_regular_parts(entries, degree):
    regular = MultiPoly({(r, 0, s, 0): c for (r, s), c in entries.items()}, degree)
    _assert_fay_numerator_is_the_fay_sum(kronecker._cleared(regular, degree))
    without_pole = _pole_free_cleared(regular, degree)
    assert fay_numerator(pair_product(without_pole)) == _fay_sum_reference(without_pole)


def test_s_and_epsilon_fix_the_bi_period_denominator():
    denominator = MultiPoly.monomial((1, 1, 1, 1), Fraction(1))  # X1 X2 Y1 Y2
    assert act(M["S"], denominator) == denominator
    assert act(M["epsilon"], denominator) == denominator
    assert act(M["U"], denominator) != denominator


def test_a_negative_q_order_is_refused():
    # a series of order -1 holds no coefficient; it is refused before and
    # after a higher order of the same values is cached
    for q_first in (None, 5):
        if q_first is not None:
            realize_kronecker(G1(2, 0), q_first)
        for gen in (G2(1, 2, 0, 0), G1(2, 0)):
            with pytest.raises(ValueError):
                realize_kronecker(gen, -1)
    with pytest.raises(ValueError):
        KroneckerRealization(-1)
    with pytest.raises(ValueError):
        eisenstein_qexp(4, -1)
    # control: order 0 still gives the constant term, the rational realization
    assert realize_kronecker(G1(2, 0), 0) == QSeries.constant(Fraction(-1, 24), 0)
    assert realize_bernoulli(G1(2, 0)) == Fraction(-1, 24)
    assert eisenstein_qexp(4, 0).order == 0


def test_realization_depth_one():
    assert realize_kronecker(G1(2, 0), 10) == eisenstein_qexp(2, 10)
    assert realize_kronecker(G1(1, 1), 10) == eisenstein_qexp(2, 10)
    assert not realize_kronecker(G1(1, 0), 10)
    assert realize_kronecker(G1(5, 1), 10) == derived_eisenstein(4, 1, 10) * Fraction(1, 4)


def test_realization_odd_weight_vanishes():
    ctx = KroneckerRealization(5)
    for weight in (1, 3, 5, 7, 9):
        for gen in enumerate_generators(EISENSTEIN, weight):
            assert not ctx.value(gen)


def test_realization_products():
    g4 = eisenstein_qexp(4, 12)
    assert realize_kronecker(GP(4, 4, 0, 0), 12) == g4 * g4
    # odd-weight factors vanish: P(2,2;1,1) is a product of two weight-3 values
    assert not realize_kronecker(GP(2, 2, 1, 1), 12)
    assert realize_kronecker(GP(3, 3, 1, 1), 12) == derived_eisenstein(2, 1, 12) ** 2 * Fraction(1, 4)


def test_closed_form_matches_extraction_to_weight_eight():
    ctx = KroneckerRealization(20)
    for k in range(2, 9, 2):
        for k1 in range(1, k):
            assert ctx.value(G2(k1, k - k1, 0, 0)) == closed_form_depth2(k1, k - k1, 20)


def test_closed_form_weight_two_special_case():
    assert closed_form_depth2(1, 1, 10) == eisenstein_qexp(2, 10) * Fraction(-1, 2)


def test_closed_form_rejects_odd_weight():
    with pytest.raises(ValueError):
        closed_form_depth2(1, 2, 5)


def test_realization_kills_relations_sample():
    ctx = KroneckerRealization(15)
    for weight in (2, 4, 6, 8):
        for row in eisenstein_relations(weight):
            assert not ctx.element_value(row)


def test_realization_kills_odd_weight_relations_trivially():
    ctx = KroneckerRealization(8)
    for row in eisenstein_relations(5):
        assert not ctx.element_value(row)


def test_stuffle_value_weight_four():
    # P(2,2;0,0) = 2 G(2,2;0,0) + G(4;0) forces the depth-two value
    g2 = eisenstein_qexp(2, 15)
    g4 = eisenstein_qexp(4, 15)
    assert realize_kronecker(G2(2, 2, 0, 0), 15) == (g2 * g2 - g4) * Fraction(1, 2)


def test_recognize_realized_depth_two(kron50):
    for k1, k2 in [(1, 1), (2, 2), (1, 3), (3, 5), (4, 6), (5, 7)]:
        series = kron50.value(G2(k1, k2, 0, 0)).truncate(30)
        assert recognize_quasimodular(series, k1 + k2) is not None


def test_recognize_weight_eight_eisenstein():
    series = realize_kronecker(G1(8, 0), 30)
    assert recognize_quasimodular(series, 8) == {(0, 2, 0): Fraction(6, 7)}


def test_bernoulli_realization_values():
    assert realize_bernoulli(G1(2, 0)) == Fraction(-1, 24)
    assert realize_bernoulli(G1(3, 0)) == 0
    assert realize_bernoulli(GP(4, 4, 0, 0)) == Fraction(1, 1440) ** 2
    assert realize_bernoulli(G1(4, 0)) == Fraction(1, 1440)


def test_derivation_diagram_small():
    assert check_derivation_diagram(2, 10)
    assert check_derivation_diagram(4, 10)


def test_derivation_diagram_weight_one():
    # realize(G(1;0)) = 0 and the image 1*G(2;1) realizes to q d/dq of it
    assert check_derivation_diagram(1, 10)


def test_realize_element_handles_zero():
    assert not realize_element(FormalElement.zero(), 5)


# -- the symbolic b2 and its evaluation -----------------------------------------

#: sha256 over "<gen> -> <value>" lines for every E generator of weights
#: 2..12, recorded from the former construction of b2 in q-series
#: arithmetic at each q-order.
GOLDEN_REALIZATION_DIGESTS = {
    0: "c6c7206f73543b5908908be337a7229f9dc37ff8da1337ede3c57a6e49cebda8",
    10: "37ceb8a6582fdd1aca209d18833b67f1a56d6e6c97e5273b99a29d565fffa044",
    30: "f1fd73d5dc25663b6786ff6c8409994bf9245c82afb9b15fc271cf443d95b467",
}


@pytest.mark.parametrize("q_order", sorted(GOLDEN_REALIZATION_DIGESTS))
def test_realization_matches_golden_digest(q_order):
    h = hashlib.sha256()
    for weight in range(2, 13):
        for gen in enumerate_generators(EISENSTEIN, weight):
            value = realize_kronecker(gen, q_order)
            assert value.order == q_order
            h.update(f"{gen} -> {value.to_text()}\n".encode())
    assert h.hexdigest() == GOLDEN_REALIZATION_DIGESTS[q_order]


def test_evaluated_symbolic_b2_equals_series_construction():
    evaluated = _symbolic_b2(6).truncate(6).map_coefficients(lambda c: evaluate_atoms(c.items(), 10))
    direct = build_b2(kronecker_b1(7, 10), 6)
    assert evaluated.cap == direct.cap == 6
    assert evaluated._t.keys() == direct._t.keys()
    assert evaluated == direct
    assert all(c.order == 10 for c in evaluated._t.values())


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_b2_of_a_low_degree_is_the_truncation_of_a_larger_one(degree):
    # the pair product reads b1 through degree - 1 but never below degree 0,
    # where the weight-two value G(1,1;0,0) = -G2/2 lives
    low = build_b2(symbolic_b1(degree + 1), degree)
    assert low.cap == degree
    assert low._t == _symbolic_b2(6).truncate(degree)._t


#: sha256 over "<exponents>: <sorted atom terms>" lines for the coefficients of
#: the symbolic b2 through total degree 10, in exponent order (579 lines)
SYMBOLIC_B2_SHA256 = "7d672a89cd0829d5575252d7272f9c9ca65b6dd5eea5b1ba21da741980900a25"


def test_symbolic_b2_matches_its_digest():
    b2 = _symbolic_b2(10).truncate(10)
    assert b2.cap == 10 and len(b2._t) == 579
    h = hashlib.sha256()
    for exps, c in sorted(b2._t.items()):
        h.update(f"{exps}: {sorted(c.items())}\n".encode())
    assert h.hexdigest() == SYMBOLIC_B2_SHA256


def test_symbolic_b2_has_bilinear_coefficients():
    b2 = _symbolic_b2(6)
    assert b2
    for c in b2._t.values():
        assert type(c) is Combination
        assert all(1 <= len(m) <= 2 for m in c)


def test_import_builds_nothing_and_requests_build_what_they_need():
    # a depth-two generator of weight w builds the one piece of b2 of degree
    # w - 2, from b1 through degree w - 1, and nothing below it
    code = (
        "from doubleeis import eisenstein, kronecker as k\n"
        "assert k._b2_piece.cache_info().currsize == 0 and not eisenstein._MONOMIALS\n"
        "assert k.symbolic_b1.cache_info().currsize == 0\n"
        "built, build = [], k.build_b2\n"
        "k.build_b2 = lambda b1, degree, lowest=0: built.append((b1.cap, degree, lowest)) or build(b1, degree, lowest)\n"
        "from doubleeis.elements import G2\n"
        "k.realize_kronecker(G2(2, 2, 0, 0), 10)\n"
        "assert built == [(3, 2, 2)], built\n"
        "k.realize_kronecker(G2(6, 6, 0, 0), 10)\n"
        "assert built == [(3, 2, 2), (11, 10, 10)], built\n"
        "k.realize_kronecker(G2(2, 2, 0, 0), 20)\n"
        "assert built == [(3, 2, 2), (11, 10, 10)], built\n"
        "assert k._b2_piece.cache_info().currsize == 2\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 10).flatmap(lambda w: st.sampled_from(enumerate_generators(EISENSTEIN, w))),
    st.integers(0, 39).flatmap(lambda q1: st.tuples(st.just(q1), st.integers(q1 + 1, 40))),
    st.booleans(),
)
def test_realization_truncates_consistently(gen, orders, low_first):
    # with the product-series cache emptied first, the second value is
    # evaluated from product series cached at the first call's order
    q1, q2 = orders
    eisenstein._MONOMIALS.clear()
    values = {}
    for q in (q1, q2) if low_first else (q2, q1):
        values[q] = realize_kronecker(gen, q)
    assert (values[q1].order, values[q2].order) == (q1, q2)
    assert values[q2].truncate(q1) == values[q1]


# -- the Fay check and element values over atoms ---------------------------------

@pytest.mark.parametrize("degree", range(1, 9))
def test_fay_check_over_atoms_agrees_with_the_series_table(degree):
    # the cleared sum's coefficients have weights up to degree + 1, so a
    # series table decides them from the largest certified order on
    bound = max(certified_order(w) for w in range(1, degree + 2))
    symbolic = fay_check(symbolic_b1(degree), degree)
    assert symbolic
    for q_order in (bound, bound + 5):
        assert symbolic == fay_check(kronecker_b1(degree, q_order), degree)


# at degree 6 the cleared sum keeps total degree 8, which the pole (degree 1)
# times the cleared entry of b1 (degree r + s + 2) times the cleared
# denominator's quadratic factor reaches for r + s <= 3
@pytest.mark.parametrize("key", sorted(symbolic_b1(3)._t))
def test_fay_check_fails_with_one_atom_coefficient_doubled(key):
    b1 = symbolic_b1(6)
    bad = b1 + MultiPoly({key: b1.coefficient(key)}, b1.cap)
    assert fay_check(b1, 6)
    assert not fay_check(bad, 6)


def _at(table: MultiPoly, q_order: int) -> MultiPoly:
    """A table of atom combinations evaluated at ``q_order``, as
    :func:`kronecker_b1` evaluates :func:`symbolic_b1`."""
    return table.map_coefficients(lambda c: evaluate_atoms(c.items(), q_order))


def test_fay_check_is_exact():
    # the (6,0,1,0) entry is the atom (q d/dq) G_6, with no constant term, so
    # doubling it leaves every constant term of the cleared sum as it was
    b1 = symbolic_b1(9)
    key = (6, 0, 1, 0)
    assert list(b1.coefficient(key)) == [((6, 1),)]
    bad = b1 + MultiPoly({key: b1.coefficient(key)}, b1.cap)
    assert fay_check(b1, 9)
    assert not fay_check(bad, 9)
    # the hazard lives only in q-series truncations: the perturbed table at
    # q-order 0 passes, and from q-order 1 on the doubled entry shows
    assert _at(b1, 3) == kronecker_b1(9, 3)
    assert fay_check(_at(bad, 0), 9)
    for q_order in range(1, 7):
        assert fay_check(_at(b1, q_order), 9)
        assert not fay_check(_at(bad, q_order), 9)


def _vanishing_to_q5() -> Combination:
    """delta: the weight-12 combination of G2^a G4^b G6^c that vanishes on
    q^0..q^5, the kernel of the seven monomials' rows there; its first
    nonzero coefficient is that of q^6, the certified order of weight 12."""
    monomials = [((2, 0),) * a + ((4, 0),) * b + ((6, 0),) * c for a, b, c in quasimodular_monomials(12)]
    series = [eisenstein.product_series(m, 5) for m in monomials]
    rows = []
    for i in range(6):
        coefficients = [s.coefficient(i) for s in series]
        den = lcm(*(c.denominator for c in coefficients))
        rows.append({j: int(c * den) for j, c in enumerate(coefficients)})
    reduced = _rref(rows)
    (free,) = set(range(len(monomials))) - set(reduced)
    solution = {free: Fraction(1)} | {p: Fraction(-row.get(free, 0), den) for p, (den, row) in reduced.items()}
    return Combination({monomials[j]: c for j, c in solution.items() if c})


def test_fay_check_sees_a_form_that_vanishes_below_its_certified_order():
    delta = _vanishing_to_q5()
    assert certified_order(12) == 6
    assert not evaluate_atoms(delta.items(), 5)
    assert evaluate_atoms(delta.items(), 6).coefficient(6) == Fraction(-65, 12)
    # delta added to the G12 entry: the exact check sees it
    b1 = symbolic_b1(11)
    key = (11, 0, 0, 0)
    assert list(b1.coefficient(key)) == [((12, 0),)]
    bad = b1 + MultiPoly({key: delta}, b1.cap)
    assert fay_check(b1, 11)
    assert not fay_check(bad, 11)
    # the control: a series table misses it below the certified order
    assert fay_check(_at(bad, 5), 11)
    assert not fay_check(_at(bad, 6), 11)


@pytest.mark.parametrize("degree", [1, 2, 3, 6, 8])
def test_fay_check_reaches_every_entry_through_its_degree(degree):
    # the cleared sum is kept exact through total degree degree + 5, which
    # the pole times a cleared entry times the quadratic factor reaches for
    # every entry of b1 through the degree checked
    b1 = symbolic_b1(degree)
    assert fay_check(b1, degree)
    for key in sorted(b1._t):
        bad = b1 + MultiPoly({key: b1.coefficient(key)}, b1.cap)
        assert not fay_check(bad, degree), key


def test_wplus_check_reaches_every_entry_through_its_degree():
    # the candidate at degree 6 is compared through total degree 6, which the
    # pole (degree -1) times an entry of b1 reaches for every entry through
    # degree 7
    b1 = kronecker_b1(8, 8)
    assert wplus_check(kronecker_wplus_candidate(b1, 6), 6)
    for key in sorted(b1.truncate(7)._t):
        bad = b1 + MultiPoly({key: b1.coefficient(key)}, b1.cap)
        assert not wplus_check(kronecker_wplus_candidate(bad, 6), 6), key


@pytest.mark.parametrize("degree", [4, 6])
def test_wplus_check_over_atoms_agrees_with_the_series_table(degree):
    # the numerator's coefficients have weights up to degree + 2, so a series
    # table decides them from the largest certified order on
    bound = max(certified_order(w) for w in range(1, degree + 3))
    symbolic = wplus_check(kronecker_wplus_candidate(symbolic_b1(degree + 1), degree), degree)
    assert symbolic
    for q_order in (bound, bound + 5):
        series = kronecker_wplus_candidate(kronecker_b1(degree + 1, q_order), degree)
        assert symbolic == wplus_check(series, degree)


# an entry of the lowest, a middle and the top degree of b1 through degree 7;
# the series-table test above reaches every entry
@pytest.mark.parametrize("key", [(1, 0, 0, 0), (3, 0, 2, 0), (0, 0, 7, 0)])
def test_wplus_check_over_atoms_fails_with_one_atom_coefficient_doubled(key):
    b1 = symbolic_b1(7)
    bad = b1 + MultiPoly({key: b1.coefficient(key)}, b1.cap)
    assert not wplus_check(kronecker_wplus_candidate(bad, 6), 6)


def test_wplus_candidate_must_be_exact_through_the_degree():
    with pytest.raises(ValueError):
        wplus_check(kronecker_wplus_candidate(kronecker_b1(5, 8), 6), 6)


def test_fay_check_over_atoms_needs_the_pole():
    # without the pole only products of two regular terms remain; they reach
    # the kept total degree 3 + 3 + 2 = degree + 2 from degree 6 on
    for degree in (6, 8):
        without_pole = _pole_free_cleared(symbolic_b1(degree), degree)
        assert not kronecker._vanishes(fay_numerator(pair_product(without_pole)))


@pytest.mark.parametrize("key", [(2, 0, 1, 0), (1, 0, 0, 0)])
def test_fay_check_fails_with_a_rational_perturbation(key):
    # (2,0,1,0) adds a new rational entry; (1,0,0,0) adds to the G2 atom,
    # so the rational lands on the empty monomial
    bad = symbolic_b1(6) + MultiPoly({key: Fraction(1, 7)}, 6)
    assert not fay_check(bad, 6)


def test_rationals_are_multiples_of_the_empty_monomial():
    g2 = Combination({((2, 0),): Fraction(1)})
    expected = eisenstein_qexp(2, 6) + Fraction(1, 2)
    assert evaluate_atoms((g2 + Fraction(1, 2)).items(), 6) == expected
    assert evaluate_atoms((Fraction(1, 2) + g2).items(), 6) == expected
    assert evaluate_atoms({(): 3}.items(), 4) == QSeries.constant(3, 4)
    assert evaluate_atoms((), 2) == QSeries.zero(2)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda w: st.lists(
        st.tuples(
            st.sampled_from(enumerate_generators(EISENSTEIN, w)),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
        ),
        max_size=12,
    )),
    st.integers(0, 30),
)
def test_element_value_is_the_sum_of_generator_values(terms, q_order):
    ctx = KroneckerRealization(q_order)
    element = FormalElement(terms)
    expected = QSeries.zero(q_order)
    for gen, c in element.terms():
        expected = expected + ctx.value(gen) * c
    value = ctx.element_value(element)
    assert value.order == q_order
    assert value == expected


_ELEMENTS_TO_WEIGHT_8 = st.integers(1, 8).flatmap(lambda w: st.lists(
    st.tuples(
        st.sampled_from(enumerate_generators(EISENSTEIN, w)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    ),
    max_size=12,
)).map(FormalElement)


@settings(max_examples=60, deadline=None)
@given(_ELEMENTS_TO_WEIGHT_8, st.integers(0, 20))
def test_an_element_and_its_normal_form_realize_alike(element, q_order):
    # the realization kills every relation, so it factors through the
    # normal form, exactly at every q-order
    assert realize_element(element, q_order) == realize_element(normal_form(element), q_order)


def test_a_map_that_drops_the_products_does_not_factor_through_normal_forms():
    # negative control: P(2,2;0,0) - 2 G(2,2;0,0) - G(4;0) has normal form 0,
    # but without its P term it realizes to -G2^2
    def without_products(element, q_order):
        return realize_element(
            FormalElement({g: c for g, c in element._terms.items() if g.kind != "GP"}), q_order)

    row = stuffle_row(2, 2, 0, 0)
    assert not normal_form(row)
    assert without_products(row, 10) == -eisenstein_qexp(2, 10) ** 2
    assert without_products(row, 10) != without_products(normal_form(row), 10)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda w: st.tuples(
        st.sampled_from(enumerate_generators(EISENSTEIN, w)),
        st.lists(st.tuples(st.sampled_from(enumerate_generators(EISENSTEIN, w)),
                           st.fractions(min_value=-5, max_value=5, max_denominator=6)),
                 min_size=2, max_size=5),
    )),
    st.integers(0, 20),
)
def test_realizing_elements_leaves_the_cached_image_unchanged(gen_and_terms, q_order):
    # every element names gen, each with another coefficient; the image is
    # shared by every element and q-order, so none of them may change it
    gen, terms = gen_and_terms
    image = dict(kronecker._image(gen))
    value = realize_kronecker(gen, q_order)
    for other, c in terms:
        element = FormalElement([(gen, c + 1), (other, c)])
        expected = value * (c + 1) + realize_kronecker(other, q_order) * c
        assert realize_element(element, q_order) == expected
    assert dict(kronecker._image(gen)) == image
    assert realize_kronecker(gen, q_order) == value


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.lists(st.tuples(st.integers(1, 8), st.integers(0, 2)), max_size=3).map(lambda m: tuple(sorted(m))),
        st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
        max_size=6,
    ),
    st.integers(0, 20),
)
def test_evaluate_is_the_combination_of_monomial_series(terms, q_order):
    expected = QSeries.zero(q_order)
    for m, c in terms.items():
        product = QSeries.constant(1, q_order)
        for k, d in m:
            product = product * derived_eisenstein(k, d, q_order)
        expected = expected + product * c
    assert evaluate_atoms(terms.items(), q_order) == expected


def test_atom_combination_results_hold_no_zero_terms():
    g2 = Combination({((2, 0),): Fraction(1), (): Fraction(3)})
    assert g2 * 0 == {} and type(g2 * 0) is Combination
    assert g2 + (-g2) == {}
    assert g2 + -3 == {((2, 0),): 1}
    square = Combination({((2, 0),): 1, (): 1}) * Combination({((2, 0),): 1, (): -1})
    assert square == {((2, 0), (2, 0)): 1, (): -1}


def test_element_value_rejects_what_value_rejects():
    ctx = KroneckerRealization(5)
    with pytest.raises(ValueError):
        ctx.element_value(FormalElement.single(Z1(3)))


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.just({}),
        st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool).map(lambda c: {(): c}),
        st.dictionaries(
            st.lists(st.tuples(st.integers(1, 8), st.integers(0, 2)), max_size=3).map(lambda m: tuple(sorted(m))),
            st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
            max_size=6,
        ),
    ),
    st.integers(0, 20),
)
def test_evaluate_equals_the_term_by_term_sum(terms, q_order):
    def term_by_term(terms):
        total = QSeries.zero(q_order)
        for m, c in terms.items():
            total = total + eisenstein.product_series(m, q_order) * c
        return total

    value = evaluate_atoms(terms.items(), q_order)
    assert value.order == q_order
    assert value == term_by_term(terms)
    # negative control: leaving out a term changes the sum unless its series is zero
    for m in terms:
        if eisenstein.product_series(m, q_order):
            assert value != term_by_term({k: c for k, c in terms.items() if k != m})
            break


_mixed_coefficients = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    st.dictionaries(st.sampled_from(((), ((2, 0),), ((4, 0),), ((2, 0), (4, 0)))),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
                    min_size=1, max_size=3).map(Combination),
)
_mixed_polys = st.builds(
    MultiPoly,
    st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), _mixed_coefficients, max_size=5),
    st.sampled_from((None, 3, 6)),
)


def _term_by_term_product(a, b):
    """a * b one atom product at a time, each coefficient lifted to a combination."""
    def lifted(c):
        return c.items() if isinstance(c, Combination) else [((), c)]

    cap = (a * b).cap
    total: dict = {}
    for k1, c1 in a.terms():
        for k2, c2 in b.terms():
            key = tuple(u + v for u, v in zip(k1, k2))
            if cap is None or sum(key) <= cap:
                for m1, v1 in lifted(c1):
                    for m2, v2 in lifted(c2):
                        term = Combination({tuple(sorted(m1 + m2)): v1 * v2})
                        total[key] = total.get(key, Combination()) + term
    return {k: c for k, c in total.items() if c}


@settings(max_examples=60, deadline=None)
@given(_mixed_polys, _mixed_polys)
def test_products_with_rational_and_atom_coefficients_equal_the_term_by_term_product(a, b):
    product = a * b
    assert all(c for _, c in product.terms())
    expected = _term_by_term_product(a, b)
    assert {k: Combination() + c for k, c in product.terms()} == expected
    # negative control: the product with one coefficient of b doubled differs
    if a and b:
        k, c = b.terms()[0]
        doubled = MultiPoly({**b._t, k: c * 2}, b.cap)
        if _term_by_term_product(a, doubled) != expected:
            assert {k: Combination() + c for k, c in (a * doubled).terms()} != expected


def test_products_drop_the_terms_that_cancel():
    g2 = Combination({((2, 0),): Fraction(1)})
    a = MultiPoly({(1, 0, 0, 0): g2, (0, 1, 0, 0): Fraction(1, 2)}, None)  # g2 X1 + X2/2
    c = MultiPoly({(1, 0, 0, 0): -g2, (0, 1, 0, 0): Fraction(1, 2)}, None)  # -g2 X1 + X2/2
    # the X1 X2 contributions g2/2 and -g2/2 cancel, and the monomial goes;
    # the rational 1/4 is a multiple of the empty monomial
    product = a * c
    assert product._t == {(2, 0, 0, 0): Combination({((2, 0), (2, 0)): Fraction(-1)}),
                          (0, 2, 0, 0): Combination({(): Fraction(1, 4)})}
    # control: with the sign of g2 X1 in c flipped the X1 X2 terms add up instead
    flipped = a * MultiPoly({(1, 0, 0, 0): g2, (0, 1, 0, 0): Fraction(1, 2)}, None)
    assert flipped.coefficient((1, 1, 0, 0)) == g2


def test_b2_grown_piece_by_piece_equals_one_build():
    # the union of the cached pieces through degree 9 is one build through 9
    grown = _symbolic_b2(9)
    whole = build_b2(symbolic_b1(10), 9)
    assert grown.cap == whole.cap == 9
    assert grown._t == whole._t
    top = build_b2(symbolic_b1(10), 9, 7)
    assert top._t == {k: c for k, c in whole._t.items() if sum(k) >= 7}
    # control: the pieces above 6 alone miss the lower ones
    assert any(sum(k) < 7 for k in whole._t) and top._t != whole._t
