import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleeis.eisenstein import eisenstein_qexp
from doubleeis.series import QSeries


def brute_cauchy(a, b, order):
    """Independent convolution oracle on plain coefficient lists."""
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        for j, bj in enumerate(b[: order + 1]):
            if i + j <= order:
                out[i + j] += Fraction(ai) * Fraction(bj)
    return out


def coefficients(s):
    return [s.coefficient(n) for n in range(s.order + 1)]


def random_series(rng, order):
    return QSeries([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order + 1)])


def test_difference_of_squares():
    one_plus = QSeries([1, 1], 2)
    one_minus = QSeries([1, -1], 2)
    assert one_plus * one_minus == QSeries([1, 0, -1], 2)


def test_zero_annihilates():
    g2 = eisenstein_qexp(2, 6)
    assert not (g2 * QSeries.zero(6))


def test_g2_squared_frozen():
    # oracle: hand/brute Cauchy product from the expansion -1/24 + q + 3q^2
    g2 = eisenstein_qexp(2, 2)
    expected = brute_cauchy(coefficients(g2), coefficients(g2), 2)
    assert expected == [Fraction(1, 576), Fraction(-1, 12), Fraction(3, 4)]
    assert g2 * g2 == QSeries(expected)


def test_mul_matches_brute_oracle():
    rng = random.Random(7)
    for _ in range(25):
        a = random_series(rng, 8)
        b = random_series(rng, 8)
        assert coefficients(a * b) == brute_cauchy(coefficients(a), coefficients(b), 8)


def test_mul_truncates_to_min_order():
    a = QSeries([1, 1, 1, 1], 3)
    b = QSeries([1, 2], 1)
    assert (a * b).order == 1


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(20):
        a, b, c = (random_series(rng, 6) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_qderive_rules():
    assert not QSeries.constant(5, 4).qderive()
    assert QSeries([0, 1, 3], 2).qderive() == QSeries([0, 1, 6], 2)
    assert eisenstein_qexp(2, 8).qderive().coefficient(0) == 0


def test_qderive_is_a_derivation():
    rng = random.Random(13)
    for _ in range(15):
        a = random_series(rng, 7)
        b = random_series(rng, 7)
        assert (a * b).qderive() == a.qderive() * b + a * b.qderive()


def test_pow_and_constant():
    g2 = eisenstein_qexp(2, 5)
    assert g2**0 == QSeries.constant(1, 5)
    assert g2**3 == g2 * g2 * g2
    assert QSeries.monomial(Fraction(1, 2), 2, 4).coefficient(2) == Fraction(1, 2)


def test_scalar_arithmetic():
    g2 = eisenstein_qexp(2, 3)
    assert (g2 * 24).coefficient(0) == -1
    assert (Fraction(1, 2) * g2).coefficient(1) == Fraction(1, 2)
    assert (g2 + Fraction(1, 24)).coefficient(0) == 0
    assert (1 - QSeries([0, 1], 2)) == QSeries([1, -1], 2)


def test_equality_up_to_common_truncation():
    assert QSeries([1, 2, 3], 2) == QSeries([1, 2], 1)
    assert QSeries([1, 2, 3], 2) != QSeries([1, 5], 1)
    assert not QSeries.zero(3)
    assert QSeries.zero(3) == QSeries.zero(10)


def test_truncate():
    g2 = eisenstein_qexp(2, 10)
    assert g2.truncate(4) == eisenstein_qexp(2, 4)
    with pytest.raises(ValueError):
        g2.truncate(11)


def test_truncate_refuses_a_negative_order():
    # an order -1 series holds no coefficient, which the constructor refuses too
    g2 = eisenstein_qexp(2, 10)
    with pytest.raises(ValueError):
        g2.truncate(-1)
    # control: order 0 keeps the constant term
    assert g2.truncate(0) == QSeries.constant(Fraction(-1, 24), 0)


def test_coefficient_bounds():
    s = QSeries([1, 2], 1)
    with pytest.raises(IndexError):
        s.coefficient(2)


def test_text_rendering():
    assert eisenstein_qexp(2, 3).to_text() == "-1/24 + 1*q + 3*q^2 + 4*q^3 + O(q^4)"
    assert QSeries.zero(1).to_text() == "0 + 0*q + O(q^2)"
    assert QSeries([Fraction(1, 2), Fraction(-3, 7)], 1).to_text() == "1/2 - 3/7*q + O(q^2)"


def test_monomial_rejects_a_negative_exponent():
    with pytest.raises(ValueError):
        QSeries.monomial(1, -1, 3)
    assert QSeries.monomial(1, 3, 3) == QSeries([0, 0, 0, 1], 3)
    assert QSeries.monomial(1, 4, 3) == QSeries.zero(3)


# -- the integer representation against a plain Fraction-list reference ---------

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=30)
coefficient_lists = st.lists(rationals, min_size=1, max_size=9)
scalars = st.one_of(st.just(Fraction(0)), st.integers(-7, 7), rationals)


def assert_lowest_terms(s):
    """Integer numerators over one positive denominator sharing no factor with it."""
    assert type(s._d) is int and s._d > 0
    assert all(type(n) is int for n in s._n)
    assert gcd(s._d, *s._n) == 1
    assert all(type(c) is Fraction for c in coefficients(s))


def agrees(s, reference):
    assert_lowest_terms(s)
    return s.order == len(reference) - 1 and coefficients(s) == reference


@settings(max_examples=150, deadline=None)
@given(coefficient_lists, coefficient_lists)
def test_binary_operations_match_the_fraction_reference(a, b):
    n = min(len(a), len(b))
    sa, sb = QSeries(a), QSeries(b)
    assert agrees(sa, a)
    assert agrees(sa + sb, [x + y for x, y in zip(a, b)])
    assert agrees(sa - sb, [x - y for x, y in zip(a, b)])
    assert agrees(sa * sb, brute_cauchy(a, b, n - 1))
    assert agrees(-sa, [-x for x in a])
    assert (sa == sb) == (a[:n] == b[:n])
    assert (sa - sb == 0) == (a[:n] == b[:n])


@settings(max_examples=150, deadline=None)
@given(coefficient_lists, scalars)
def test_scalar_operations_match_the_fraction_reference(a, c):
    s = QSeries(a)
    scaled = [x * c for x in a]
    assert agrees(s * c, scaled)
    assert agrees(c * s, scaled)
    assert agrees(s + c, [a[0] + c] + a[1:])
    assert agrees(s - c, [a[0] - c] + a[1:])
    assert agrees(c - s, [c - a[0]] + [-x for x in a[1:]])
    assert (s == c) == (a == [c] + [0] * (len(a) - 1))


@settings(max_examples=150, deadline=None)
@given(coefficient_lists, st.data())
def test_qderive_and_truncate_match_the_fraction_reference(a, data):
    s = QSeries(a)
    assert agrees(s.qderive(), [n * x for n, x in enumerate(a)])
    k = data.draw(st.integers(0, len(a) - 1))
    assert agrees(s.truncate(k), a[: k + 1])
    assert s.truncate(k) == s and s == s.truncate(k)
    padded = data.draw(st.integers(len(a) - 1, len(a) + 3))
    assert agrees(QSeries(a, padded), a + [Fraction(0)] * (padded + 1 - len(a)))
