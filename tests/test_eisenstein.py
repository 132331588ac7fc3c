from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleeis import eisenstein
from doubleeis.eisenstein import (
    UnderdeterminedTruncationError,
    bernoulli,
    certified_order,
    derived_eisenstein,
    divisor_power_sums,
    eisenstein_qexp,
    quasimodular_monomials,
    recognize_quasimodular,
)
from doubleeis.elements import G1
from doubleeis.kronecker import realize_kronecker
from doubleeis.series import QSeries
from doubleeis.spaces import _rref


def akiyama_tanigawa(n):
    """Independent Bernoulli oracle (first kind, B1 = -1/2)."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    # Akiyama-Tanigawa produces B1 = +1/2; flip to the first-kind convention
    if n >= 1:
        out[1] = -out[1]
    return out


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)
    for k in range(3, 21, 2):
        assert bernoulli(k) == 0


def test_bernoulli_against_independent_oracle():
    oracle = akiyama_tanigawa(20)
    for k in range(21):
        assert bernoulli(k) == oracle[k]


def brute_sigma(power, n):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def test_divisor_sums_sieve():
    for power in (1, 3, 5):
        sieve = divisor_power_sums(power, 30)
        for n in range(1, 31):
            assert sieve[n] == brute_sigma(power, n)


def test_sigma_multiplicativity_spot():
    assert brute_sigma(3, 6) == brute_sigma(3, 2) * brute_sigma(3, 3)


def test_odd_weight_vanishes():
    assert not eisenstein_qexp(3, 10)
    assert not eisenstein_qexp(7, 10)


def test_g2_expansion():
    assert eisenstein_qexp(2, 4) == QSeries(
        [Fraction(-1, 24), 1, 3, 4, 7]
    )


def test_g4_expansion():
    assert eisenstein_qexp(4, 2) == QSeries(
        [Fraction(1, 1440), Fraction(1, 6), Fraction(3, 2)]
    )


def test_normalized_coefficients_are_divisor_sums():
    from math import factorial

    for k in (2, 4, 6, 8):
        g = eisenstein_qexp(k, 20)
        scaled = (g - g.coefficient(0)) * factorial(k - 1)
        for n in range(1, 21):
            c = scaled.coefficient(n)
            assert c.denominator == 1 and c >= 0
            assert c == brute_sigma(k - 1, n)


def test_derived_eisenstein():
    assert derived_eisenstein(2, 0, 8) == eisenstein_qexp(2, 8)
    assert derived_eisenstein(2, 1, 2) == QSeries([0, 1, 6])
    for k in (2, 4, 6):
        for m in (1, 2):
            assert derived_eisenstein(k, m, 6).coefficient(0) == 0


def test_monomial_enumeration():
    assert quasimodular_monomials(4) == [(0, 1, 0), (2, 0, 0)]
    assert all(2 * a + 4 * b + 6 * c == 12 for a, b, c in quasimodular_monomials(12))
    assert len(quasimodular_monomials(12)) == 7


@pytest.mark.parametrize("orders", [(10, 30, 0), (30, 10, 20)])
def test_basis_expansions_are_the_monomial_powers(monkeypatch, orders):
    # the shared cache serves lower orders by truncation and is rebuilt for higher ones
    monkeypatch.setattr(eisenstein, "_MONOMIALS", {})
    for n in orders:
        g2, g4, g6 = (eisenstein_qexp(k, n) for k in (2, 4, 6))
        for weight in (0, 2, 8, 12):
            expansions = eisenstein._monomial_series(weight, n)
            assert expansions == [g2**a * g4**b * g6**c for a, b, c in quasimodular_monomials(weight)]
            assert all(e.order == n for e in expansions)
    assert max(s.order for s in eisenstein._MONOMIALS.values()) == max(orders)


def test_recognize_basis_element():
    g4 = eisenstein_qexp(4, 20)
    assert recognize_quasimodular(g4, 4) == {(0, 1, 0): 1}


def test_recognize_products():
    for k1 in (2, 4, 6):
        for k2 in (2, 4, 6):
            s = eisenstein_qexp(k1, 25) * eisenstein_qexp(k2, 25)
            combo = recognize_quasimodular(s, k1 + k2)
            a = (k1 == 2) + (k2 == 2)
            b = (k1 == 4) + (k2 == 4)
            c = (k1 == 6) + (k2 == 6)
            assert combo == {(a, b, c): 1}


def test_recognize_perturbed_tail_fails():
    g2 = eisenstein_qexp(2, 50)
    s = g2 + QSeries.monomial(1, 50, 50)
    assert recognize_quasimodular(s, 2) is None


def test_recognize_wrong_weight_fails():
    assert recognize_quasimodular(eisenstein_qexp(4, 20), 6) is None


def test_recognize_underdetermined_is_distinct():
    short = eisenstein_qexp(4, 0)  # one coefficient, two weight-4 monomials
    with pytest.raises(UnderdeterminedTruncationError):
        recognize_quasimodular(short, 4)


def test_recognition_leaves_a_coefficient_to_check():
    # seven coefficients for the seven weight-12 monomials are all solved
    # for, so none would be left to check the solution against
    with pytest.raises(UnderdeterminedTruncationError, match="no coefficient to check"):
        recognize_quasimodular(QSeries([1, 2, 3, 5, 7, 11, 13]), 12)
    # the control: one more coefficient is checked, and this one fails
    assert recognize_quasimodular(QSeries([1, 2, 3, 5, 7, 11, 13, 17]), 12) is None
    assert recognize_quasimodular(eisenstein_qexp(4, 7) ** 3, 12) == {(0, 3, 0): 1}
    # the realized G(k;0) through q^N, N the certified order, for every even
    # k <= 24; the control: one coefficient more is checked, and as it is the
    # expression is the one a long series gives, changed there is none
    for k in range(2, 25, 2):
        n = certified_order(k)
        with pytest.raises(UnderdeterminedTruncationError, match="no coefficient to check"):
            recognize_quasimodular(realize_kronecker(G1(k, 0), n), k)
        s = realize_kronecker(G1(k, 0), n + 1)
        combo = recognize_quasimodular(s, k)
        assert combo and combo == recognize_quasimodular(realize_kronecker(G1(k, 0), 40), k)
        assert recognize_quasimodular(s + QSeries.monomial(1, n + 1, n + 1), k) is None


def _combination(weight, combo, n_order):
    total = QSeries.zero(n_order)
    for mon, e in zip(quasimodular_monomials(weight), eisenstein._monomial_series(weight, n_order)):
        total = total + e * combo.get(mon, 0)
    return total


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_recognition_returns_the_combination_it_was_formed_from(data):
    weight = data.draw(st.integers(0, 8).map(lambda h: 2 * h), label="weight")
    mons = quasimodular_monomials(weight)
    m = len(mons)
    combo = data.draw(st.dictionaries(
        st.sampled_from(mons),
        st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool),
    ), label="combination")
    n_order = data.draw(st.integers(m, 40), label="q-order")
    assert recognize_quasimodular(_combination(weight, combo, n_order), weight) == combo
    # q^n lies beyond the solved coefficients 0..m, so only the check sees it
    n_order = data.draw(st.integers(m + 1, 40), label="perturbed q-order")
    perturbed = _combination(weight, combo, n_order) + QSeries.monomial(1, n_order, n_order)
    assert recognize_quasimodular(perturbed, weight) is None


def test_recognize_odd_weight():
    assert recognize_quasimodular(QSeries.zero(10), 5) == {}
    assert recognize_quasimodular(eisenstein_qexp(2, 10), 5) is None


def test_recognize_zero_series():
    assert recognize_quasimodular(QSeries.zero(30), 8) == {}


def _rank(expansions):
    """The rank of the series' coefficient rows, each cleared of its denominators."""
    rows = []
    for s in expansions:
        cs = [s.coefficient(n) for n in range(s.order + 1)]
        den = lcm(*(c.denominator for c in cs))
        rows.append({n: int(c * den) for n, c in enumerate(cs)})
    return len(_rref(rows))


def test_certified_order_is_one_below_the_quasimodular_dimension():
    # N_k = dim QM_k - 1 for every even k <= 30, found by rank, not assumed
    for k in range(31):
        mons = quasimodular_monomials(k)
        assert certified_order(k) == (len(mons) - 1 if k % 2 == 0 else 0)
        if not mons:
            continue
        # independent on q^0..q^N, and the control: dependent on q^0..q^(N-1)
        n = certified_order(k)
        assert _rank(eisenstein._monomial_series(k, n)) == len(mons)
        if n:
            assert _rank(eisenstein._monomial_series(k, n - 1)) < len(mons)
