import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doubleeis.action import (
    GroupRingElem,
    GroupRingSyntaxError,
    IDENTITY,
    IntMatrix2,
    MATRICES,
    act,
    act_group_ring,
    parse_group_ring,
)
from doubleeis.kronecker import kronecker_wplus_candidate, wplus_check
from doubleeis.multipoly import (
    FORMS,
    X2,
    Y1,
    MultiPoly,
    RationalFunction4,
    UnsupportedFormError,
    divided_difference,
)
from doubleeis.series import QSeries

M = MATRICES


def random_poly(rng, cap=5):
    terms = {}
    for _ in range(7):
        exps = tuple(rng.randint(0, 2) for _ in range(4))
        if sum(exps) <= cap:
            terms[exps] = Fraction(rng.randint(-4, 4))
    return MultiPoly(terms, cap)


def test_matrix_identities_from_the_theory():
    assert M["T"] == M["U"] * M["S"].inverse()
    assert M["S"] == M["delta"] * M["epsilon"]
    assert M["sigma"] == M["epsilon"] * M["delta"] * M["epsilon"] * M["delta"]
    assert M["A"] == M["epsilon"] * M["U"] * M["epsilon"]
    assert M["A"] == M["T"] * M["epsilon"] * M["T"].inverse() * M["epsilon"]
    assert M["A"] ** 3 == M["sigma"]
    assert M["A"] == IntMatrix2(0, 1, -1, 1)


def test_gl2_membership_enforced():
    with pytest.raises(ValueError):
        IntMatrix2(2, 0, 0, 2)


def test_act_identity():
    rng = random.Random(23)
    p = random_poly(rng)
    assert act(IDENTITY, p) == p


def test_act_epsilon_swaps_pairs():
    p = MultiPoly.monomial((1, 0, 0, 1), Fraction(1))  # X1 Y2
    assert act(M["epsilon"], p) == MultiPoly.monomial((0, 1, 1, 0), Fraction(1))  # X2 Y1


def test_act_t_images():
    # T sends (X1, X2; Y1, Y2) to (X1+X2, X2; Y1, Y2-Y1)
    assert act(M["T"], MultiPoly.from_form((1, 0, 0, 0))) == MultiPoly.from_form((1, 1, 0, 0))
    assert act(M["T"], MultiPoly.from_form((0, 1, 0, 0))) == MultiPoly.from_form((0, 1, 0, 0))
    assert act(M["T"], MultiPoly.from_form((0, 0, 1, 0))) == MultiPoly.from_form((0, 0, 1, 0))
    assert act(M["T"], MultiPoly.from_form((0, 0, 0, 1))) == MultiPoly.from_form((0, 0, -1, 1))


def test_right_action_property():
    rng = random.Random(29)
    p = random_poly(rng)
    # X2 and Y1 stay in FORMS under every product of two named matrices; the
    # action does not cancel, so the law is checked on uncancelled fractions
    rf = RationalFunction4(random_poly(rng), {FORMS.index(X2): 1, FORMS.index(Y1): 2})
    assert act(M["T"], rf) != rf
    names = ("sigma", "epsilon", "delta", "T", "S", "U", "A")
    for x in (p, rf):
        for n1 in names:
            for n2 in names:
                assert act(M[n2], act(M[n1], x)) == act(M[n1] * M[n2], x)


_letters = st.sampled_from(("S", "T", "U", "epsilon"))
_words = st.lists(_letters, max_size=3)
_group_ring = st.lists(st.tuples(st.integers(-3, 3), _words), min_size=1, max_size=2)
_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4), st.integers(-4, 4).map(Fraction), max_size=5
)


def _word_matrix(word) -> IntMatrix2:
    out = IDENTITY
    for letter in word:
        out = out * M[letter]
    return out


def _element(combination) -> GroupRingElem:
    return GroupRingElem([(c, _word_matrix(word)) for c, word in combination])


def _right_action_sides(g1, g2, x):
    """act(g1 g2, x) and act(g2, act(g1, x)); None when a denominator form
    leaves the fixed set on either side."""
    try:
        return act_group_ring(g1 * g2, x), act_group_ring(g2, act_group_ring(g1, x))
    except UnsupportedFormError:
        return None


@settings(max_examples=60, deadline=None)
@given(_group_ring, _group_ring, _polys, st.sampled_from((None, 4, 6)),
       st.sampled_from(({}, {1: 1}, {1: 1, 2: 2}, {0: 1, 7: 1})))
def test_right_action_law_on_group_ring_words(c1, c2, terms, cap, den):
    # random integer combinations of words in S, T, U and epsilon act on the
    # right: x | (g1 g2) = (x | g1) | g2, on series and on fractions
    g1, g2 = _element(c1), _element(c2)
    p = MultiPoly(terms, cap)
    lhs, rhs = _right_action_sides(g1, g2, p)
    assert lhs == rhs and lhs.cap == rhs.cap
    sides = _right_action_sides(g1, g2, RationalFunction4(p, den))
    assume(sides is not None)
    assert sides[0] == sides[1]


def test_right_action_law_negative_control():
    # the left-action order fails: (x | T) | S is x | TS, not x | ST
    g1, g2 = GroupRingElem.matrix(M["T"]), GroupRingElem.matrix(M["S"])
    p = MultiPoly.monomial((1, 0, 0, 0), Fraction(1))  # X1
    rf = RationalFunction4(p, {FORMS.index(X2): 1})  # X1 / X2
    for x in (p, rf):
        lhs, rhs = _right_action_sides(g1, g2, x)
        assert lhs == rhs
        assert act_group_ring(g2 * g1, x) != rhs


def test_group_ring_cancellation():
    g = GroupRingElem([(1, M["T"]), (-1, M["T"])])
    assert not g.terms
    rng = random.Random(31)
    assert not act_group_ring(g, random_poly(rng))


def test_symmetrization():
    rng = random.Random(37)
    p = random_poly(rng)
    sym = act_group_ring(1 + GroupRingElem.matrix(M["epsilon"]), p)
    assert sym == p + act(M["epsilon"], p)
    assert act(M["epsilon"], sym) == sym


def test_divided_differences_are_epsilon_invariant():
    rng = random.Random(41)
    t = MultiPoly(
        {(rng.randint(0, 3), 0, rng.randint(0, 3), 0): Fraction(rng.randint(-3, 3)) for _ in range(6)},
        None,
    )
    for mode in ("star", "shuffle"):
        r = divided_difference(t, mode)
        assert act(M["epsilon"], r) == r


def test_derivative_operator_commutes_with_action():
    # (d/dX1 d/dY1 + d/dX2 d/dY2) intertwines the action with det^2 = 1
    rng = random.Random(43)
    p = random_poly(rng, cap=4)

    def pairing(q):
        return q.partial(0).partial(2) + q.partial(1).partial(3)

    for name in ("sigma", "epsilon", "delta", "T", "S", "U", "A"):
        m = M[name]
        assert pairing(act(m, p)) == act(m, pairing(p)) * (m.det**2)


def test_group_ring_parser():
    assert parse_group_ring("1+T^-1") == GroupRingElem(
        [(1, IDENTITY), (1, M["T"].inverse())]
    )
    combo = parse_group_ring("5-3*U+U*epsilon")
    assert combo == GroupRingElem([(5, IDENTITY), (-3, M["U"]), (1, M["U"] * M["epsilon"])])
    assert parse_group_ring("T^2") == GroupRingElem.matrix(M["T"] * M["T"])
    assert parse_group_ring("-epsilon") == -GroupRingElem.matrix(M["epsilon"])


def test_group_ring_parser_errors():
    with pytest.raises(GroupRingSyntaxError) as info:
        parse_group_ring("1+Q")
    assert info.value.position == 2
    with pytest.raises(GroupRingSyntaxError):
        parse_group_ring("T^x")
    with pytest.raises(GroupRingSyntaxError):
        parse_group_ring("2 3")
    # input that ends early, or a non-ASCII digit, is a syntax error at its position
    for text, position in (("", 0), ("-", 1), ("+", 1), ("T^", 2), ("T^-", 3), ("2*", 2),
                           ("T^\u0663", 2)):
        with pytest.raises(GroupRingSyntaxError) as info:
            parse_group_ring(text)
        assert info.value.position == position


def test_wplus_polar_product(kron50):
    candidate = kronecker_wplus_candidate(None, 6)
    assert wplus_check(candidate, 6, 4)


def test_wplus_rejects_bare_monomial():
    one = QSeries.constant(1, 4)
    candidate = RationalFunction4.from_poly(MultiPoly.monomial((1, 0, 0, 0), one, 6))
    assert not wplus_check(candidate, 6, 4)


def test_wplus_kronecker_product():
    from doubleeis.kronecker import kronecker_wplus_check

    assert kronecker_wplus_check(6, 8)
