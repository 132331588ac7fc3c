import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleeis.action import (
    GroupRingElem,
    GroupRingSyntaxError,
    IDENTITY,
    IntMatrix2,
    MATRICES,
    act,
    act_group_ring,
    act_group_ring_sum,
    parse_group_ring,
)
from doubleeis.elements import G1, G2, GP, Combination, FormalElement, MixedWeightError
from doubleeis.kronecker import kronecker_wplus_candidate, wplus_check
from doubleeis.multipoly import MultiPoly, divided_difference
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
    names = ("sigma", "epsilon", "delta", "T", "S", "U", "A")
    for n1 in names:
        for n2 in names:
            assert act(M[n2], act(M[n1], p)) == act(M[n1] * M[n2], p)


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
    """act(g1 g2, x) and act(g2, act(g1, x))."""
    return act_group_ring(g1 * g2, x), act_group_ring(g2, act_group_ring(g1, x))


@settings(max_examples=60, deadline=None)
@given(_group_ring, _group_ring, _polys, st.sampled_from((None, 4, 6)))
def test_right_action_law_on_group_ring_words(c1, c2, terms, cap):
    # random integer combinations of words in S, T, U and epsilon act on the
    # right: x | (g1 g2) = (x | g1) | g2
    g1, g2 = _element(c1), _element(c2)
    p = MultiPoly(terms, cap)
    lhs, rhs = _right_action_sides(g1, g2, p)
    assert lhs == rhs and lhs.cap == rhs.cap


def test_right_action_law_negative_control():
    # the left-action order fails: (x | T) | S is x | TS, not x | ST
    g1, g2 = GroupRingElem.matrix(M["T"]), GroupRingElem.matrix(M["S"])
    p = MultiPoly.monomial((1, 0, 0, 0), Fraction(1))  # X1
    lhs, rhs = _right_action_sides(g1, g2, p)
    assert lhs == rhs
    assert act_group_ring(g2 * g1, p) != rhs


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


# -- the one-pass action: one expansion per monomial, integer coefficient sums --

_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_atoms = st.sampled_from(((), ((2, 0),), ((4, 0),), ((2, 0), (4, 0)), ((3, 1), (5, 0))))
_atom_combinations = st.dictionaries(_atoms, _fractions.filter(bool), max_size=3).map(Combination)
_weight4 = st.sampled_from((G1(4, 0), G1(3, 1), G2(2, 2, 0, 0), G2(1, 3, 0, 0), GP(2, 2, 0, 0)))
_formal_elements = st.dictionaries(_weight4, _fractions, max_size=3).map(FormalElement)
_generator_combinations = st.dictionaries(_weight4, _fractions.filter(bool), max_size=3).map(Combination)
# repeated names and a term followed by its negative, so terms merge and cancel
_named_terms = st.lists(
    st.tuples(st.integers(-3, 3), st.sampled_from(sorted(M))).flatmap(
        lambda t: st.sampled_from(([t], [t, (-t[0], t[1])]))),
    max_size=5).map(lambda chunks: [t for chunk in chunks for t in chunk])


def _polys_over(coefficients):
    return st.builds(MultiPoly, st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4),
                                                coefficients, max_size=5),
                     st.sampled_from((None, 4, 6)))


def _term_by_term(named_terms, p):
    """The sum of n * act(M[name], p) over the terms, one at a time."""
    total = MultiPoly.zero(p.cap)
    for n, name in named_terms:
        total = total + act(M[name], p) * n
    return total


@settings(max_examples=80, deadline=None)
@given(_named_terms,
       st.sampled_from((_fractions, _atom_combinations, _generator_combinations,
                        _formal_elements)).flatmap(_polys_over))
def test_one_pass_action_equals_the_term_by_term_sum(named_terms, p):
    # one coefficient type per series: rationals, combinations of atoms or of
    # generators, or formal elements
    elem = GroupRingElem([(n, M[name]) for n, name in named_terms])
    fused = act_group_ring(elem, p)
    reference = _term_by_term(named_terms, p)
    assert fused == reference and fused.cap == reference.cap
    assert all(c for _, c in fused.terms())  # a sum that cancels drops its monomial
    # negative control: the reference without one nonzero term differs
    kept = [i for i, (n, _) in enumerate(named_terms) if n]
    if p and kept:
        i = kept[0]
        assert fused != _term_by_term(named_terms[:i] + named_terms[i + 1:], p)


def _linear_combination(pairs):
    """The sum of n * c over the (combination, integer) pairs, by ``Combination.product_sum``."""
    return Combination.product_sum([(Combination.integer_form(c), Combination.integer_form(n))
                                    for c, n in pairs])


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.lists(st.tuples(_atom_combinations, st.integers(-4, 4)), min_size=1, max_size=4),
                 st.lists(st.tuples(_generator_combinations, st.integers(-4, 4)), min_size=1, max_size=4)))
def test_integer_coefficient_sum_equals_the_chained_sum(pairs):
    chained = pairs[0][0] * pairs[0][1]
    for c, n in pairs[1:]:
        chained = chained + c * n
    assert _linear_combination(pairs) == chained
    assert type(_linear_combination(pairs)) is type(chained) is Combination
    # negative control: leaving out a pair that contributes changes the sum
    contributing = [i for i, (c, n) in enumerate(pairs) if c and n]
    if contributing:
        i = contributing[0]
        assert _linear_combination(pairs[:i] + pairs[i + 1:]) != chained


def test_integer_coefficient_sums_that_cancel():
    atoms = Combination({((2, 0),): Fraction(1, 3), ((4, 0),): Fraction(-2, 5)})
    assert _linear_combination([(atoms, 3), (atoms, -3)]) == {}
    gens = Combination({G1(4, 0): Fraction(1, 2), GP(2, 2, 0, 0): Fraction(3)})
    assert _linear_combination([(gens, 2), (gens, -2)]) == {}
    # on a series: 1 - epsilon kills an epsilon-symmetric one, and the monomials go
    for c in (atoms, gens):
        p = MultiPoly({(1, 0, 0, 1): c, (0, 1, 1, 0): c}, 5)  # X1 Y2 + X2 Y1
        assert not act_group_ring(1 - GroupRingElem.matrix(M["epsilon"]), p)._t
        # control: 1 + epsilon doubles it
        assert act_group_ring(1 + GroupRingElem.matrix(M["epsilon"]), p) == p * 2


def test_combined_formal_elements_keep_the_checks_of_addition():
    # the series code sums formal elements with their own * and +, so a sum
    # on a series keeps the weight and space checks of +
    four, five = FormalElement.single(G1(4, 0)), FormalElement.single(G1(5, 0))
    # on a series: epsilon moves X1 to X2, where the weight-5 coefficient stands
    p = MultiPoly({(1, 0, 0, 0): four, (0, 1, 0, 0): five}, None)
    with pytest.raises(MixedWeightError):
        act_group_ring(1 + GroupRingElem.matrix(M["epsilon"]), p)
    # controls: one matrix moves no coefficient onto another, and equal weights add
    assert act_group_ring(GroupRingElem.matrix(M["epsilon"]), p).coefficient((0, 1, 0, 0)) == four
    same = MultiPoly({(1, 0, 0, 0): four, (0, 1, 0, 0): four * 3}, None)
    summed = act_group_ring(1 + GroupRingElem.matrix(M["epsilon"]), same)
    assert summed == MultiPoly({(1, 0, 0, 0): four * 4, (0, 1, 0, 0): four * 4}, None)


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
    assert wplus_check(candidate, 6)


def test_wplus_rejects_bare_monomial():
    # the bare monomial X1 is the numerator X1^2 X2 Y1 Y2 over X1 X2 Y1 Y2
    one = QSeries.constant(1, 4)
    candidate = MultiPoly.monomial((2, 1, 1, 1), one, 10)
    assert not wplus_check(candidate, 6)


def test_wplus_kronecker_product():
    from doubleeis.kronecker import kronecker_wplus_check

    assert kronecker_wplus_check(6)


# one coefficient type for all the series of a sum
_action_sums = st.sampled_from((_fractions, _atom_combinations, _formal_elements)).flatmap(
    lambda coefficients: st.lists(st.tuples(_named_terms, _polys_over(coefficients)), min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(_action_sums)
def test_a_sum_of_actions_in_one_pass_equals_the_sum_of_the_actions(parts):
    pairs = [(GroupRingElem([(n, M[name]) for n, name in terms]), p) for terms, p in parts]
    fused = act_group_ring_sum(pairs)
    reference = act_group_ring(*pairs[0])
    for elem, p in pairs[1:]:
        reference = reference + act_group_ring(elem, p)
    assert fused == reference and fused.cap == reference.cap
    assert all(c for _, c in fused.terms())
    # negative control: leaving out a part that is nonzero below the cap changes the sum
    for i, (elem, p) in enumerate(pairs):
        if len(pairs) > 1 and act_group_ring(elem, p).truncate(fused.cap)._t:
            assert fused != act_group_ring_sum(pairs[:i] + pairs[i + 1:])
            break
