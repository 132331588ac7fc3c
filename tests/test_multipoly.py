import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleeis.action import MATRICES, act
from doubleeis.multipoly import (
    MultiPoly,
    X1,
    X2,
    Y1,
    Y2,
    divided_difference,
    substitute_sums,
)

X1MX2 = (1, -1, 0, 0)
Y1PY2 = (0, 0, 1, 1)


def random_poly(rng, cap=5, nterms=6):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, 2) for _ in range(4))
        if sum(exps) <= cap:
            terms[exps] = Fraction(rng.randint(-5, 5))
    return MultiPoly(terms, cap)


def test_substitute_identity():
    rng = random.Random(3)
    p = random_poly(rng)
    assert p.substitute((X1, X2, Y1, Y2)) == p


def test_substitute_binomial():
    p = MultiPoly.monomial((2, 0, 0, 0), Fraction(1))
    q = p.substitute(((1, 1, 0, 0), X2, Y1, Y2))
    assert q == MultiPoly(
        {(2, 0, 0, 0): Fraction(1), (1, 1, 0, 0): Fraction(2), (0, 2, 0, 0): Fraction(1)}
    )


def test_substitute_swap_matches_epsilon():
    p = MultiPoly.monomial((1, 0, 0, 1), Fraction(1))  # X1*Y2
    assert p.substitute(MATRICES["epsilon"].images()) == MultiPoly.monomial(
        (0, 1, 1, 0), Fraction(1)
    )


def test_substitute_roundtrip_unimodular():
    rng = random.Random(5)
    for name in ("T", "S", "U", "epsilon", "delta", "sigma", "A"):
        m = MATRICES[name]
        p = random_poly(rng)
        assert act(m.inverse(), act(m, p)) == p


def test_ring_axioms_random():
    rng = random.Random(9)
    for _ in range(12):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_divided_difference_examples():
    xx = MultiPoly.monomial((2, 0, 0, 0), Fraction(1))
    assert divided_difference(xx, "star") == MultiPoly(
        {(1, 0, 0, 0): Fraction(1), (0, 1, 0, 0): Fraction(1)}
    )
    xy = MultiPoly.monomial((1, 0, 1, 0), Fraction(1))
    assert divided_difference(xy, "star") == MultiPoly(
        {(0, 0, 1, 0): Fraction(1), (0, 0, 0, 1): Fraction(1)}
    )
    yy = MultiPoly.monomial((0, 0, 2, 0), Fraction(1))
    assert divided_difference(yy, "shuffle") == MultiPoly(
        {(0, 0, 1, 0): Fraction(1), (0, 0, 0, 1): Fraction(1)}
    )


def test_divided_difference_multiplies_back():
    rng = random.Random(17)
    terms = {
        (rng.randint(0, 4), 0, rng.randint(0, 4), 0): Fraction(rng.randint(-4, 4)) for _ in range(8)
    }
    t = MultiPoly(terms, None)
    star = divided_difference(t, "star")
    lhs = star * MultiPoly.from_form(X1MX2)
    rhs = t.substitute((X1, X2, Y1PY2, Y2)) - t.substitute((X2, X2, Y1PY2, Y2))
    assert lhs == rhs
    shuffle = divided_difference(t, "shuffle")
    lhs = shuffle * MultiPoly.from_form((0, 0, 1, -1))
    rhs = t.substitute(((1, 1, 0, 0), X2, Y1, Y2)) - t.substitute(((1, 1, 0, 0), X2, Y2, Y2))
    assert lhs == rhs


def test_divided_difference_cap_drops_by_one():
    t = MultiPoly({(2, 0, 1, 0): Fraction(1)}, 4)
    assert divided_difference(t, "star").cap == 3


def _polar_numerator(u, v):
    """-(u + v)/2 = u v f(u, v) for the bare pole part f(u, v) = -(1/u + 1/v)/2."""
    return (MultiPoly.from_form(u) + MultiPoly.from_form(v)) * Fraction(-1, 2)


def _times_forms(p, *forms):
    for form in forms:
        p = p * MultiPoly.from_form(form)
    return p


def test_polar_fay_combination_vanishes():
    # the three-term sum for the bare pole part, over the common denominator
    # X1 X2 (X1-X2) Y1 Y2 (Y1+Y2): the denominators of the three products are
    # X1 Y1 X2 Y2, -(X1-X2) Y2 X1 (Y1+Y2) and X2 (Y1+Y2) (X1-X2) Y1
    minus_y2, minus_x2, minus_y1py2 = (0, 0, 0, -1), (0, -1, 0, 0), (0, 0, -1, -1)
    t1 = _times_forms(_polar_numerator(X1, Y1) * _polar_numerator(X2, Y2), X1MX2, Y1PY2)
    t2 = -_times_forms(_polar_numerator(X1MX2, minus_y2) * _polar_numerator(X1, Y1PY2), X2, Y1)
    t3 = _times_forms(_polar_numerator(minus_x2, minus_y1py2) * _polar_numerator(X1MX2, Y1), X1, Y2)
    assert not (t1 + t2 + t3)
    # negative control: the sign that clears -(X1-X2) Y2 X1 (Y1+Y2) matters
    assert t1 - t2 + t3


def test_polar_fay_combination_against_sympy():
    import sympy

    x1, x2, y1, y2 = sympy.symbols("x1 x2 y1 y2")

    def f(u, v):
        return -(1 / u + 1 / v) / 2

    total = (
        f(x1, y1) * f(x2, y2)
        + f(x1 - x2, -y2) * f(x1, y1 + y2)
        + f(-x2, -y1 - y2) * f(x1 - x2, y1)
    )
    assert sympy.simplify(sympy.together(total)) == 0


def test_partial_derivative():
    p = MultiPoly({(2, 0, 1, 0): Fraction(3)})
    assert p.partial(0) == MultiPoly({(1, 0, 1, 0): Fraction(6)})
    assert p.partial(1) == MultiPoly.zero()


def test_min_cap_flows_through_operations():
    a = MultiPoly({(1, 0, 0, 0): Fraction(1)}, 4)
    b = MultiPoly({(0, 1, 0, 0): Fraction(1)}, None)
    assert (a + b).cap == 4
    assert (a * b).cap == 5  # cap(a) + val(b): b starts in degree 1
    assert MultiPoly({(1, 0, 0, 0): Fraction(1)}, 3).substitute((X1MX2, X2, Y1, Y2)).cap == 3


_exact_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 4), st.integers(-5, 5).map(Fraction), max_size=6
).map(lambda terms: MultiPoly(terms, None))


@settings(max_examples=100, deadline=None)
@given(_exact_polys, _exact_polys, st.integers(0, 8), st.integers(0, 8))
def test_truncated_product_is_exact_through_its_cap(a, b, cap_a, cap_b):
    exact = a * b
    assert exact.cap is None
    product = a.truncate(cap_a) * b.truncate(cap_b)
    assert product.cap >= min(cap_a, cap_b)
    assert product == exact.truncate(product.cap)


def test_truncated_product_cap_is_tight():
    # cap(A B) = min(1 + val(X2), 5 + val(X1)) = 2; the true product has a
    # term in degree 3 that the truncated factors cannot see
    a = MultiPoly({(1, 0, 0, 0): Fraction(1), (2, 0, 0, 0): Fraction(1)}, None)
    b = MultiPoly.from_form(X2)
    product = a.truncate(1) * b.truncate(5)
    assert product.cap == 2
    assert product == a * b
    assert MultiPoly(product.terms(), product.cap + 1) != a * b


def test_truncated_zero_and_exact_zero_in_products():
    x1 = MultiPoly.from_form(X1)
    assert (MultiPoly.zero(3) * x1).cap == 4  # a truncated zero starts past its cap
    assert (MultiPoly.zero(3) * MultiPoly.zero(2)).cap == 6
    assert (MultiPoly.zero(None) * x1.truncate(3)).cap is None  # an exact zero is exact


# -- the factored expansion: X factor times Y factor per matrix term ------------

_gl2_words = st.lists(st.sampled_from(("S", "T", "U", "epsilon", "delta", "sigma")), max_size=4)
_gl2_group_ring = st.lists(st.tuples(st.integers(-3, 3), _gl2_words), min_size=1, max_size=3)


def _word_images(word):
    m = MATRICES["1"]
    for letter in word:
        m = m * MATRICES[letter]
    return m.images()


def _reference_substitution(combo, p):
    """The sum of n * c * prod(image_i ** e_i) over the (n, images) of combo and
    the terms c X^e of p, with each power a product of ``MultiPoly.from_form``."""
    total = MultiPoly.zero(None)
    for n, images in combo:
        for exps, c in p.terms():
            term = MultiPoly.monomial((0, 0, 0, 0), c * n)
            for form, e in zip(images, exps):
                for _ in range(e):
                    term = term * MultiPoly.from_form(form)
            total = total + term
    return total.truncate(p.cap) if p.cap is not None else total


@settings(max_examples=60, deadline=None)
@given(_gl2_group_ring, st.dictionaries(st.tuples(*[st.integers(0, 3)] * 4),
                                        st.integers(-4, 4).map(Fraction), max_size=5),
       st.sampled_from((None, 5, 8)))
def test_factored_expansion_equals_the_power_product_reference(words, terms, cap):
    combo = [(n, _word_images(word)) for n, word in words]
    p = MultiPoly(terms, cap)
    image = substitute_sums([(p, combo)])
    reference = _reference_substitution(combo, p)
    assert image == reference and image.cap == p.cap
    assert all(c for _, c in image.terms())
    # negative control: changing the first multiplicity changes a nonzero image
    if p and combo[0][0]:
        n, images = combo[0]
        assert image != _reference_substitution([(n + 1, images)] + combo[1:], p)


def test_an_image_that_mixes_the_blocks_is_rejected():
    p = MultiPoly({(1, 0, 1, 0): Fraction(1)}, 4)
    with pytest.raises(ValueError, match="mix the X and Y"):
        p.substitute(((1, 0, 1, 0), X2, Y1, Y2))  # X1 -> X1 + Y1
    with pytest.raises(ValueError, match="mix the X and Y"):
        substitute_sums([(p, [(1, MATRICES["T"].images()), (2, (X1, X2, (0, 1, 1, 0), Y2))])])
    # control: the same images kept in their blocks are accepted
    assert p.substitute(((1, 1, 0, 0), X2, Y1, Y2)) == MultiPoly(
        {(1, 0, 1, 0): Fraction(1), (0, 1, 1, 0): Fraction(1)}, 4)


@settings(max_examples=60, deadline=None)
@given(*[st.dictionaries(st.tuples(*[st.integers(0, 3)] * 4), st.integers(-4, 4).map(Fraction), max_size=5)] * 2,
       st.sampled_from((None, 6, 9)), st.integers(0, 10))
def test_a_product_from_a_lowest_degree_keeps_only_the_pieces_from_it(left, right, cap, lowest):
    a, b = MultiPoly(left, cap), MultiPoly(right)
    full = a * b
    part = a.product(b, lowest)
    assert part.cap == full.cap
    assert part == MultiPoly({k: c for k, c in full.terms() if sum(k) >= lowest}, full.cap)
    # negative control: a piece below ``lowest`` that the full product has is left out
    if any(sum(k) < lowest for k, _ in full.terms()):
        assert part != full
