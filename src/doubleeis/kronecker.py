"""Realizations built from the Kronecker function.

The two-variable series with polar part -(1/X + 1/Y)/2 whose regular
coefficients are derivatives of Eisenstein series satisfies the three-term
Fay identity.  From its regular part ``b1`` a four-variable series ``b2``
is assembled in the group-ring form P|a + R*|b + Rsh|c of
:func:`double_shuffle_form`; the pair (b1, b2) solves the generating-series
form of the double-shuffle relations, so coefficient extraction defines a
linear map from the formal double Eisenstein space into q-series, landing
in the quasimodular ring.  Taking constant terms gives the rational
(Bernoulli-number) realization.

``b2`` is bilinear in ``b1``, so each of its coefficients is one rational
combination of products (q d/dq)^m1 G_k1 (q d/dq)^m2 G_k2 at every q-order.
Both are built with :class:`.elements.Combination` coefficients whose keys
are atom monomials: the atom (k, m) stands for (q d/dq)^m G_k, a monomial is
a sorted tuple of atoms, and the unit key ``()`` is the empty monomial, the
constant 1.  ``b2`` is built from
P = b1(X1;Y1) b1(X2;Y2) and the divided differences R* and Rsh of b1, the
three acted on by their group-ring elements in one pass
(:func:`.action.act_group_ring_sum`): each monomial is expanded once for
its whole element, as an X factor times a Y factor, and each coefficient
of the sum is formed once, on integers over one denominator
(:meth:`.elements.Combination.product_sum`, with each integer as a
one-term combination); products of series sum their coefficient products
the same way.  The action keeps each piece of one total degree apart, and
the piece of degree n reads b1 only through degree n + 1, so ``b2`` is
built and cached piece by piece, and a generator reads only the piece of
its own weight.

Like the maps of :mod:`.maps`, the realization caches one image per
generator, its atom combination, and extends linearly by
:func:`.elements.linear_extension`.  An image or a table entry is evaluated
once, at the q-order asked for, by :func:`.eisenstein.evaluate_atoms`:
product series from the one cache of :mod:`.eisenstein` times rationals,
summed in one integer pass over one common denominator.  The Fay and
bi-period checks take no q-order: each coefficient of a cleared sum is
decided exactly by :func:`.eisenstein.atoms_vanish`, weight by weight at
its certified order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

from .action import GroupRingElem, MATRICES, act, act_group_ring, act_group_ring_sum
from .eisenstein import atoms_vanish, derived_eisenstein, eisenstein_qexp, evaluate_atoms
from .elements import (
    EISENSTEIN,
    Combination,
    FormalElement,
    G1,
    GenId,
    generating_monomial,
    linear_extension,
)
from .maps import map_partial
from .multipoly import LinForm, MultiPoly, X2, Y2, divided_difference
from .series import QSeries
from .spaces import enumerate_generators


def kronecker_b1(degree: int, q_order: int) -> MultiPoly:
    """The regular part of the Kronecker function up to a total degree.

    This is the depth-one series b1(X1; Y1) with plain monomial
    coefficients: the coefficient of X1^r Y1^s, at exponents (r, 0, s, 0),
    is |r-s|!/(r! s!) (q d/dq)^min(r,s) G_{|r-s|+1} truncated at
    ``q_order``, supported on odd r+s only.  The series-convention entry
    (the coefficient of X^r Y^s/s!) is s! times the stored one.
    """
    return symbolic_b1(degree).map_coefficients(lambda c: evaluate_atoms(c.items(), q_order))


def _at(t: MultiPoly, x: LinForm, y: LinForm) -> MultiPoly:
    """t(x; y) for a depth-one series t(X1; Y1)."""
    return t.substitute((x, X2, y, Y2))


def _require_odd(b1: MultiPoly):
    bad = [k for k in b1._t if sum(k) % 2 == 0]
    if bad:
        raise ValueError(f"depth-one table must be odd; even-degree entries at {sorted(bad)[:3]}")


def pair_product(b1, degree: int | None = None, lowest: int = 0) -> MultiPoly:
    """b1(X1; Y1) * b1(X2; Y2) as a four-variable series, exact through ``degree``,
    with only its pieces of total degree ``lowest`` and up."""
    if degree is not None:
        b1 = b1.truncate(max(degree - 1, 0))  # each factor of an odd table starts in degree 1
    return b1.product(_at(b1, X2, Y2), lowest)


def double_shuffle_form(a, b, c, p: MultiPoly, t: MultiPoly, degree: int | None = None) -> MultiPoly:
    """P|a + R*|b + Rsh|c for group-ring elements a, b, c, a product series P
    and a depth-one series t, whose divided differences R* and Rsh are kept
    through ``degree`` (entirely for None): the form of :func:`build_b2` and
    of the parity identity of :mod:`.identities`."""
    rstar = divided_difference(t, "star").truncate(degree)
    rshuffle = divided_difference(t, "shuffle").truncate(degree)
    return act_group_ring_sum(((a, p), (b, rstar), (c, rshuffle)))


_GR = GroupRingElem.matrix
_TINV, _U, _EPS = _GR(MATRICES["T"].inverse()), _GR(MATRICES["U"]), _GR(MATRICES["epsilon"])
#: b2 is 1/12 of the double-shuffle form with these (a, b, c)
_B2_FORM = (4 + 4 * _TINV, -(5 - 3 * _U + _U * _EPS), -_TINV * (5 - 3 * _EPS + _U))


def build_b2(b1, degree: int, lowest: int = 0) -> MultiPoly:
    """Solve the double-shuffle system in depth two from an odd depth-one table.

    Returns (1/12) (P|(4 + 4T^-1) - R*|(5 - 3U + U epsilon)
    - Rsh|T^-1 (5 - 3 epsilon + U)) with P = b1(X1;Y1) b1(X2;Y2); the
    result satisfies  P = b2|(1+epsilon) + R*  =  b2|T(1+epsilon) + Rsh
    coefficientwise below the truncation.  The input table must carry
    entries one degree beyond the requested output degree, because divided
    differences lower the exact degree by one.  The coefficients may be
    q-series or atom combinations (:class:`.elements.Combination`).

    Only the pieces of total degree ``lowest`` through ``degree`` are built
    and returned: the action keeps each piece's degree, so a piece needs
    only the pieces of P, R* and Rsh of its own degree.
    """
    _require_odd(b1)
    if b1.cap is not None and b1.cap < degree + 1:
        raise ValueError(f"need depth-one entries to degree {degree + 1}, have {b1.cap}")
    # the form is linear, so its inputs take the 1/12, and fewer terms are scaled;
    # a divided difference lowers the degree by one
    p = pair_product(b1, degree, lowest) * Fraction(1, 12)
    t = MultiPoly({k: c * Fraction(1, 12) for k, c in b1._t.items() if sum(k) > lowest}, b1.cap)
    return double_shuffle_form(*_B2_FORM, p, t, degree)


# -- the symbolic b1 and b2 ----------------------------------------------------

@cache
def symbolic_b1(degree: int) -> MultiPoly:
    """The series of :func:`kronecker_b1` with one atom (k, m) per coefficient,
    a one-term :class:`.elements.Combination`."""
    terms = {}
    for r in range(degree + 1):
        for s in range(degree + 1 - r):
            if (r + s) % 2:  # otherwise k = |r-s|+1 is odd and G_k vanishes
                c = Fraction(factorial(abs(r - s)), factorial(r) * factorial(s))
                terms[(r, 0, s, 0)] = Combination({((abs(r - s) + 1, min(r, s)),): c})
    return MultiPoly(terms, degree)


@cache
def _b2_piece(n: int) -> MultiPoly:
    """The piece of total degree ``n`` of the depth-two series, with atom
    coefficients; it reads the symbolic b1 through degree n + 1 only."""
    return build_b2(symbolic_b1(n + 1), n, n)


# -- the Fay identity and the bi-period space -----------------------------------

def _cleared(regular, degree: int) -> MultiPoly:
    """C(X;Y) = X Y f(X;Y) for f = -(1/X+1/Y)/2 + regular.

    ``regular`` is kept through total degree ``degree`` (``None`` is zero),
    so C is exact through ``degree`` + 2; it starts in degree 1.
    """
    regular = MultiPoly.zero(degree) if regular is None else regular.truncate(degree)
    half = Fraction(-1, 2)  # X Y times the pole, an exact polynomial
    return (MultiPoly.monomial((1, 0, 1, 0), Fraction(1)) * regular
            + MultiPoly({(1, 0, 0, 0): half, (0, 0, 1, 0): half}))


def _vanishes(p: MultiPoly) -> bool:
    """Whether every stored coefficient of p is zero: an atom combination is
    decided exactly by :func:`.eisenstein.atoms_vanish`, any other coefficient
    is taken as it is, so a rational is compared exactly and a q-series, as
    in a table built by ``kronecker_b1(degree, q_order)``, at the order it
    carries (a stored coefficient is never zero)."""
    return all(isinstance(c, Combination) and atoms_vanish(c.items()) for c in p._t.values())


def fay_numerator(n: MultiPoly) -> MultiPoly:
    """The numerator of F + F|U + F|U^2 over X1 X2 (X1-X2) Y1 Y2 (Y1+Y2), for
    F the four-variable series ``n`` over X1 X2 Y1 Y2.

    U sends (X1, X2, Y1, Y2) to (X1-X2, X1, -Y2, Y1+Y2) and U^2 to
    (-X2, X1-X2, -(Y1+Y2), Y1), so X1 X2 Y1 Y2 goes to -X1 (X1-X2) Y2 (Y1+Y2)
    and to X2 (X1-X2) Y1 (Y1+Y2), and the numerator is

        n (X1-X2)(Y1+Y2) - n|U X2 Y1 + n|U^2 X1 Y2,

    exact through the cap of ``n`` plus two.  For n = C(X1;Y1) C(X2;Y2) this
    is the cleared three-term Fay sum of :func:`fay_check`.
    """
    u = MATRICES["U"]
    quadratic = MultiPoly.from_form((1, -1, 0, 0)) * MultiPoly.from_form((0, 0, 1, 1))
    x2y1, x1y2 = (MultiPoly.monomial(exps, Fraction(1)) for exps in ((0, 1, 1, 0), (1, 0, 0, 1)))
    return n * quadratic - act(u, n) * x2y1 + act(u * u, n) * x1y2


def fay_check(regular, degree: int) -> bool:
    """Verify the three-term Fay identity for -(1/X+1/Y)/2 + regular.

    The three products are summed after clearing the common denominator
    X1 X2 (X1-X2) Y1 Y2 (Y1+Y2); with C(X;Y) := X Y f(X;Y) the cleared sum is

        C(X1,Y1) C(X2,Y2) (X1-X2)(Y1+Y2)
      - C(X1-X2,-Y2) C(X1,Y1+Y2) X2 Y1
      + C(-X2,-(Y1+Y2)) C(X1-X2,Y1) X1 Y2,

    the 1 + U + U^2 condition of the bi-period space on C(X1;Y1) C(X2;Y2)
    (:func:`fay_numerator`).  It must vanish identically up to total degree
    ``degree`` + 5: every C is exact through ``degree`` + 2 and starts in
    degree 1, so a product of two is exact through ``degree`` + 3, and times
    the quadratic through ``degree`` + 5, which reaches the entries of the
    table through ``degree``.  The sum is
    formed in the coefficients of ``regular`` (rationals, q-series or atom
    combinations), and only at the end is each coefficient tested by
    :func:`_vanishes`.
    """
    return _vanishes(fay_numerator(pair_product(_cleared(regular, degree))))


def kronecker_wplus_candidate(regular, degree: int) -> MultiPoly:
    """The two-point product f(X1;Y1) f(X2;Y2) of f = -(1/X+1/Y)/2 + regular,
    as the numerator C(X1;Y1) C(X2;Y2) over X1 X2 Y1 Y2, exact through total
    degree ``degree`` of the product.

    ``regular`` is read through ``degree`` + 1, so each C is exact through
    ``degree`` + 3 and starts in degree 1, and the numerator is exact
    through ``degree`` + 4.  With ``regular`` None it is the numerator of the
    product of the two poles, (1/4)(1/X1 + 1/Y1)(1/X2 + 1/Y2).
    """
    return pair_product(_cleared(regular, degree + 1))


def wplus_check(numerator: MultiPoly, degree: int) -> bool:
    """Test membership in the odd/symmetric bi-period space.

    The candidate is ``numerator`` over X1 X2 Y1 Y2.  It belongs to the
    space when its images under 1 + U + U^2, 1 + S and 1 - epsilon all
    vanish.  S sends (X1, X2, Y1, Y2) to (-X2, X1, -Y2, Y1) and epsilon to
    (X2, X1, Y2, Y1); both fix X1 X2 Y1 Y2, so the last two conditions are
    the images of the numerator itself, and the first is
    :func:`fay_numerator`.  They are compared through total degree
    ``degree`` of the candidate, so through ``degree`` + 4 of the numerator
    (and ``degree`` + 6 of the 1 + U + U^2 numerator, whose denominator
    has degree 6), each coefficient tested by :func:`_vanishes`.  A
    numerator exact through less is rejected rather than checked short.
    """
    through = degree + 4
    if numerator.cap is not None and numerator.cap < through:
        raise ValueError(f"the candidate's numerator is exact through degree {numerator.cap}, "
                         f"not the {through} that degree {degree} needs")
    n = numerator.truncate(through)
    return (_vanishes(fay_numerator(n))
            and _vanishes(act_group_ring(1 + _GR(MATRICES["S"]), n))
            and _vanishes(act_group_ring(1 - _EPS, n)))


# -- coefficient extraction ---------------------------------------------------

@cache
def _image(gen: GenId) -> tuple[tuple[tuple, Fraction], ...]:
    """The atom combination of one generator, as (monomial, rational) pairs.

    G(k;d) is d! times its coefficient in b1 and G(k1,k2;d1,d2) is d1! d2!
    times its coefficient in b2, each read at the generator's weight;
    P(k1,k2;d1,d2) is the product of the images of G(k1;d1) and G(k2;d2).
    """
    if gen.space != EISENSTEIN:
        raise ValueError("the Kronecker realization is defined on the Eisenstein space")
    if gen.kind == "GP":
        k1, k2, d1, d2 = gen.args
        c = Combination(_image(G1(k1, d1))) * Combination(_image(G1(k2, d2)))
    else:
        exps, scale = generating_monomial(gen)
        series = symbolic_b1(gen.weight - 1) if gen.kind == "G1" else _b2_piece(gen.weight - 2)
        c = (series.coefficient(exps) or Combination()) * scale
    return tuple(c.items())


class KroneckerRealization:
    """The Kronecker realization at one q-order: a generator's cached atom
    combination, or the linear extension of those of an element's generators,
    evaluated once at the q-order by :func:`.eisenstein.evaluate_atoms`."""

    def __init__(self, q_order: int):
        if q_order < 0:
            raise ValueError(f"q-order must be >= 0, got {q_order}")
        self.q_order = q_order

    def value(self, gen: GenId) -> QSeries:
        return evaluate_atoms(_image(gen), self.q_order)

    def element_value(self, element: FormalElement) -> QSeries:
        return evaluate_atoms(linear_extension(_image, element._terms.items()).items(), self.q_order)


def realize_kronecker(gen: GenId, q_order: int) -> QSeries:
    """The q-series value of one generator under the Kronecker realization."""
    return KroneckerRealization(q_order).value(gen)


def realize_element(element: FormalElement, q_order: int) -> QSeries:
    """Linear extension of the Kronecker realization to an element."""
    return KroneckerRealization(q_order).element_value(element)


def realize_bernoulli(gen: GenId) -> Fraction:
    """The constant term of the Kronecker value: the rational realization."""
    return realize_kronecker(gen, 0).coefficient(0)


def closed_form_depth2(k1: int, k2: int, q_order: int) -> QSeries:
    """The quasimodular closed form of the depth-two value at (d1, d2) = (0, 0).

    For k1 + k2 >= 4 even this is the explicit combination of products
    G_{l1} G_{l2}, the single series G_{k1+k2}, and first derivatives; the
    coefficients of the derivative terms involve 1/(k-2), so the weight-2
    case (k1 = k2 = 1) is taken from the harmonic-product row instead,
    where it equals -G_2/2.
    """
    k = k1 + k2
    if k % 2:
        raise ValueError("the closed form applies to even total weight only")
    if min(k1, k2) < 1:
        raise ValueError("row indices must be >= 1")
    if k == 2:
        return eisenstein_qexp(2, q_order) * Fraction(-1, 2)

    def gprime(m: int) -> QSeries:
        if m == 1:
            return eisenstein_qexp(2, q_order)
        return derived_eisenstein(m, 1, q_order)

    sign1 = (-1) ** k1
    out = eisenstein_qexp(k1, q_order) * eisenstein_qexp(k2, q_order) * Fraction(1, 3)
    for l1 in range(2, k - 1, 2):
        l2 = k - l1
        c = Fraction(sign1, 3) * comb(l2 - 1, k1 - 1)
        if c:
            out = out + eisenstein_qexp(l1, q_order) * eisenstein_qexp(l2, q_order) * c
    c = Fraction(5 + 3 * sign1 * comb(k - 1, k1 - 1) - sign1 * comb(k - 1, k1), 12)
    out = out - eisenstein_qexp(k, q_order) * c
    if k2 == 1:
        out = out - gprime(k1 - 1) * Fraction(5, 12 * (k1 - 1))
    if k1 == 1:
        out = out + gprime(k2 - 1) * Fraction(1, 4 * (k2 - 1))
    out = out + gprime(k - 2) * (Fraction((-1) ** k2, 12 * (k - 2)) * comb(k - 2, k1 - 1))
    return out


def check_derivation_diagram(weight: int, q_order: int) -> bool:
    """q d/dq of every realized weight generator equals the realized image
    of the weight-raising map, compared to order q_order - 1."""
    if q_order < 1:
        raise ValueError("the diagram check needs q-order >= 1")
    ctx = KroneckerRealization(q_order)
    n = q_order - 1
    for gen in enumerate_generators(EISENSTEIN, weight):
        lhs = ctx.value(gen).qderive()
        rhs = ctx.element_value(map_partial(FormalElement.single(gen)))
        if lhs.truncate(n) != rhs.truncate(n):
            return False
    return True


def kronecker_wplus_check(degree: int) -> bool:
    """Membership of the two-point Kronecker product in the bi-period space,
    through total degree ``degree``, built over the atoms of :func:`symbolic_b1`."""
    candidate = kronecker_wplus_candidate(symbolic_b1(degree + 1), degree)
    return wplus_check(candidate, degree)
