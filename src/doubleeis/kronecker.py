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
Both are built once with :class:`AtomCombination` coefficients.  Like the
maps of :mod:`.maps`, the realization caches one image per generator, its
atom combination, and extends linearly by :func:`.elements.linear_extension`.
A combination is evaluated at the q-order asked for as the sum of product
series times rationals, read from the one product cache of
:mod:`.eisenstein`; the series hold integer numerators over one
denominator, so their products and sums run on integers (see
:mod:`.series`).  The cleared Fay sum is formed over the atoms in the same
way; each coefficient is evaluated once, at the q-order asked for, which
still bounds the comparison.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

from .action import GroupRingElem, MATRICES, act_group_ring
from .eisenstein import derived_eisenstein, eisenstein_qexp, product_series
from .elements import EISENSTEIN, FormalElement, G1, GenId, generating_monomial, linear_extension
from .maps import map_partial
from .multipoly import (
    LinForm,
    MultiPoly,
    RationalFunction4,
    X1,
    X2,
    Y1,
    Y2,
    divided_difference,
)
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
    return symbolic_b1(degree).map_coefficients(lambda c: c.evaluate(q_order))


def _at(t: MultiPoly, x: LinForm, y: LinForm) -> MultiPoly:
    """t(x; y) for a depth-one series t(X1; Y1)."""
    return t.substitute((x, X2, y, Y2))


def _require_odd(b1: MultiPoly):
    bad = [k for k in b1._t if sum(k) % 2 == 0]
    if bad:
        raise ValueError(f"depth-one table must be odd; even-degree entries at {sorted(bad)[:3]}")


def pair_product(b1, degree: int | None = None) -> MultiPoly:
    """b1(X1; Y1) * b1(X2; Y2) as a four-variable series, exact through ``degree``."""
    if degree is not None:
        b1 = b1.truncate(max(degree - 1, 0))  # each factor of an odd table starts in degree 1
    return b1 * _at(b1, X2, Y2)


def double_shuffle_form(a, b, c, p: MultiPoly, t: MultiPoly, degree: int | None = None) -> MultiPoly:
    """P|a + R*|b + Rsh|c for group-ring elements a, b, c, a product series P
    and a depth-one series t, whose divided differences R* and Rsh are kept
    through ``degree`` (entirely for None): the form of :func:`build_b2` and
    of the parity identity of :mod:`.identities`."""
    rstar = divided_difference(t, "star").truncate(degree)
    rshuffle = divided_difference(t, "shuffle").truncate(degree)
    return act_group_ring(a, p) + act_group_ring(b, rstar) + act_group_ring(c, rshuffle)


_GR = GroupRingElem.matrix
_TINV, _U, _EPS = _GR(MATRICES["T"].inverse()), _GR(MATRICES["U"]), _GR(MATRICES["epsilon"])
#: b2 is 1/12 of the double-shuffle form with these (a, b, c)
_B2_FORM = (4 + 4 * _TINV, -(5 - 3 * _U + _U * _EPS), -_TINV * (5 - 3 * _EPS + _U))


def build_b2(b1, degree: int) -> MultiPoly:
    """Solve the double-shuffle system in depth two from an odd depth-one table.

    Returns (1/12) (P|(4 + 4T^-1) - R*|(5 - 3U + U epsilon)
    - Rsh|T^-1 (5 - 3 epsilon + U)) with P = b1(X1;Y1) b1(X2;Y2); the
    result satisfies  P = b2|(1+epsilon) + R*  =  b2|T(1+epsilon) + Rsh
    coefficientwise below the truncation.  The input table must carry
    entries one degree beyond the requested output degree, because divided
    differences lower the exact degree by one.  The coefficients may be
    q-series or :class:`AtomCombination` values.
    """
    _require_odd(b1)
    if b1.cap is not None and b1.cap < degree + 1:
        raise ValueError(f"need depth-one entries to degree {degree + 1}, have {b1.cap}")
    return double_shuffle_form(*_B2_FORM, pair_product(b1, degree), b1, degree) * Fraction(1, 12)


# -- the symbolic b1 and b2 ----------------------------------------------------

class AtomCombination(dict):
    """A coefficient of the symbolic b1 or b2: a map from monomials to rationals.

    The atom (k, m) stands for (q d/dq)^m G_k and a monomial is a sorted
    tuple of atoms; the empty monomial ``()`` is the constant 1, so a plain
    rational added to a combination becomes a multiple of it.  The series
    and group-ring code needs sums, negation, products and truthiness of a
    coefficient, so no term is zero: the constructor takes nonzero terms,
    and each operation drops the terms that cancel as it builds its result.
    """

    __slots__ = ()

    def __add__(self, other) -> "AtomCombination":
        if not isinstance(other, AtomCombination):
            other = {(): other}  # a rational is a multiple of the empty monomial
        t = AtomCombination(self)
        for m, c in other.items():
            v = t.get(m, 0) + c
            if v:
                t[m] = v
            else:
                t.pop(m, None)
        return t

    __radd__ = __add__

    def __neg__(self) -> "AtomCombination":
        return AtomCombination({m: -c for m, c in self.items()})

    def __mul__(self, other) -> "AtomCombination":
        if not isinstance(other, AtomCombination):
            if not other:
                return AtomCombination()
            return AtomCombination({m: c * other for m, c in self.items()})
        t = AtomCombination()
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                m = tuple(sorted(m1 + m2))
                v = t.get(m, 0) + c1 * c2
                if v:
                    t[m] = v
                else:
                    t.pop(m, None)
        return t

    __rmul__ = __mul__

    def evaluate(self, q_order: int) -> QSeries:
        """The combination as a q-series truncated at ``q_order``."""
        total = QSeries.zero(q_order)
        for m, c in self.items():
            total = total + product_series(m, q_order) * c
        return total


@cache
def symbolic_b1(degree: int) -> MultiPoly:
    """The series of :func:`kronecker_b1` with one atom (k, m) per coefficient."""
    terms = {}
    for r in range(degree + 1):
        for s in range(degree + 1 - r):
            if (r + s) % 2:  # otherwise k = |r-s|+1 is odd and G_k vanishes
                c = Fraction(factorial(abs(r - s)), factorial(r) * factorial(s))
                terms[(r, 0, s, 0)] = AtomCombination({((abs(r - s) + 1, min(r, s)),): c})
    return MultiPoly(terms, degree)


#: The largest symbolic b2 built so far; it serves every smaller degree, so
#: a request builds only up to the degree it needs.
_symbolic_b2: MultiPoly | None = None


def symbolic_b2(degree: int) -> MultiPoly:
    """The depth-two series to at least total degree ``degree``, with atom coefficients."""
    global _symbolic_b2
    b2 = _symbolic_b2  # read once: another thread may replace it meanwhile
    if b2 is None or b2.cap < degree:
        b2 = _symbolic_b2 = build_b2(symbolic_b1(degree + 1), degree)
    return b2


# -- the Fay identity and the bi-period space -----------------------------------

def _cleared(include_pole: bool, regular, degree: int) -> MultiPoly:
    """C(X;Y) = X Y f(X;Y) for f = -(1/X+1/Y)/2 * [pole] + regular.

    ``regular`` is kept through total degree ``degree`` (``None`` is zero),
    so C is exact through ``degree`` + 2; with the pole it starts in degree 1.
    """
    regular = MultiPoly.zero(degree) if regular is None else regular.truncate(degree)
    c = MultiPoly.monomial((1, 0, 1, 0), Fraction(1)) * regular
    if include_pole:  # X Y times the pole, an exact polynomial
        half = Fraction(-1, 2)
        c = c + MultiPoly({(1, 0, 0, 0): half, (0, 0, 1, 0): half})
    return c


def _at_order(c, q_order: int):
    """A coefficient as a q-series truncated at ``q_order``; a rational stays as it is."""
    if isinstance(c, AtomCombination):
        return c.evaluate(q_order)
    if isinstance(c, QSeries):
        return c.truncate(min(c.order, q_order))
    return c


def _vanishes(p: MultiPoly, q_order: int) -> bool:
    """Whether every stored coefficient of p is zero to q-order ``q_order``."""
    return not p.map_coefficients(lambda c: _at_order(c, q_order))


def fay_check(include_pole: bool, regular, degree: int, q_order: int) -> bool:
    """Verify the three-term Fay identity for -(1/X+1/Y)/2 * [pole] + regular.

    The three products are summed after clearing the common denominator
    X1 X2 (X1-X2) Y1 Y2 (Y1+Y2); with C(X;Y) := X Y f(X;Y) the cleared sum is

        C(X1,Y1) C(X2,Y2) (X1-X2)(Y1+Y2)
      - C(X1-X2,-Y2) C(X1,Y1+Y2) X2 Y1
      + C(-X2,-(Y1+Y2)) C(X1-X2,Y1) X1 Y2

    which must vanish identically up to total degree ``degree`` + 5 and
    q-order ``q_order``: every C is exact through ``degree`` + 2 and starts
    in degree 1, so a product of two is exact through ``degree`` + 3, and
    times the quadratic through ``degree`` + 5, which reaches the entries of
    the table through ``degree``.  The sum is formed in the coefficients of
    ``regular`` (rationals, q-series or :class:`AtomCombination` values), and
    only its coefficients are taken to q-order ``q_order`` at the end.
    """
    c = _cleared(include_pole, regular, degree)
    x1mx2 = (1, -1, 0, 0)
    y1py2 = (0, 0, 1, 1)
    neg = lambda f: tuple(-v for v in f)

    def term(a: MultiPoly, b: MultiPoly, f: LinForm, g: LinForm) -> MultiPoly:
        return a * b * (MultiPoly.from_form(f) * MultiPoly.from_form(g))

    t1 = term(c, _at(c, X2, Y2), x1mx2, y1py2)
    t2 = term(_at(c, x1mx2, neg(Y2)), _at(c, X1, y1py2), X2, Y1)
    t3 = term(_at(c, neg(X2), neg(y1py2)), _at(c, x1mx2, Y1), X1, Y2)
    return _vanishes(t1 - t2 + t3, q_order)


def kronecker_wplus_candidate(regular, degree: int) -> RationalFunction4:
    """The two-point product f(X1;Y1) f(X2;Y2) of f = -(1/X+1/Y)/2 + regular,
    as C(X1;Y1) C(X2;Y2) over X1 Y1 X2 Y2, exact through total degree ``degree``.

    ``regular`` is read through ``degree`` + 1, so each C is exact through
    ``degree`` + 3 and starts in degree 1, and the numerator is exact
    through ``degree`` + 4.  With ``regular`` None it is the product of the
    two poles, (1/4)(1/X1 + 1/Y1)(1/X2 + 1/Y2).
    """
    c = _cleared(True, regular, degree + 1)
    return RationalFunction4(c * _at(c, X2, Y2), {0: 1, 1: 1, 2: 1, 3: 1})


WPLUS_CONDITIONS = (1 + _U + _U * _U, 1 + _GR(MATRICES["S"]), 1 - _EPS)


def wplus_check(candidate: RationalFunction4, degree: int, q_order: int) -> bool:
    """Test membership in the odd/symmetric bi-period space.

    The candidate belongs to the space when its images under 1 + U + U^2,
    1 + S and 1 - epsilon all vanish.  They are compared through total
    degree ``degree`` of the candidate, so through ``degree`` + 4 of a
    numerator over X1 Y1 X2 Y2 (``degree`` plus the denominator degree in
    general), with coefficients taken to q-order ``q_order``.  Each image
    is cross-multiplied to a common denominator, which keeps its numerator
    exact through the same degree.  A numerator exact through less is
    rejected rather than checked short.
    """
    through = degree + candidate.den_degree()
    num = candidate.num
    if num.cap is not None and num.cap < through:
        raise ValueError(f"the candidate's numerator is exact through degree {num.cap}, "
                         f"not the {through} that degree {degree} needs")
    candidate = RationalFunction4(num.truncate(through), candidate.den)
    return all(_vanishes(act_group_ring(condition, candidate).num, q_order)
               for condition in WPLUS_CONDITIONS)


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
        c = AtomCombination(_image(G1(k1, d1))) * AtomCombination(_image(G1(k2, d2)))
    else:
        exps, scale = generating_monomial(gen)
        series = symbolic_b1(gen.weight - 1) if gen.kind == "G1" else symbolic_b2(gen.weight - 2)
        c = (series.coefficient(exps) or AtomCombination()) * scale
    return tuple(c.items())


class KroneckerRealization:
    """The Kronecker realization at one q-order: a generator's cached atom
    combination, or the linear extension of those of an element's generators,
    evaluated once at the q-order."""

    def __init__(self, q_order: int):
        self.q_order = q_order

    def value(self, gen: GenId) -> QSeries:
        return AtomCombination(_image(gen)).evaluate(self.q_order)

    def element_value(self, element: FormalElement) -> QSeries:
        return AtomCombination(linear_extension(_image, element._terms.items())).evaluate(self.q_order)


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


def kronecker_wplus_check(degree: int, q_order: int) -> bool:
    """Membership of the two-point Kronecker product in the bi-period space,
    through total degree ``degree`` and q-order ``q_order``."""
    candidate = kronecker_wplus_candidate(kronecker_b1(degree + 1, q_order), degree)
    return wplus_check(candidate, degree, q_order)
