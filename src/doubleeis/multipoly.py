"""Truncated polynomial series in X1, X2, Y1, Y2.

:class:`MultiPoly` is the one four-variable carrier: of depth-two
generating series, of the matrix action, and of the numerators of the
polar series the Fay and bi-period checks clear over a fixed product of
linear forms.  A depth-one series t(X; Y) is stored in the X1 and Y1
slots, with exponents (r, 0, s, 0), so t(u; v) is
``substitute((u, X2, v, Y2))``.

Coefficients are generic: exact Fractions, QSeries, or any value supporting
addition, negation, multiplication by scalars and truthiness (used to drop
zero terms).  A series is exact through total degree ``cap``; a cap of
``None`` marks an exact polynomial that never truncates.  Sums keep the
smaller cap; a product is exact through min(cap(A) + val(B), cap(B) + val(A)),
val the lowest stored degree (cap + 1 for a truncated zero, unbounded for an
exact zero), so stored coefficients are always exact and no caller decides
how far a product holds.

A substitution, and the group-ring action of a sum of n times
substitutions, are cases of :func:`substitute_sums`, a sum of such sums
over several series.  Every image keeps the X and Y variables apart, as
the matrices of the action and every t(x; y) do, so a monomial's image
under one substitution is its X factor times its Y factor, each the image
of a two-variable monomial; only those factors are cached.  Each monomial
is expanded once for the whole sum, into integers, and each output
coefficient is formed once from the (coefficient, integer n) pairs that
land on its monomial; a product forms each of its coefficients once from
the (coefficient, coefficient) pairs of the same monomial.  Coefficients
that are rational combinations (:class:`.elements.Combination`) are summed
on integers: ``Combination.integer_form`` writes one value, or a rational
beside such values, as integer numerators over one denominator, once per
coefficient of an operand, and ``Combination.product_sum`` sums x * y over
pairs of such forms, with one Fraction per key of the result.  Other
coefficients are summed with their own ``*`` and ``+``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Literal

from .elements import Combination

LinForm = tuple[int, int, int, int]

X1: LinForm = (1, 0, 0, 0)
X2: LinForm = (0, 1, 0, 0)
Y1: LinForm = (0, 0, 1, 0)
Y2: LinForm = (0, 0, 0, 1)


@cache
def _block_power(f: tuple[int, int], g: tuple[int, int], a: int, b: int) -> tuple[tuple[int, int, int], ...]:
    """(f0 u + f1 v)^a (g0 u + g1 v)^b in two variables u, v, as ((i, j, integer), ...)
    for its u^i v^j terms: the image of one block's monomial under a block substitution."""
    if a == b == 0:
        return ((0, 0, 1),)
    (p, q), prev = (g, _block_power(f, g, a, b - 1)) if b else (f, _block_power(f, g, a - 1, 0))
    acc: dict[tuple[int, int], int] = {}
    for i, j, n in prev:
        if p:
            acc[i + 1, j] = acc.get((i + 1, j), 0) + n * p
        if q:
            acc[i, j + 1] = acc.get((i, j + 1), 0) + n * q
    return tuple((i, j, n) for (i, j), n in acc.items() if n)


def _blocks(combo) -> tuple:
    """Each (n, images) of ``combo`` as (n, X1, X2, Y1, Y2 images in two variables).

    Raises ValueError unless the X images lie in X1, X2 and the Y images in
    Y1, Y2, as for every matrix of the action and every t(x; y).
    """
    out = []
    for n, (x1, x2, y1, y2) in combo:
        if any(x1[2:] + x2[2:] + y1[:2] + y2[:2]):
            raise ValueError(f"the images {(x1, x2, y1, y2)} mix the X and Y variables")
        out.append((n, x1[:2], x2[:2], y1[2:], y2[2:]))
    return tuple(out)


def _expansion(blocks: tuple, exps: tuple[int, int, int, int]) -> dict[tuple[int, int, int, int], int]:
    """Sum of n times the monomial with the given exponents under each block
    substitution of ``blocks`` (from :func:`_blocks`), as {exponents: integer}:
    each term is its X factor times its Y factor, both from :func:`_block_power`."""
    a, b, c, d = exps
    acc: dict[tuple[int, int, int, int], int] = {}
    for n, x1, x2, y1, y2 in blocks:
        ys = _block_power(y1, y2, c, d)
        for i, j, u in _block_power(x1, x2, a, b):
            u *= n
            for k, l, v in ys:
                acc[i, j, k, l] = acc.get((i, j, k, l), 0) + u * v
    return acc


def _same(c):
    return c


def _sum_of_products(pairs: list):
    """The sum of x * y over the pairs, by the coefficients' own * and +."""
    return sum((x * y for x, y in pairs[1:]), pairs[0][0] * pairs[0][1])


def _combiner(coefficients) -> tuple[Callable, Callable]:
    """(prepare, combine) for these coefficients: ``combine`` sums x * y over a
    list of pairs of prepared values, coefficients or integers, each value
    prepared once.

    When the coefficients other than rationals are all
    :class:`.elements.Combination` values, they are its ``integer_form`` and
    ``product_sum``, which sum on integers; otherwise (q-series, formal
    elements, or a mix of kinds) each value is itself and the pairs are
    summed with * and +.
    """
    if {type(c) for c in coefficients} - {int, Fraction} == {Combination}:
        return Combination.integer_form, Combination.product_sum
    return _same, _sum_of_products


def _min_cap(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _val(p: "MultiPoly") -> int | None:
    """The lowest degree a series can have; None for an exact zero."""
    if p._t:
        return min(map(sum, p._t))
    return None if p.cap is None else p.cap + 1


def _product_cap(a: "MultiPoly", b: "MultiPoly") -> int | None:
    """min(cap(a) + val(b), cap(b) + val(a)) over the bounds that exist."""
    bounds = [c + v for c, v in ((a.cap, _val(b)), (b.cap, _val(a))) if None not in (c, v)]
    return min(bounds, default=None)


class MultiPoly:
    """Truncated series in X1, X2, Y1, Y2 with generic coefficients."""

    __slots__ = ("_t", "cap")

    def __init__(self, terms=(), cap: int | None = None):
        t = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for exps, c in items:
            exps = tuple(exps)
            if cap is not None and sum(exps) > cap:
                continue
            if c:
                t[exps] = t[exps] + c if exps in t else c
        self._t = {k: v for k, v in t.items() if v}
        self.cap = cap

    @classmethod
    def zero(cls, cap: int | None = None) -> "MultiPoly":
        return cls((), cap)

    @classmethod
    def monomial(cls, exps, coefficient, cap: int | None = None) -> "MultiPoly":
        return cls([(tuple(exps), coefficient)], cap)

    @classmethod
    def from_form(cls, f: LinForm) -> "MultiPoly":
        """A linear form as an exact polynomial with Fraction coefficients."""
        terms = []
        for i, c in enumerate(f):
            if c:
                exps = tuple(1 if j == i else 0 for j in range(4))
                terms.append((exps, Fraction(c)))
        return cls(terms, None)

    def terms(self):
        """Deterministically ordered (exponents, coefficient) pairs."""
        return sorted(self._t.items())

    def coefficient(self, exps):
        return self._t.get(tuple(exps))

    def __bool__(self) -> bool:
        return bool(self._t)

    def truncate(self, cap: int | None) -> "MultiPoly":
        if cap is None or (self.cap is not None and cap >= self.cap):
            return self
        return MultiPoly({k: v for k, v in self._t.items() if sum(k) <= cap}, cap)

    def map_coefficients(self, fn: Callable) -> "MultiPoly":
        return MultiPoly({k: fn(v) for k, v in self._t.items()}, self.cap)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({k: -v for k, v in self._t.items()}, self.cap)

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        cap = _min_cap(self.cap, other.cap)
        a = self.truncate(cap)
        b = other.truncate(cap)
        t = dict(a._t)
        for k, v in b._t.items():
            t[k] = t[k] + v if k in t else v
        return MultiPoly(t, cap)

    def __sub__(self, other) -> "MultiPoly":
        return self.__add__(-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return self.product(other)
        # scalar
        if not other:
            return MultiPoly.zero(self.cap)
        return MultiPoly({k: v * other for k, v in self._t.items()}, self.cap)

    __rmul__ = __mul__

    def product(self, other: "MultiPoly", lowest: int = 0) -> "MultiPoly":
        """``self * other``, only its pieces of total degree ``lowest`` and up:
        each output coefficient is formed once from the (coefficient,
        coefficient) pairs that land on its monomial."""
        cap = _product_cap(self, other)
        prepare, combine = _combiner([*self._t.values(), *other._t.values()])
        right = [(k2, sum(k2), prepare(c2)) for k2, c2 in other._t.items()]
        pairs: dict = {}
        for k1, c1 in self._t.items():
            d1 = sum(k1)
            f1 = prepare(c1)
            for k2, d2, f2 in right:
                if d1 + d2 < lowest or cap is not None and d1 + d2 > cap:
                    continue
                key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3])
                pairs.setdefault(key, []).append((f1, f2))
        return MultiPoly({key: combine(ps) for key, ps in pairs.items()}, cap)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        cap = _min_cap(self.cap, other.cap)
        a = self.truncate(cap)._t
        b = other.truncate(cap)._t
        if set(a) != set(b):
            return False
        return all(a[k] == b[k] for k in a)

    __hash__ = None

    def substitute(self, images: tuple[LinForm, LinForm, LinForm, LinForm]) -> "MultiPoly":
        """Replace each variable by a linear form, exactly below the cap: the
        one-term case of :func:`substitute_sums`."""
        return substitute_sums([(self, ((1, images),))])

    def partial(self, var: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable index 0..3."""
        t = {}
        for exps, c in self._t.items():
            e = exps[var]
            if e:
                key = tuple(v - (1 if i == var else 0) for i, v in enumerate(exps))
                t[key] = t[key] + c * e if key in t else c * e
        return MultiPoly(t, None if self.cap is None else self.cap - 1)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in list(self.terms())[:4])
        more = "" if len(self._t) <= 4 else f", ... ({len(self._t)} terms)"
        return f"MultiPoly({{{inner}{more}}}, cap={self.cap})"


def substitute_sums(parts) -> MultiPoly:
    """The sum of n times p under the substitution ``images``, over the
    (n, images) of ``combo`` and the (p, combo) parts, exact through the
    smallest cap, in one pass: each monomial is expanded once for its whole
    combination, and each output coefficient is formed once from the
    (coefficient, integer) pairs that land on its monomial from every part.
    The images must keep the X and Y variables apart (:func:`_blocks`)."""
    parts = [(p, _blocks(tuple((n, tuple(map(tuple, images))) for n, images in combo))) for p, combo in parts]
    cap = None
    for p, _ in parts:
        cap = _min_cap(cap, p.cap)
    prepare, combine = _combiner([c for p, _ in parts for c in p._t.values()])
    lift = cache(prepare)  # the integers n are few, so each is prepared once
    pairs: dict = {}
    for p, blocks in parts:
        for exps, c in p._t.items():
            if cap is not None and sum(exps) > cap:
                continue  # a substitution keeps the degree
            f = prepare(c)
            for key, n in _expansion(blocks, exps).items():
                if n:
                    pairs.setdefault(key, []).append((f, lift(n)))
    return MultiPoly({key: combine(ps) for key, ps in pairs.items()}, cap)


def divided_difference(t: MultiPoly, mode: Literal["star", "shuffle"]) -> MultiPoly:
    """The two divided-difference images of a depth-one series t(X1; Y1).

    ``star`` returns (t(X1; Y1+Y2) - t(X2; Y1+Y2)) / (X1 - X2) and
    ``shuffle`` returns (t(X1+X2; Y1) - t(X1+X2; Y2)) / (Y1 - Y2), both
    computed by the telescoping identity
    (u^a - v^a)/(u - v) = sum_i u^i v^(a-1-i), so the result is an exact
    polynomial division with no series inversion.  The output is exact one
    degree below the input's cap.
    """
    if mode not in ("star", "shuffle"):
        raise ValueError(f"unknown divided-difference mode {mode!r}")
    # shuffle is star conjugated by the slot swap X <-> Y: (a, b, s, u) -> (s, u, a, b)
    swap = mode == "shuffle"
    terms = []
    for (a, _, s, _), c in t._t.items():
        if swap:
            a, s = s, a
        ypows = _block_power((1, 1), (0, 1), s, 0)  # (Y1+Y2)^s
        for i in range(a):
            for y1, y2, yc in ypows:
                terms.append(((y1, y2, i, a - 1 - i) if swap else (i, a - 1 - i, y1, y2), c * yc))
    return MultiPoly(terms, None if t.cap is None else t.cap - 1)
