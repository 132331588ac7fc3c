"""Formal generators and sparse rational combinations of them.

Two families of symbols are supported, never mixed inside one element:

* Eisenstein-space generators ``G(k;d)``, ``G(k1,k2;d1,d2)`` and
  ``P(k1,k2;d1,d2)`` of weight k+d resp. k1+k2+d1+d2;
* zeta-space generators ``Z(k)``, ``Z(k1,k2)`` and ``ZP(k1,k2)`` of weight
  k resp. k1+k2.

Generators are interned: each is one object, validated once when it is
first named, that carries its space, weight and hash, so equal generators
are identical and hashing one costs an attribute read.

The text syntax of a generator is decided here, once: ``_FORMS`` gives each
kind's text form, ``str(g)`` writes it, and ``GENERATOR_PATTERN`` reads it,
for :func:`parse_genid` and for the expression parser alike.  Digits are
ASCII; whitespace may stand inside the parentheses.  So are the monomial
that carries a generator in the generating series, the linear extension
of per-generator images that every linear map on generators uses, and
:class:`Combination`, the one class of map-valued series coefficients,
whose sums of products the series code forms; both sum as integer
numerators over one common denominator, one Fraction per key.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from math import factorial, lcm
from typing import Callable, Iterable, Mapping

EISENSTEIN = "E"
ZETA = "Z"

#: kind -> the text form of its generators: the k-indices, then after ';'
#: the d-indices, if the kind has any
_FORMS = {"G1": "G(%d;%d)", "G2": "G(%d,%d;%d,%d)", "GP": "P(%d,%d;%d,%d)",
          "Z1": "Z(%d)", "Z2": "Z(%d,%d)", "ZP": "ZP(%d,%d)"}
_KIND_ORDER = {"G1": 0, "G2": 1, "GP": 2, "Z1": 0, "Z2": 1, "ZP": 2}
_KIND_SPACE = {"G1": EISENSTEIN, "G2": EISENSTEIN, "GP": EISENSTEIN, "Z1": ZETA, "Z2": ZETA, "ZP": ZETA}


class MixedSpaceError(ValueError):
    """Eisenstein and zeta generators were combined in one element."""


class MixedWeightError(ValueError):
    """Generators of different weights were combined in one element."""


@total_ordering
class GenId:
    """One formal generator, identified by kind and index tuple.

    Kinds: ``G1`` = G(k;d), ``G2`` = G(k1,k2;d1,d2), ``GP`` = P(k1,k2;d1,d2),
    ``Z1`` = Z(k), ``Z2`` = Z(k1,k2), ``ZP`` = ZP(k1,k2).

    Generators are interned: ``GenId(kind, args)`` returns the one object for
    ``(kind, tuple(args))``, validated when it is first made, so equality is
    identity.  Each index must be an ``int``.  Generators are immutable and
    order by ``(kind, args)``; copies and unpickled generators are the same
    object.
    """

    __slots__ = ("kind", "args", "space", "weight", "_hash")

    def __new__(cls, kind: str, args: Iterable[int]):
        args = tuple(args)
        gen = _GENERATORS.get(kind, _EMPTY).get(args)
        if gen is not None:
            # a key can equal a made one through a non-int index, as 4.0 equals 4
            for a in args:
                if type(a) is not int:
                    break
            else:
                return gen
        return _intern(kind, args)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other):
        if other.__class__ is not GenId:
            return NotImplemented
        return (self.kind, self.args) < (other.kind, other.args)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the table: the same object
        return GenId, (self.kind, self.args)

    def __repr__(self) -> str:
        return f"GenId(kind={self.kind!r}, args={self.args!r})"

    def sort_key(self):
        # matches the enumeration order: depth one by increasing d, depth two
        # lexicographic in (k1, d1, k2, d2), zeta generators by first index
        if self.kind == "G1":
            return (0, (self.args[1],))
        if self.kind in ("G2", "GP"):
            k1, k2, d1, d2 = self.args
            return (_KIND_ORDER[self.kind], (k1, d1, k2, d2))
        return (_KIND_ORDER[self.kind], self.args)

    def __str__(self) -> str:
        return _FORMS[self.kind] % self.args


#: kind -> args -> the generator
_GENERATORS: dict[str, dict[tuple[int, ...], GenId]] = {kind: {} for kind in _FORMS}
_EMPTY: dict = {}


def _intern(kind: str, args: tuple) -> GenId:
    """Validate a new generator and enter it in the table; raise ValueError if invalid."""
    form = _FORMS.get(kind)
    if form is None:
        raise ValueError(f"unknown generator kind {kind!r}")
    expected = form.count("%d")
    if len(args) != expected:
        raise ValueError(f"{kind} takes {expected} indices, got {args}")
    if not all(type(a) is int for a in args):
        raise ValueError(f"invalid indices {args} for kind {kind}")
    if kind == "G1":
        k, d = args
        ok = k >= 1 and d >= 0
    elif kind in ("G2", "GP"):
        k1, k2, d1, d2 = args
        ok = k1 >= 1 and k2 >= 1 and d1 >= 0 and d2 >= 0
    else:
        ok = all(k >= 1 for k in args)
    if not ok:
        raise ValueError(f"invalid indices {args} for kind {kind}")
    gen = object.__new__(GenId)
    for attr, value in (("kind", kind), ("args", args), ("space", _KIND_SPACE[kind]),
                        ("weight", sum(args)), ("_hash", hash((kind, args)))):
        object.__setattr__(gen, attr, value)
    # setdefault is atomic, so two threads naming a new generator get one object
    return _GENERATORS[kind].setdefault(args, gen)


def G1(k: int, d: int) -> GenId:
    return GenId("G1", (k, d))


def G2(k1: int, k2: int, d1: int, d2: int) -> GenId:
    return GenId("G2", (k1, k2, d1, d2))


def GP(k1: int, k2: int, d1: int, d2: int) -> GenId:
    return GenId("GP", (k1, k2, d1, d2))


def Z1(k: int) -> GenId:
    return GenId("Z1", (k,))


def Z2(k1: int, k2: int) -> GenId:
    return GenId("Z2", (k1, k2))


def ZP(k1: int, k2: int) -> GenId:
    return GenId("ZP", (k1, k2))


def generating_monomial(gen: GenId) -> tuple[tuple[int, int, int, int], int]:
    """The exponents of X1, X2, Y1, Y2 whose generating-series coefficient is ``gen``
    over a factorial, and that factorial: ((k-1, 0, d, 0), d!) for G(k;d), and
    ((k1-1, k2-1, d1, d2), d1! d2!) for G or P(k1,k2;d1,d2)."""
    if gen.kind == "G1":
        k, d = gen.args
        return (k - 1, 0, d, 0), factorial(d)
    k1, k2, d1, d2 = gen.args
    return (k1 - 1, k2 - 1, d1, d2), factorial(d1) * factorial(d2)


def linear_extension(image: Callable, terms: Iterable[tuple[object, Fraction | int]]) -> dict:
    """The sum of c * image(x) over the (x, c) of ``terms``, for images of
    (key, rational) pairs and rational or integer c, as a map from key to
    nonzero total: the products are summed as integers over one common
    denominator, each total a Fraction once, as in :meth:`Combination.product_sum`.

    The images are read as rationals here rather than as integer forms:
    each image is used once per call, so forming it would cost more than
    it saves."""
    parts = [(h, c.numerator * w.numerator, c.denominator * w.denominator)
             for x, c in terms for h, w in image(x)]
    den = lcm(*(d for _, _, d in parts))
    acc: dict = {}
    for h, n, d in parts:
        acc[h] = acc.get(h, 0) + n * (den // d)
    return {h: Fraction(n, den) for h, n in acc.items() if n}


class Combination(dict):
    """A rational combination of keys: a map from keys to nonzero rationals.

    The coefficients of the symbolic series are combinations: of generators
    in the generating series of :mod:`.identities`, and of atom monomials in
    the symbolic b1 and b2 of :mod:`.kronecker`, which
    :func:`.eisenstein.evaluate_atoms` evaluates.  The unit key ``()`` stands
    for 1, so a plain rational added to a combination becomes a multiple of
    it.  The series and group-ring code needs sums, negation, products and
    truthiness of a coefficient, so no term is zero: the constructor takes
    nonzero terms, and each operation drops the terms that cancel.
    """

    __slots__ = ()

    @staticmethod
    def integer_form(value) -> tuple:
        """(den, ((key, num), ...)): a combination, or a rational as a multiple
        of the unit key (), as integer numerators over the lcm of its
        denominators, the form that :meth:`product_sum` multiplies."""
        if not isinstance(value, Combination):
            return value.denominator, (((), value.numerator),)
        den = lcm(*(c.denominator for c in value.values()))
        return den, tuple((h, c.numerator * (den // c.denominator)) for h, c in value.items())

    @staticmethod
    def product_sum(pairs: list[tuple[tuple, tuple]]) -> "Combination":
        """The sum of a * b over the pairs of forms of :meth:`integer_form`:
        the products are summed as integers over one common denominator, each
        total a Fraction once.  A product of two terms has the sorted join of
        their keys; the unit key () leaves the other key as it is, so a sum of
        n * c is the product sum with n as a form."""
        den = lcm(*(a[0] * b[0] for a, b in pairs))
        acc: dict = {}
        for (d1, t1), (d2, t2) in pairs:
            scale = den // (d1 * d2)
            for h2, v2 in t2:
                v2 *= scale
                if not h2:
                    for h1, v1 in t1:
                        acc[h1] = acc.get(h1, 0) + v1 * v2
                    continue
                for h1, v1 in t1:
                    h = tuple(sorted(h1 + h2)) if h1 else h2
                    acc[h] = acc.get(h, 0) + v1 * v2
        return Combination({h: Fraction(v, den) for h, v in acc.items() if v})

    def __add__(self, other) -> "Combination":
        if not isinstance(other, Combination):
            other = {(): other}  # a rational is a multiple of the unit key
        t = Combination(self)
        for h, c in other.items():
            v = t.get(h, 0) + c
            if v:
                t[h] = v
            else:
                t.pop(h, None)
        return t

    __radd__ = __add__

    def __neg__(self) -> "Combination":
        return Combination({h: -c for h, c in self.items()})

    def __mul__(self, other) -> "Combination":
        if not isinstance(other, Combination):
            if not other:
                return Combination()
            return Combination({h: c * other for h, c in self.items()})
        return self.product_sum([(self.integer_form(self), self.integer_form(other))])

    __rmul__ = __mul__


_INDEX = re.compile(r"[0-9]+")
_INDICES = r"[0-9]+(?:\s*,\s*[0-9]+)*"

#: one generator in the syntax of ``_FORMS``, as read by :func:`parse_genid`
#: and by the expression parser
GENERATOR_PATTERN = re.compile(rf"(?:ZP|G|P|Z)\(\s*{_INDICES}\s*(?:;\s*{_INDICES}\s*)?\)")


def generator_from_match(m: re.Match) -> GenId:
    """The generator that a match of ``GENERATOR_PATTERN`` names; raise ValueError
    if its form is no kind's, or an index is out of range."""
    form = _INDEX.sub("%d", "".join(m.group().split()))
    for kind, kind_form in _FORMS.items():
        if kind_form == form:
            return GenId(kind, [int(i) for i in _INDEX.findall(m.group())])
    raise ValueError(f"wrong index count in generator {m.group()!r}")


def parse_genid(text: str) -> GenId:
    """Parse one generator, G(k;d), G(k1,k2;d1,d2), P(...), Z(k), Z(k1,k2) or ZP(k1,k2),
    with surrounding whitespace allowed; raise ValueError on anything else."""
    m = GENERATOR_PATTERN.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"unrecognized generator {text!r}")
    return generator_from_match(m)


class FormalElement:
    """A sparse rational linear combination of same-weight, same-space generators."""

    __slots__ = ("space", "weight", "_terms")

    def __init__(self, terms: Mapping[GenId, Fraction] | Iterable = ()):
        items = terms.items() if hasattr(terms, "items") else terms
        acc: dict[GenId, Fraction] = {}
        for gen, c in items:
            if type(c) is not Fraction:
                c = Fraction(c)
            if not c:
                continue
            acc[gen] = acc[gen] + c if gen in acc else c
        acc = {g: c for g, c in acc.items() if c}
        space = weight = None
        for gen in acc:
            if space is None:
                space = gen.space
            elif gen.space != space:
                raise MixedSpaceError(f"{gen} does not live in the {space!r} space")
            if weight is None:
                weight = gen.weight
            elif gen.weight != weight:
                raise MixedWeightError(f"{gen} has weight {gen.weight}, expected {weight}")
        self.space = space
        self.weight = weight
        self._terms = acc

    @classmethod
    def _make(cls, space, weight, terms: dict) -> "FormalElement":
        el = object.__new__(cls)
        el.space = space
        el.weight = weight
        el._terms = terms
        return el

    @classmethod
    def single(cls, gen: GenId, coefficient=1) -> "FormalElement":
        c = Fraction(coefficient)
        if not c:
            return cls._make(gen.space, None, {})
        return cls._make(gen.space, gen.weight, {gen: c})

    @classmethod
    def zero(cls, space: str | None = None) -> "FormalElement":
        return cls._make(space, None, {})

    def terms(self) -> list[tuple[GenId, Fraction]]:
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def coefficient(self, gen: GenId) -> Fraction:
        return self._terms.get(gen, Fraction(0))

    def generators(self) -> set[GenId]:
        return set(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other) -> "FormalElement":
        if not isinstance(other, FormalElement):
            return NotImplemented
        space = self.space or other.space
        weight = self.weight if self.weight is not None else other.weight
        if other.space not in (None, space):
            raise MixedSpaceError("cannot combine elements of different spaces")
        if other.weight not in (None, weight):
            raise MixedWeightError(f"cannot combine weight {weight} with weight {other.weight}")
        t = dict(self._terms)
        for g, c in other._terms.items():
            s = t.get(g)
            if s is None:
                t[g] = c
            else:
                s = s + c
                if s:
                    t[g] = s
                else:
                    del t[g]
        return FormalElement._make(space, weight if t else None, t)

    def __sub__(self, other) -> "FormalElement":
        return self.__add__(-other)

    def __neg__(self) -> "FormalElement":
        return FormalElement._make(self.space, self.weight, {g: -c for g, c in self._terms.items()})

    def __mul__(self, scalar) -> "FormalElement":
        c = Fraction(scalar)
        if not c:
            return FormalElement._make(self.space, None, {})
        return FormalElement._make(self.space, self.weight, {g: v * c for g, v in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalElement):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def to_text(self) -> str:
        """Render in the expression grammar, e.g. ``5/2*G(4;0) - P(2,2;0,0)``."""
        if not self._terms:
            return "0"
        parts = []
        for gen, c in self.terms():
            mag = abs(c)
            body = str(gen) if mag == 1 else f"{mag}*{gen}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"FormalElement({self.to_text()})"
