"""Truncated power series in q with exact rational coefficients.

A series is stored as a list of integer numerators over one positive common
denominator, in lowest terms, so arithmetic runs on integers: a product is
an integer convolution, a sum scales both sides to the lcm of the two
denominators, and one gcd pass per result restores lowest terms.
Coefficients go in and come out as :class:`fractions.Fraction` values.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable


def _reduced(numerators: list[int], denominator: int) -> "QSeries":
    """The series ``numerators / denominator`` (denominator > 0) in lowest terms."""
    g = gcd(denominator, *numerators)
    if g != 1:
        numerators = [n // g for n in numerators]
        denominator //= g
    s = QSeries.__new__(QSeries)
    s._n = numerators
    s._d = denominator
    return s


class QSeries:
    """A power series in q stored up to a fixed truncation order.

    The coefficient of q^n, for n from 0 up to ``order`` inclusive, is
    ``_n[n] / _d`` with integers ``_n`` and ``_d > 0`` and
    gcd(_d, *_n) == 1, so equal series of one order are stored equally.
    Binary operations truncate at the smaller order of the two operands, so
    a coefficient is only ever reported when both inputs determine it
    exactly.  Instances are immutable.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, coefficients: Iterable[Fraction | int] = (), order: int | None = None):
        c = [x if type(x) is Fraction else Fraction(x) for x in coefficients]
        if order is not None:
            if order < 0:
                raise ValueError("truncation order must be >= 0")
            del c[order + 1 :]
        elif not c:
            raise ValueError("an empty coefficient list needs an explicit order")
        # over the lcm of reduced denominators the numerators share no factor with it
        d = lcm(*(x.denominator for x in c))
        self._n = [x.numerator * (d // x.denominator) for x in c]
        if order is not None:
            self._n.extend([0] * (order + 1 - len(c)))
        self._d = d

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls((), order)

    @classmethod
    def constant(cls, value, order: int) -> "QSeries":
        return cls((value,), order)

    @classmethod
    def monomial(cls, coefficient, exponent: int, order: int) -> "QSeries":
        if exponent < 0:
            raise ValueError(f"q-exponent must be >= 0, got {exponent}")
        return cls([0] * exponent + [coefficient] if exponent <= order else (), order)

    @property
    def order(self) -> int:
        return len(self._n) - 1

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient of q^{n} lies beyond truncation order {self.order}")
        return Fraction(self._n[n], self._d)

    def truncate(self, order: int) -> "QSeries":
        """Drop coefficients beyond ``order`` (which must lie in 0..self.order)."""
        if not 0 <= order <= self.order:
            raise ValueError(f"truncation order {order} lies outside 0..{self.order}")
        return _reduced(self._n[: order + 1], self._d)

    def __bool__(self) -> bool:
        return any(self._n)

    def __eq__(self, other) -> bool:
        if isinstance(other, QSeries):
            if len(self._n) == len(other._n):
                return self._d == other._d and self._n == other._n
            da, db = self._d, other._d
            return all(a * db == b * da for a, b in zip(self._n, other._n))
        if isinstance(other, (int, Fraction)):
            return Fraction(self._n[0], self._d) == other and not any(self._n[1:])
        return NotImplemented

    __hash__ = None  # equality is order-relative

    def __neg__(self) -> "QSeries":
        return _reduced([-a for a in self._n], self._d)

    def _plus(self, other, sign: int) -> "QSeries":
        """self + sign * other for a series or a rational ``other``."""
        if isinstance(other, QSeries):
            d = lcm(self._d, other._d)
            fa, fb = d // self._d, sign * (d // other._d)
            return _reduced([a * fa + b * fb for a, b in zip(self._n, other._n)], d)
        if isinstance(other, (int, Fraction)):
            d = lcm(self._d, other.denominator)
            fa = d // self._d
            c = [a * fa for a in self._n]
            c[0] += sign * other.numerator * (d // other.denominator)
            return _reduced(c, d)
        return NotImplemented

    def __add__(self, other) -> "QSeries":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "QSeries":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "QSeries":
        return (-self).__add__(other)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            a, b = self._n, other._n
            n = min(len(a), len(b))
            rb = b[n - 1 :: -1]  # b[k], b[k-1], ..., b[0] is rb[n-1-k:]
            c = [sum(map(mul, a[: k + 1], rb[n - 1 - k :])) for k in range(n)]
            return _reduced(c, self._d * other._d)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _reduced([a * p for a in self._n], self._d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QSeries":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = QSeries.constant(1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def qderive(self) -> "QSeries":
        """Apply q d/dq: the coefficient of q^n is multiplied by n."""
        return _reduced([n * a for n, a in enumerate(self._n)], self._d)

    def to_text(self) -> str:
        """Canonical rendering ``a0 + a1*q + a2*q^2 + ... + O(q^{N+1})``.

        Every coefficient up to the truncation order is printed as a reduced
        fraction (``/1`` omitted), so the format round-trips losslessly.
        """
        parts = []
        d = self._d
        for n, a in enumerate(self._n):
            g = gcd(a, d)  # a / d in lowest terms, written as str(Fraction) writes it
            mag = str(abs(a) // g) if g == d else f"{abs(a) // g}/{d // g}"
            if n == 0:
                term = mag
            elif n == 1:
                term = f"{mag}*q"
            else:
                term = f"{mag}*q^{n}"
            if not parts:
                parts.append(term if a >= 0 else "-" + term)
            else:
                parts.append(("+ " if a >= 0 else "- ") + term)
        parts.append(f"+ O(q^{self.order + 1})")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QSeries({self.to_text()!r})"


def weighted_sum(terms: Iterable[tuple[QSeries, Fraction]], order: int) -> QSeries:
    """The sum of c * s over the (series, rational c) pairs, each series of
    order ``order``, in one pass: integer numerators over one common
    denominator, reduced once."""
    terms = [(s, c, s._d * c.denominator) for s, c in terms]
    den = lcm(*(d for _, _, d in terms))
    total = [0] * (order + 1)
    for s, c, d in terms:
        f = c.numerator * (den // d)
        total = [a + f * b for a, b in zip(total, s._n)]
    return _reduced(total, den)

