"""Truncated power series in q with exact rational coefficients."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

_ZERO = Fraction(0)


class QSeries:
    """A power series in q stored up to a fixed truncation order.

    Coefficients are exact :class:`fractions.Fraction` values indexed by the
    q-exponent, from 0 up to ``order`` inclusive.  Binary operations truncate
    at the smaller order of the two operands, so a coefficient is only ever
    reported when both inputs determine it exactly.  Instances are immutable.
    """

    __slots__ = ("_c",)

    def __init__(self, coefficients: Iterable[Fraction | int] = (), order: int | None = None):
        c = [x if type(x) is Fraction else Fraction(x) for x in coefficients]
        if order is not None:
            if order < 0:
                raise ValueError("truncation order must be >= 0")
            if len(c) > order + 1:
                del c[order + 1 :]
            else:
                c.extend([_ZERO] * (order + 1 - len(c)))
        elif not c:
            raise ValueError("an empty coefficient list needs an explicit order")
        self._c = c

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls((), order)

    @classmethod
    def constant(cls, value, order: int) -> "QSeries":
        return cls((value,), order)

    @classmethod
    def monomial(cls, coefficient, exponent: int, order: int) -> "QSeries":
        s = cls((), order)
        if exponent <= order:
            s._c[exponent] = Fraction(coefficient)
        return s

    @property
    def order(self) -> int:
        return len(self._c) - 1

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient of q^{n} lies beyond truncation order {self.order}")
        return self._c[n]

    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(self._c)

    def truncate(self, order: int) -> "QSeries":
        """Drop coefficients beyond ``order`` (which must not exceed self.order)."""
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return QSeries(self._c[: order + 1], order)

    def __bool__(self) -> bool:
        return any(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, QSeries):
            n = min(len(self._c), len(other._c))
            return self._c[:n] == other._c[:n]
        if isinstance(other, (int, Fraction)):
            return self._c[0] == other and not any(self._c[1:])
        return NotImplemented

    __hash__ = None  # equality is order-relative

    def __neg__(self) -> "QSeries":
        return QSeries([-a for a in self._c])

    def __add__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            n = min(len(self._c), len(other._c))
            return QSeries([self._c[i] + other._c[i] for i in range(n)])
        if isinstance(other, (int, Fraction)):
            c = list(self._c)
            c[0] += other
            return QSeries(c)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            n = min(len(self._c), len(other._c))
            return QSeries([self._c[i] - other._c[i] for i in range(n)])
        if isinstance(other, (int, Fraction)):
            c = list(self._c)
            c[0] -= other
            return QSeries(c)
        return NotImplemented

    def __rsub__(self, other) -> "QSeries":
        return (-self).__add__(other)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            a, b = self._c, other._c
            n = min(len(a), len(b))
            out = [_ZERO] * n
            for i in range(n):
                ai = a[i]
                if not ai:
                    continue
                for j in range(n - i):
                    bj = b[j]
                    if bj:
                        out[i + j] += ai * bj
            return QSeries(out)
        if isinstance(other, (int, Fraction)):
            if not other:
                return QSeries.zero(self.order)
            return QSeries([a * other for a in self._c])
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
        return QSeries([n * a for n, a in enumerate(self._c)])

    def to_text(self) -> str:
        """Canonical rendering ``a0 + a1*q + a2*q^2 + ... + O(q^{N+1})``.

        Every coefficient up to the truncation order is printed as a reduced
        fraction (``/1`` omitted), so the format round-trips losslessly.
        """
        parts = []
        for n, a in enumerate(self._c):
            mag = str(abs(a))
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


def cached_at_order(cache: dict, key, order: int, make) -> QSeries:
    """``cache[key]`` truncated at ``order``, from ``make(key, order)`` when missing or too short.

    Truncation commutes with sums and products, so an entry kept at the
    largest order asked for serves every lower order.
    """
    s = cache.get(key)
    if s is None or s.order < order:
        s = cache[key] = make(key, order)
    return s if s.order == order else s.truncate(order)
