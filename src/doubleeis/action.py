"""The GL(2,Z) group-ring action on four-variable series.

A matrix with rows (a, b) and (c, d) acts on the right by

    R | M (X1, X2; Y1, Y2)
        = R(a X1 + b X2, c X1 + d X2;
            det(M) (d Y1 - c Y2), det(M) (-b Y1 + a Y2)),

extended Z-linearly to the group ring, on :class:`~doubleeis.multipoly.MultiPoly`
series.  A series with a pole is acted on through its numerator over a
product of linear forms, which the caller clears (see
:func:`doubleeis.kronecker.fay_numerator`).

Group-ring words such as ``5-3*U+U*epsilon`` are read by
:func:`parse_group_ring`, through the tokenizer of
:mod:`doubleeis.expressions`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .expressions import ExpressionSyntaxError, Tokens
from .multipoly import LinForm, MultiPoly, substitute_sums


@dataclass(frozen=True)
class IntMatrix2:
    """A 2x2 integer matrix with determinant +1 or -1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.det not in (1, -1):
            raise ValueError(f"matrix {self.entries} is not in GL(2,Z)")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "IntMatrix2") -> "IntMatrix2":
        if not isinstance(other, IntMatrix2):
            return NotImplemented
        return IntMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "IntMatrix2":
        det = self.det
        return IntMatrix2(self.d * det, -self.b * det, -self.c * det, self.a * det)

    def __pow__(self, n: int) -> "IntMatrix2":
        if n < 0:
            return self.inverse() ** (-n)
        out = IDENTITY
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def images(self) -> tuple[LinForm, LinForm, LinForm, LinForm]:
        """The four substitution forms of the right action."""
        det = self.det
        return (
            (self.a, self.b, 0, 0),
            (self.c, self.d, 0, 0),
            (0, 0, det * self.d, -det * self.c),
            (0, 0, -det * self.b, det * self.a),
        )

    def __repr__(self) -> str:
        return f"IntMatrix2({self.a}, {self.b}, {self.c}, {self.d})"


IDENTITY = IntMatrix2(1, 0, 0, 1)

#: The named matrices, addressable by their conventional symbols.
MATRICES: dict[str, IntMatrix2] = {
    "1": IDENTITY,
    "sigma": IntMatrix2(-1, 0, 0, -1),
    "epsilon": IntMatrix2(0, 1, 1, 0),
    "delta": IntMatrix2(-1, 0, 0, 1),
    "T": IntMatrix2(1, 1, 0, 1),
    "S": IntMatrix2(0, -1, 1, 0),
    "U": IntMatrix2(1, -1, 1, 0),
}
MATRICES["A"] = MATRICES["epsilon"] * MATRICES["U"] * MATRICES["epsilon"]


def act(matrix: IntMatrix2, p: MultiPoly) -> MultiPoly:
    """Apply one matrix to a MultiPoly."""
    if not isinstance(p, MultiPoly):
        raise TypeError(f"cannot act on {type(p).__name__}")
    return p.substitute(matrix.images())


class GroupRingElem:
    """An integer combination of GL(2,Z) matrices."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc: dict[tuple[int, int, int, int], tuple[int, IntMatrix2]] = {}
        for coeff, matrix in terms:
            key = matrix.entries
            if key in acc:
                coeff += acc[key][0]
            acc[key] = (coeff, matrix)
        self.terms = tuple((c, m) for _, (c, m) in sorted(acc.items()) if c)

    @classmethod
    def matrix(cls, m: IntMatrix2) -> "GroupRingElem":
        return cls([(1, m)])

    @classmethod
    def scalar(cls, n: int) -> "GroupRingElem":
        return cls([(n, IDENTITY)])

    def __add__(self, other) -> "GroupRingElem":
        other = _coerce_group_ring(other)
        if other is None:
            return NotImplemented
        return GroupRingElem(self.terms + other.terms)

    __radd__ = __add__

    def __sub__(self, other) -> "GroupRingElem":
        other = _coerce_group_ring(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "GroupRingElem":
        other = _coerce_group_ring(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "GroupRingElem":
        return GroupRingElem([(-c, m) for c, m in self.terms])

    def __mul__(self, other) -> "GroupRingElem":
        other = _coerce_group_ring(other)
        if other is None:
            return NotImplemented
        return GroupRingElem(
            [(c1 * c2, m1 * m2) for c1, m1 in self.terms for c2, m2 in other.terms]
        )

    def __rmul__(self, other) -> "GroupRingElem":
        other = _coerce_group_ring(other)
        if other is None:
            return NotImplemented
        return other * self

    def __eq__(self, other) -> bool:
        other = _coerce_group_ring(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self) -> str:
        return "GroupRingElem(%s)" % ", ".join(f"{c}*{m.entries}" for c, m in self.terms)


def _coerce_group_ring(x) -> GroupRingElem | None:
    if isinstance(x, GroupRingElem):
        return x
    if isinstance(x, IntMatrix2):
        return GroupRingElem.matrix(x)
    if isinstance(x, int):
        return GroupRingElem.scalar(x)
    return None


def act_group_ring(elem, p: MultiPoly) -> MultiPoly:
    """Apply an integer combination of matrices, in one pass over the series
    (:func:`act_group_ring_sum`)."""
    return act_group_ring_sum(((elem, p),))


def act_group_ring_sum(pairs) -> MultiPoly:
    """The sum of ``act_group_ring(elem, p)`` over the (elem, p) pairs of
    group-ring elements and MultiPolys, exact through the smallest cap, in
    one pass: each coefficient of the sum is formed once
    (:func:`~doubleeis.multipoly.substitute_sums`)."""
    return substitute_sums([(p, _images(_coerce_group_ring(elem))) for elem, p in pairs])


def _images(elem: GroupRingElem) -> list:
    """The (integer, images of X1, X2, Y1, Y2) of each term of ``elem``."""
    return [(coeff, matrix.images()) for coeff, matrix in elem.terms]


# -- the text grammar of group-ring elements ---------------------------------
#
#   expr   := ['+' | '-'] term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := integer | name ('^' '-'? integer)?
#
# with names sigma, epsilon, delta, T, S, U, A (and 1 for the identity);
# whitespace between tokens is skipped and digits are ASCII.

class GroupRingSyntaxError(ExpressionSyntaxError):
    """A malformed group-ring word, with the offending position attached."""


_GROUP_RING_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z]+)|(?P<op>[-+*^])")


def parse_group_ring(text: str) -> GroupRingElem:
    """Parse expressions like ``1+T^-1`` or ``5-3*U+U*epsilon``."""
    tokens = Tokens(_GROUP_RING_TOKEN, text, GroupRingSyntaxError)

    def parse_factor() -> GroupRingElem:
        kind, m, at = tokens.take(("int", "name"), "an integer or a matrix name")
        if kind == "int":
            return GroupRingElem.scalar(int(m.group()))
        matrix = MATRICES.get(m.group())
        if matrix is None:
            raise GroupRingSyntaxError(f"unknown matrix name {m.group()!r}", at)
        if tokens.take_op("^"):
            sign = -1 if tokens.take_op("-") else 1
            _, exponent, _ = tokens.take(("int",), "an integer exponent")
            return GroupRingElem.matrix(matrix ** (sign * int(exponent.group())))
        return GroupRingElem.matrix(matrix)

    def parse_term() -> GroupRingElem:
        out = parse_factor()
        while tokens.take_op("*"):
            out = out * parse_factor()
        return out

    out = -parse_term() if tokens.take_op("+-") == "-" else parse_term()
    while op := tokens.take_op("+-"):
        rhs = parse_term()
        out = out - rhs if op == "-" else out + rhs
    tokens.take(("end",), "end of input")
    return out
