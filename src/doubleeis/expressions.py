"""Parser for linear combinations of generators, and the tokenizer it shares
with the group-ring parser of :mod:`doubleeis.action`.

Grammar (whitespace between tokens is skipped; digits are ASCII):

    expr     := ['+' | '-'] term (('+' | '-') term)*
    term     := [rational '*'] gen
    rational := int ['/' posint]
    gen      := one generator, as read by :func:`doubleeis.elements.parse_genid`

All terms must share one weight and one space; violations raise the
dedicated errors from :mod:`doubleeis.elements` after parsing.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .elements import GENERATOR_PATTERN, FormalElement, generator_from_match


class ExpressionSyntaxError(ValueError):
    """Malformed text, with the offending position attached."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_SPACE = re.compile(r"\s*")

_EXPRESSION_TOKEN = re.compile(
    rf"(?P<gen>{GENERATOR_PATTERN.pattern})"
    r"|(?P<rational>(?P<num>[0-9]+)(?:\s*/\s*(?P<den>[0-9]+))?)"
    r"|(?P<op>[-+*])"
)


class Tokens:
    """The tokens of ``text``, taken from left to right.

    Each alternative of ``pattern`` is one named group.  A token is
    ``(kind, match, position)``, where ``kind`` names the group that matched;
    the last token is ``("end", None, len(text))``.  Whitespace between
    tokens is skipped.  ``error`` is raised, with the position, at the first
    place where no token matches and wherever :meth:`take` meets a token of
    the wrong kind.
    """

    def __init__(self, pattern: re.Pattern, text: str, error: type[ExpressionSyntaxError]):
        self.error = error
        self._tokens = []
        pos = _SPACE.match(text).end()
        while pos < len(text):
            m = pattern.match(text, pos)
            if m is None:
                raise error(f"unexpected input {text[pos:pos + 10]!r}", pos)
            self._tokens.append((m.lastgroup, m, pos))
            pos = _SPACE.match(text, m.end()).end()
        self._tokens.append(("end", None, len(text)))
        self._next = 0

    def take(self, kinds: tuple[str, ...], what: str) -> tuple[str, re.Match, int]:
        """Take the next token, which must be of one of ``kinds``; ``what`` names them."""
        token = self._tokens[self._next]
        if token[0] not in kinds:
            self.fail(what)
        self._next += 1
        return token

    def fail(self, what: str):
        """Raise the error: ``what`` was expected at the next token."""
        _, m, at = self._tokens[self._next]
        found = "end of input" if m is None else repr(m.group())
        raise self.error(f"expected {what}, found {found}", at)

    def take_op(self, ops: str) -> str | None:
        """Take the next token if it is one of the operators ``ops``, and return it."""
        kind, m, _ = self._tokens[self._next]
        if kind != "op" or m.group() not in ops:
            return None
        self._next += 1
        return m.group()


def parse_expression(text: str) -> FormalElement:
    """Parse a rational linear combination of generators into an element."""
    tokens = Tokens(_EXPRESSION_TOKEN, text, ExpressionSyntaxError)
    terms = []
    op = tokens.take_op("+-") or "+"
    while op:
        kind, m, at = tokens.take(("rational", "gen"), "a generator")
        coeff = Fraction(1)
        if kind == "rational":
            num, den = int(m["num"]), int(m["den"] or 1)
            if den == 0:
                raise ExpressionSyntaxError("zero denominator", at)
            coeff = Fraction(num, den)
            if not tokens.take_op("*"):
                tokens.fail("'*' after a coefficient")
            kind, m, at = tokens.take(("gen",), "a generator")
        try:
            gen = generator_from_match(m)
        except ValueError as exc:
            raise ExpressionSyntaxError(str(exc), at) from None
        terms.append((gen, -coeff if op == "-" else coeff))
        op = tokens.take_op("+-")
    tokens.take(("end",), "'+' or '-'")
    return FormalElement(terms)
