"""Bernoulli numbers, Eisenstein q-expansions, and quasimodular recognition."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .series import QSeries, cached_at_order


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """The k-th Bernoulli number, with the convention B_1 = -1/2.

    Computed from the recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1.
    """
    if k < 0:
        raise ValueError("Bernoulli numbers are indexed by non-negative integers")
    if k == 0:
        return Fraction(1)
    if k % 2 and k > 1:
        return Fraction(0)
    s = sum(Fraction(comb(k + 1, j)) * bernoulli(j) for j in range(k))
    return -s / (k + 1)


def divisor_power_sums(power: int, n_order: int) -> list[int]:
    """sigma_power(n) for n = 0..n_order by a direct sieve (entry 0 is 0)."""
    out = [0] * (n_order + 1)
    for d in range(1, n_order + 1):
        dp = d**power
        for n in range(d, n_order + 1, d):
            out[n] += dp
    return out


def eisenstein_qexp(k: int, n_order: int) -> QSeries:
    """The weight-k Eisenstein q-expansion, normalized so that

        G_k = -B_k/(2*k!) + (1/(k-1)!) * sum_{n>=1} sigma_{k-1}(n) q^n

    for even k >= 2, and identically zero for odd k.
    """
    if k < 1:
        raise ValueError("weight must be >= 1")
    if k % 2:
        return QSeries.zero(n_order)
    coeffs = [Fraction(0)] * (n_order + 1)
    coeffs[0] = -bernoulli(k) / (2 * factorial(k))
    inv = Fraction(1, factorial(k - 1))
    sig = divisor_power_sums(k - 1, n_order)
    for n in range(1, n_order + 1):
        coeffs[n] = sig[n] * inv
    return QSeries(coeffs)


def derived_eisenstein(k: int, m: int, n_order: int) -> QSeries:
    """(q d/dq)^m applied to the weight-k Eisenstein expansion."""
    if m < 0:
        raise ValueError("derivative order must be >= 0")
    s = eisenstein_qexp(k, n_order)
    for _ in range(m):
        s = s.qderive()
    return s


def quasimodular_monomials(weight: int) -> list[tuple[int, int, int]]:
    """Exponent triples (a, b, c) with 2a + 4b + 6c = weight, in lex order."""
    out = []
    for a in range(weight // 2 + 1):
        for b in range((weight - 2 * a) // 4 + 1):
            rest = weight - 2 * a - 4 * b
            if rest % 6 == 0:
                out.append((a, b, rest // 6))
    return sorted(out)


#: G2^a G4^b G6^c by exponent triple (a, b, c), each kept at the largest
#: q-order asked for.
_MONOMIALS: dict[tuple[int, int, int], QSeries] = {}


def _monomial_qexp(mon: tuple[int, int, int], n_order: int) -> QSeries:
    """G2^a G4^b G6^c as a monomial of lower degree times one Eisenstein series."""
    if not any(mon):
        return QSeries.constant(1, n_order)
    i = next(i for i, e in enumerate(mon) if e)
    lower = mon[:i] + (mon[i] - 1,) + mon[i + 1 :]
    return cached_at_order(_MONOMIALS, lower, n_order, _monomial_qexp) * eisenstein_qexp(2 * i + 2, n_order)


@dataclass(frozen=True)
class QuasimodularBasis:
    """The monomial basis G2^a G4^b G6^c of one weight, with expansions."""

    weight: int
    monomials: tuple[tuple[int, int, int], ...]
    expansions: tuple[QSeries, ...]

    @classmethod
    def build(cls, weight: int, n_order: int) -> "QuasimodularBasis":
        mons = tuple(quasimodular_monomials(weight))
        exps = tuple(cached_at_order(_MONOMIALS, m, n_order, _monomial_qexp) for m in mons)
        return cls(weight, mons, exps)


class UnderdeterminedTruncationError(ValueError):
    """The series is too short to pin down a unique quasimodular expression."""


#: Extra q-coefficients used when solving, beyond the basis size.
RECOGNITION_MARGIN = 10


def recognize_quasimodular(s: QSeries, weight: int) -> dict[tuple[int, int, int], Fraction] | None:
    """Express a q-series in the weight-graded basis G2^a G4^b G6^c.

    Solves an exact linear system on the q-coefficients 0..(basis size +
    margin) and then verifies every remaining stored coefficient.  Returns a
    map from exponent triples to rational coefficients (zeros omitted), or
    None when the series provably lies outside the graded piece.  Raises
    :class:`UnderdeterminedTruncationError` when the truncation order is too
    small to decide.
    """
    basis = QuasimodularBasis.build(weight, s.order)
    m = len(basis.monomials)
    if m == 0:
        return {} if not s else None
    rows_needed = min(s.order, m + RECOGNITION_MARGIN)

    # Gaussian elimination on the augmented system, column per monomial.
    aug = [
        [e.coefficient(n) for e in basis.expansions] + [s.coefficient(n)]
        for n in range(rows_needed + 1)
    ]
    pivots: list[int] = []
    r = 0
    for col in range(m):
        pivot = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    if any(row[m] for row in aug[r:]):
        return None  # inconsistent: no expression exists
    if len(pivots) < m:
        raise UnderdeterminedTruncationError(
            f"{rows_needed + 1} q-coefficients leave the weight-{weight} system underdetermined"
        )
    solution = [Fraction(0)] * m
    for i, col in enumerate(pivots):
        solution[col] = aug[i][m]

    # Verify the coefficients the solver did not consume.
    for n in range(rows_needed + 1, s.order + 1):
        lhs = sum(c * e.coefficient(n) for c, e in zip(solution, basis.expansions))
        if lhs != s.coefficient(n):
            return None
    return {mon: c for mon, c in zip(basis.monomials, solution) if c}
