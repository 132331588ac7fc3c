"""Bernoulli numbers, Eisenstein q-expansions, and quasimodular recognition.

Products of the atoms (k, m) = (q d/dq)^m G_k are kept in one cache,
``_MONOMIALS``, keyed by sorted atom tuples; :func:`evaluate_atoms`, the one
evaluation of the atom combinations of :mod:`.kronecker`, and the monomials
G2^a G4^b G6^c of one weight read it.  Recognition row-reduces the series'
integer numerators on q^0..q^N, N the :func:`certified_order`, with
:func:`.spaces._rref` and checks the solution on the coefficients beyond.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import comb, factorial, lcm

from .series import QSeries, _reduced, weighted_sum
from .spaces import _rref


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
    if n_order < 0:
        raise ValueError("truncation order must be >= 0")
    if k % 2:
        return QSeries.zero(n_order)
    # integer numerators over the lcm of the two denominators
    c0 = -bernoulli(k) / (2 * factorial(k))
    den = lcm(c0.denominator, factorial(k - 1))
    scale = den // factorial(k - 1)
    numerators = [sig * scale for sig in divisor_power_sums(k - 1, n_order)]
    numerators[0] = c0.numerator * (den // c0.denominator)
    return _reduced(numerators, den)


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


#: Products of atoms (k, m) = (q d/dq)^m G_k by sorted atom tuple, each kept
#: at the largest q-order asked for; the empty tuple is the series 1.
_MONOMIALS: dict[tuple[tuple[int, int], ...], QSeries] = {}


def product_series(atoms: tuple[tuple[int, int], ...], n_order: int) -> QSeries:
    """The product of a sorted tuple of atoms (k, m), from the shared cache:
    an entry kept at the largest order asked for serves every lower order."""
    s = _MONOMIALS.get(atoms)
    if s is None or s.order < n_order:
        s = _MONOMIALS[atoms] = _product(atoms, n_order)
    return s if s.order == n_order else s.truncate(n_order)


def evaluate_atoms(terms, n_order: int) -> QSeries:
    """The sum of c * product_series(m) over the (monomial m, rational c)
    pairs of ``terms``, in one integer pass (:func:`.series.weighted_sum`)."""
    return weighted_sum(((product_series(m, n_order), c) for m, c in terms), n_order)


def _product(atoms: tuple[tuple[int, int], ...], n_order: int) -> QSeries:
    """One atom from :func:`derived_eisenstein`; more as the cached prefix times the last."""
    if not atoms:
        return QSeries.constant(1, n_order)
    if len(atoms) == 1:
        return derived_eisenstein(*atoms[0], n_order)
    return product_series(atoms[:-1], n_order) * product_series(atoms[-1:], n_order)


def _monomial_series(weight: int, n_order: int) -> list[QSeries]:
    """G2^a G4^b G6^c for the (a, b, c) of :func:`quasimodular_monomials`, in
    that order: the products of a atoms (2, 0), b atoms (4, 0) and c atoms (6, 0)."""
    return [product_series(((2, 0),) * a + ((4, 0),) * b + ((6, 0),) * c, n_order)
            for a, b, c in quasimodular_monomials(weight)]


@cache
def certified_order(weight: int) -> int:
    """The least N such that the weight's monomials G2^a G4^b G6^c are linearly
    independent on q^0..q^N, 0 for a weight with none: a weight-k quasimodular
    form vanishes once its coefficients of q^0..q^N do.  With a row per
    monomial keyed by q-exponent, the rank on q^0..q^N is the number of
    :func:`.spaces._rref` pivots at most N; the q-order doubles until it is full."""
    n_order = m = len(quasimodular_monomials(weight))
    while len(reduced := _rref([dict(enumerate(e._n)) for e in _monomial_series(weight, n_order)])) < m:
        n_order *= 2
    return max(reduced, default=0)


class UnderdeterminedTruncationError(ValueError):
    """The series is too short to pin down a unique quasimodular expression."""


def recognize_quasimodular(s: QSeries, weight: int) -> dict[tuple[int, int, int], Fraction] | None:
    """Express a q-series in the weight-graded basis G2^a G4^b G6^c.

    Row-reduces the exact augmented system on the q-coefficients 0..N, N the
    :func:`certified_order` of the weight, on which the monomials are
    independent, with :func:`.spaces._rref`, and then checks the solution on
    every stored coefficient, in one integer pass
    (:func:`.series.weighted_sum`).  Returns a map from exponent triples to
    rational coefficients (zeros omitted), or None when the series provably
    lies outside the graded piece.  Raises
    :class:`UnderdeterminedTruncationError` when the truncation order is too
    small to decide: the series needs a coefficient beyond q^N, so that at
    least one of them is checked rather than solved for.
    """
    monomials = quasimodular_monomials(weight)
    m = len(monomials)
    if m == 0:
        return {} if not s else None
    n = certified_order(weight)
    if s.order <= n:
        raise UnderdeterminedTruncationError(
            f"{s.order + 1} q-coefficients for {m} weight-{weight} monomials leave no coefficient to check"
        )
    expansions = _monomial_series(weight, s.order)
    # the augmented system: a column per monomial, then the series in column
    # m; row i holds the coefficients of q^i times the lcm of their denominators
    columns = expansions + [s]
    common = lcm(*(e._d for e in columns))
    reduced = _rref([{j: e._n[i] * (common // e._d) for j, e in enumerate(columns)} for i in range(n + 1)])
    if m in reduced:
        return None  # inconsistent: no expression exists
    solution = [Fraction(row.get(m, 0), den) for den, row in reduced.values()]
    # check every coefficient, those the solver did not consume among them
    if weighted_sum(zip(expansions, solution), s.order) != s:
        return None
    return {mon: c for mon, c in zip(monomials, solution) if c}
