"""Presentations of the formal double Eisenstein and double zeta spaces.

A weight is presented by its ordered generator list together with the row
reduced form of the double-shuffle relation rows; dimensions, membership
tests and canonical normal forms all read off the reduced system.  Each
rule is written once: a relation row is P(k1,k2;d1,d2) minus its
harmonic-product or integral-shuffle expansion, and the zeta rows are the
d = 0 case of the Eisenstein rows, with the kinds renamed.  The two
expansions name basis columns, computed from the indices, not generators,
and one generator gives every row as integers over one denominator,
keyed by column: a build reduces those integers, a zeta row takes the
d = 0 columns through one column map, and the public rows
(``eisenstein_relations``, ``zeta_relations``) turn the columns into
generators and divide the integers out, so their P coefficient is 1.
Every relation row has one P(k1,k2;d1,d2) or ZP(k1,k2) term.  Both
expansions are unchanged by the swap of i = (k1,k2,d1,d2) to
i' = (k2,k1,d2,d1), so a build hands the reduction the two rows of each
index that comes no later than its swap, and for the later index i' of a
swap pair the one row e_P(i') - e_P(i) in place of its two, once they are
checked equal to the rows of i outside their P column; no row it hands
over is dependent, and the public rows stay raw.  The rows are reduced
per block of equal k1 + k2, and the union of the blocks' reduced rows is
reduced once more.  The elimination takes rows of ints keyed by column,
the one form every caller hands it; it takes them sparsest first, copies
each without its zero entries, and eliminates on the copies, updated in
place where the multiplier is 1 and made primitive (divided by
the gcd of their entries) only when stored as a pivot row and after each
back-substitution step.  The reduced form is unique once the basis order
is fixed, so it does not depend on these choices: the paired rows,
reduced per block, give the same rows as one reduction of all the raw
rows.  A system keeps each reduced row as integers
over one denominator.  A normal form touches only the pivots present in
the element, since the rows are fully reduced, sums over one common
denominator and forms each coefficient once.  Built systems are immutable
and memoized in-process; they can additionally be cached on disk as JSON
keyed by (space, weight).  A cache file holds each row as the integers the
system keeps, flat: ``[pivot, den, j1, n1, j2, n2, ...]``.  It is written
with one ``json.dumps`` and ends in a digest, the sha256 of the file's own
text before its ``"digest"`` field; a read checks the digest on the text
before parsing it, and then the reduced, primitive form of the rows.
"""

from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import os
import stat
import tempfile
from collections.abc import Iterable
from fractions import Fraction
from fnmatch import fnmatchcase
from functools import cache
from itertools import chain
from math import comb, factorial, gcd, lcm
from pathlib import Path

from .elements import EISENSTEIN, ZETA, FormalElement, G1, G2, GP, GenId, Z1, Z2, ZP

CACHE_ENV_VAR = "DOUBLEEIS_CACHE_DIR"
CACHE_FORMAT_VERSION = 4

_SPACE_NAMES = {EISENSTEIN: EISENSTEIN, ZETA: ZETA, "e": EISENSTEIN, "z": ZETA}


def _space(space: str) -> str:
    try:
        return _SPACE_NAMES[space]
    except KeyError:
        raise ValueError(f"unknown space {space!r}; use 'E' or 'Z'") from None


def enumerate_generators(space: str, weight: int) -> list[GenId]:
    """All weight-homogeneous generators in the deterministic basis order.

    Eisenstein: depth-one G(k;d) by increasing d, then depth-two G ordered
    lexicographically by (k1, d1, k2, d2), then the P generators in the same
    order.  Zeta: Z(K), then Z(k1,k2) by k1, then ZP(k1,k2) by k1.  The list
    is made once per (space, weight); each call returns a fresh copy.
    """
    space = _space(space)
    if weight < 1:
        raise ValueError("weight must be >= 1")
    return list(_generators(space, weight))


@cache
def _generators(space: str, weight: int) -> tuple[GenId, ...]:
    if space == ZETA:
        gens = [Z1(weight)]
        gens += [Z2(k1, weight - k1) for k1 in range(1, weight)]
        gens += [ZP(k1, weight - k1) for k1 in range(1, weight)]
        return tuple(gens)
    gens = [G1(weight - d, d) for d in range(weight)]
    depth2 = list(_depth2_indices(weight))
    gens += [G2(k1, k2, d1, d2) for (k1, k2, d1, d2) in depth2]
    gens += [GP(k1, k2, d1, d2) for (k1, k2, d1, d2) in depth2]
    return tuple(gens)


def _depth2_indices(weight: int):
    """(k1, k2, d1, d2) of one weight, lexicographic in (k1, d1, k2, d2)."""
    for k1 in range(1, weight):
        for d1 in range(weight - k1):
            for k2 in range(1, weight - k1 - d1 + 1):
                d2 = weight - k1 - d1 - k2
                yield (k1, k2, d1, d2)


def _column(k1: int, k2: int, d1: int, d2: int) -> int:
    """The basis column of G(k1,k2;d1,d2) in its weight w: after the w
    depth-one columns, its place in the lexicographic order of (k1, d1, k2, d2),
    counted as the indices of smaller k1, then of this k1 and smaller d1, then
    of smaller k2.  P(k1,k2;d1,d2) is C(w + 1, 3) columns further, past every
    depth-two G, and G(k;d) is column d."""
    w = k1 + k2 + d1 + d2
    return w + comb(w + 1, 3) - comb(w + 2 - k1, 3) + d1 * (w - k1) - d1 * (d1 - 1) // 2 + k2 - 1


def stuffle_expansion(k1: int, k2: int, d1: int, d2: int) -> list[tuple[int, int]]:
    """The harmonic-product (stuffle) expansion of P(k1,k2;d1,d2), as
    ``(column, coefficient)`` pairs over the basis of its weight."""
    return [(_column(k1, k2, d1, d2), 1), (_column(k2, k1, d2, d1), 1), (d1 + d2, 1)]


def shuffle_expansion(k1: int, k2: int, d1: int, d2: int) -> list[tuple[int, int | Fraction]]:
    """The integral-shuffle expansion of P(k1,k2;d1,d2), as ``(column,
    coefficient)`` pairs over the basis of its weight: the coefficient of
    G(l1,K-l1;e1,D-e1) is C(l1-1,k1-1) s(d1,e1) + C(l1-1,k2-1) s(d2,e1), with
    s(d,e) = (-1)^(d-e) C(d,e), and that of G(K-1;D+1) is
    d1! d2! C(K-2,k1-1)/(D+1)!, for K = k1 + k2 and D = d1 + d2."""
    terms: list[tuple[int, int | Fraction]] = []
    K, D = k1 + k2, d1 + d2
    s1 = [(-1) ** ((d1 - e) % 2) * comb(d1, e) for e in range(D + 1)]
    s2 = [(-1) ** ((d2 - e) % 2) * comb(d2, e) for e in range(D + 1)]
    for l1 in range(min(k1, k2), K):  # both binomials in l1 vanish below
        x, y = comb(l1 - 1, k1 - 1), comb(l1 - 1, k2 - 1)
        # the column of e1 = 0, and the gap to the next, one less for each e1
        j, step = _column(l1, K - l1, 0, D), K + D - l1
        for a, b in zip(s1, s2):
            c = x * a + y * b
            if c:
                terms.append((j, c))
            j += step
            step -= 1
    tail = Fraction(factorial(d1) * factorial(d2) * comb(K - 2, k1 - 1), factorial(D + 1))
    if tail:
        terms.append((D + 1, tail))
    return terms


def _integer_row(expansion, k1: int, k2: int, d1: int, d2: int) -> tuple[int, dict[int, int]]:
    """P(k1,k2;d1,d2) minus an expansion of it, times the lcm ``den`` of the
    expansion's denominators: ``(den, {column: integer})``, the P entry den.
    A column named twice, as G(k,k;d,d) in a stuffle, gets one entry, and a
    column whose terms sum to 0 none."""
    terms = expansion(k1, k2, d1, d2)
    den = lcm(*[c.denominator for _, c in terms])
    row = {_column(k1, k2, d1, d2) + comb(k1 + k2 + d1 + d2 + 1, 3): den}
    for j, c in terms:
        n = row.get(j, 0) - c.numerator * (den // c.denominator)
        if n:
            row[j] = n
        else:
            row.pop(j, None)
    return den, row


def _relation_rows(space: str, weight: int):
    """The defining rows of one weight of a space, by depth-two index, as
    ``(i, p, [(den, row), (den, row)])``: the stuffle and the shuffle row of
    the index i = (k1, k2, d1, d2), each the row sum (n/den) e_j over the
    basis columns of ``row = {j: n}``, and p the column of their one
    P(k1,k2;d1,d2) or ZP(k1,k2) term.  Eisenstein: every depth-two index.
    Zeta: the indices (k1, k2, 0, 0), k1 + k2 = weight, their rows on the
    columns with every d index 0, where G(k), G(k1,k2) and P(k1,k2) become
    Z(k), Z(k1,k2) and ZP(k1,k2)."""
    if space == EISENSTEIN:
        indices, columns = _depth2_indices(weight), None
    else:
        indices = [(k1, weight - k1, 0, 0) for k1 in range(1, weight)]
        columns = {0: 0}  # Eisenstein column -> zeta column, for d = 0
        for k1 in range(1, weight):
            j = _column(k1, weight - k1, 0, 0)
            columns[j] = k1
            columns[j + comb(weight + 1, 3)] = weight - 1 + k1
    for i in indices:
        p = _column(*i) + comb(weight + 1, 3)
        rows = [_integer_row(stuffle_expansion, *i), _integer_row(shuffle_expansion, *i)]
        if columns is not None:
            p = columns[p]
            rows = [(den, {columns[j]: n for j, n in row.items() if j in columns}) for den, row in rows]
        yield i, p, rows


def _element(space: str, weight: int, den: int, row: dict[int, int]) -> FormalElement:
    """The row ``{j: n}`` over ``den`` as an element of the space."""
    gens = _generators(space, weight)
    return FormalElement._make(space, weight, {gens[j]: Fraction(n, den) for j, n in row.items()})


def stuffle_row(k1: int, k2: int, d1: int, d2: int) -> FormalElement:
    """P(k1,k2;d1,d2) minus its harmonic-product expansion; zero in the space."""
    return _element(EISENSTEIN, k1 + k2 + d1 + d2, *_integer_row(stuffle_expansion, k1, k2, d1, d2))


def shuffle_row(k1: int, k2: int, d1: int, d2: int) -> FormalElement:
    """P(k1,k2;d1,d2) minus its integral-shuffle expansion; zero in the space."""
    return _element(EISENSTEIN, k1 + k2 + d1 + d2, *_integer_row(shuffle_expansion, k1, k2, d1, d2))


def _relations(space: str, weight: int) -> list[FormalElement]:
    return [_element(space, weight, den, row) for _, _, rows in _relation_rows(space, weight) for den, row in rows]


def eisenstein_relations(weight: int) -> list[FormalElement]:
    """Both defining rows for every depth-two index of one weight."""
    return _relations(EISENSTEIN, weight)


def zeta_relations(weight: int) -> list[FormalElement]:
    """Both defining rows for every (k1, k2) with k1 + k2 = weight: the rows of
    P(k1,k2;0,0) on their terms with every d index 0, where G(k), G(k1,k2) and
    P(k1,k2) become Z(k), Z(k1,k2) and ZP(k1,k2)."""
    return _relations(ZETA, weight)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by its content, the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _eliminate(row: dict[int, int], piv: dict[int, int], c: int) -> dict[int, int]:
    """``a*row - b*piv`` with column c cleared, for the least a > 0 that keeps
    it integral.  When a is 1 the row is updated in place and returned, so
    ``row`` must be a dict the caller owns; else the result is a new dict.
    The result is not made primitive."""
    g = gcd(piv[c], row[c])
    a, b = piv[c] // g, row[c] // g
    if a < 0:
        a, b = -a, -b
    out = row if a == 1 else {j: a * v for j, v in row.items()}
    get = out.get
    for j, v in piv.items():  # column c comes to 0 and is deleted too
        w = get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            del out[j]
    return out


def _rref(rows: list[dict[int, int]]) -> dict[int, tuple[int, dict[int, int]]]:
    """Reduced row echelon form of sparse integer rows, pivoting on the first column.

    The input rows are left unchanged: each is copied, without its zero
    entries (a row without any, the common case, is copied by ``dict``).
    The rows are taken sparsest first, and the copy is eliminated in place
    where :func:`_eliminate` allows; it is made primitive (divided by the
    gcd of its entries) only when it is stored as a pivot row and after
    each back-substitution step.  The result maps each pivot, in increasing
    order, to its row as ``(den, {j: num})``: the row is
    e_pivot + sum_j (num/den) e_j, with den > 0 and gcd(den, *num) = 1.
    The reduced form is unique for the column order, so neither the row
    order nor the integer scaling changes the result.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=lambda r: (len(r), max(r, default=0))):
        if 0 in row.values():
            row = {j: v for j, v in row.items() if v}
        else:
            row = dict(row)
        while row:
            c = min(row)
            piv = pivot_rows.get(c)
            if piv is None:
                pivot_rows[c] = _primitive(row)
                break
            row = _eliminate(row, piv, c)
    # back-substitution, last pivot first: the rows of the later pivots are
    # reduced, so clearing the pivot columns a row has brings in no others
    for p in sorted(pivot_rows, reverse=True):
        row = pivot_rows[p]
        for c in [j for j in row if j != p and j in pivot_rows]:
            row = _primitive(_eliminate(row, pivot_rows[c], c))
        pivot_rows[p] = row
    out = {}
    for c, row in sorted(pivot_rows.items()):
        den = row.pop(c)
        out[c] = (den, row) if den > 0 else (-den, {j: -v for j, v in row.items()})
    return out


def _rref_blocks(blocks: Iterable[list[dict[int, int]]]) -> dict[int, tuple[int, dict[int, int]]]:
    """:func:`_rref` of all the rows of some blocks, a partition of them.

    Each block is reduced apart; the union of the reduced rows, as integer
    rows, is then reduced once more.  The reduced rows of the blocks span the
    same row space as the rows themselves and the reduced form is unique for
    the column order, so the result is that of :func:`_rref` on all rows for
    any partition.  Reducing each block apart keeps its fill out of the others.
    """
    return _rref([{c: den, **row} for block in blocks for c, (den, row) in _rref(block).items()])


def _fraction_rows(rows: dict[int, tuple[int, dict[int, int]]]) -> list[tuple[int, dict[int, Fraction]]]:
    """Integer rows as ``(pivot, {j: Fraction})`` pairs, the pivot entry 1 first."""
    return [(c, {c: Fraction(1), **{j: Fraction(n, den) for j, n in sorted(row.items())}})
            for c, (den, row) in rows.items()]


class RelationSystem:
    """Ordered basis plus row-reduced relation rows for one weight.

    The rows are kept as in :func:`_rref`, one integer row over one
    denominator per pivot; ``rref_rows`` gives them as Fractions.
    """

    __slots__ = ("space", "weight", "basis", "index", "_rows", "_rref_rows")

    def __init__(self, space: str, weight: int, basis: list[GenId], rows: dict[int, tuple[int, dict[int, int]]]):
        self.space = space
        self.weight = weight
        self.basis = list(basis)
        self.index = {g: i for i, g in enumerate(self.basis)}
        self._rows = rows
        self._rref_rows = None

    @classmethod
    def build(cls, space: str, weight: int) -> "RelationSystem":
        """Reduce the defining rows of one weight, each swap pair as three rows.

        Both expansions of P(k1,k2;d1,d2) are unchanged by the swap of
        i = (k1,k2,d1,d2) to i' = (k2,k1,d2,d1), so the rows of i' are those
        of i with P(i') in place of P(i), and the four rows of a swap pair
        span the same space as the two rows of i and e_P(i') - e_P(i).  An
        index that comes no later than its swap gives its two rows; a later
        one i' gives that one row instead, once its rows are checked equal to
        those of i outside their P column, P entry included, and else its two
        rows.  Either way the rows span the row space of the raw rows, and
        the reduced form is unique for the basis order, so the result is that
        of the raw rows.  The rows go to :func:`_rref_blocks` by the k1 + k2
        of their P term.
        """
        space = _space(space)
        blocks: dict[int, list[dict[int, int]]] = {}
        unpaired = {}  # index -> its P column and its rows outside it
        for i, p, rows in _relation_rows(space, weight):
            block = blocks.setdefault(i[0] + i[1], [])
            outside = [(row.get(p), {j: n for j, n in row.items() if j != p}) for _, row in rows]
            swap = unpaired.pop((i[1], i[0], i[3], i[2]), None)
            if swap is not None and swap[1] == outside:
                block.append({p: 1, swap[0]: -1})
            else:
                unpaired[i] = (p, outside)
                block.extend(row for _, row in rows)
        return cls(space, weight, enumerate_generators(space, weight), _rref_blocks(blocks.values()))

    @property
    def rref_rows(self) -> list[tuple[int, dict[int, Fraction]]]:
        """The reduced rows as ``(pivot, {j: Fraction})`` pairs by increasing pivot."""
        if self._rref_rows is None:
            self._rref_rows = _fraction_rows(self._rows)
        return self._rref_rows

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def dimension(self) -> int:
        return len(self.basis) - len(self._rows)

    def normal_form(self, element: FormalElement) -> FormalElement:
        """The canonical representative of an element modulo the relations.

        The rows are fully reduced, so a pivot column of the element is
        replaced by its row once and never reappears: only the element's own
        pivots are visited.  The terms are summed as integers over one
        common denominator, and each coefficient becomes a Fraction once.
        """
        if not element:
            return element
        if element.space != self.space or element.weight != self.weight:
            raise ValueError("element does not belong to this relation system")
        parts = []  # (denominator, factor, integer entries)
        for g, c in element._terms.items():
            i = self.index.get(g)
            if i is None:
                raise ValueError(f"{g} is not a weight-{self.weight} generator of this space")
            row = self._rows.get(i)
            if row is None:
                parts.append((c.denominator, c.numerator, ((i, 1),)))
            else:
                parts.append((c.denominator * row[0], -c.numerator, row[1].items()))
        den = lcm(*(d for d, _, _ in parts))
        acc: dict[int, int] = {}
        for d, f, entries in parts:
            f *= den // d
            for j, n in entries:
                acc[j] = acc.get(j, 0) + f * n
        terms = {self.basis[j]: Fraction(n, den) for j, n in acc.items() if n}
        if not terms:
            return FormalElement.zero()
        return FormalElement._make(self.space, self.weight, terms)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """The text of the cache file, made by one ``json.dumps``: the
        system's fields and then its ``"digest"``, the sha256 of the text
        before that field."""
        rows = [[c, den, *chain.from_iterable(sorted(row.items()))] for c, (den, row) in self._rows.items()]
        head = json.dumps({
            "format_version": CACHE_FORMAT_VERSION,
            "space": self.space,
            "weight": self.weight,
            "basis": [str(g) for g in self.basis],
            "rank": self.rank,
            "dimension": self.dimension,
            "rows": rows,
        })[:-1] + ", "
        return f'{head}"digest": "{_digest(head)}"}}'

    @classmethod
    def from_json(cls, text: str) -> "RelationSystem":
        """Load a cached system; raise ValueError when the file contradicts itself.

        The text must end in the digest of all the text before its
        ``"digest"`` field; this is checked before the text is parsed.  The
        basis must be the enumeration of its (space, weight), the rank must
        equal the row count, and each row ``[pivot, den, j1, n1, j2, n2, ...]``
        must be the canonical integer row that :func:`_rref` gives: distinct
        pivots in the basis, ``den`` a positive int, nonzero int entries with
        one per column and gcd(den, *entries) = 1, no entry left of its
        pivot, beyond the basis or in another row's pivot column.  These
        checks cost one pass over the entries; the rows are not re-reduced.
        """
        head, field, tail = text.rpartition('"digest": "')
        if not field or tail != f'{_digest(head)}"}}':
            raise ValueError("cache file does not match its digest")
        data = json.loads(text)
        if not isinstance(data, dict) or data.get("format_version") != CACHE_FORMAT_VERSION:
            raise ValueError("unsupported cache format version")
        space, weight = _space(data["space"]), data["weight"]
        basis = enumerate_generators(space, weight)
        if data["basis"] != [str(g) for g in basis]:
            raise ValueError(f"cached basis is not the {space}_{weight} generator list")
        if data["rank"] != len(data["rows"]):
            raise ValueError(f"cached rank {data['rank']} differs from its {len(data['rows'])} rows")
        rows = {}
        for r in data["rows"]:
            if not (type(r) is list and len(r) >= 2 and set(map(type, r)) == {int}):
                raise ValueError("a cached row is not a flat list [pivot, den, j1, n1, ...] of ints")
            c, den, columns, entries = r[0], r[1], r[2::2], r[3::2]
            if c in rows or not 0 <= c < len(basis):
                raise ValueError("cached pivots repeat or fall outside the basis")
            row = dict(zip(columns, entries))
            if not (den > 0 and len(row) == len(columns) and 0 not in entries and gcd(den, *entries) == 1):
                raise ValueError(f"cached row {c} is not a primitive integer row over a positive denominator")
            if row and not (c < min(row) and max(row) < len(basis)):
                raise ValueError(f"cached row {c} has an entry left of its pivot or beyond the basis")
            rows[c] = (den, row)
        if any(j in rows for _, row in rows.values() for j in row):
            raise ValueError("a cached row has an entry in another row's pivot column")
        return cls(space, weight, basis, dict(sorted(rows.items())))


def _digest(head: str) -> str:
    """sha256 of the text of a cache file before its digest field."""
    return hashlib.sha256(head.encode()).hexdigest()


# -- construction with caching --------------------------------------------

_MEMO: dict[tuple[str, int], RelationSystem] = {}


def _cache_dir(cache_dir: str | Path | None) -> str:
    """The directory given, else $DOUBLEEIS_CACHE_DIR expanded, else ~/.cache/doubleeis."""
    if cache_dir:
        return os.fspath(cache_dir)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return os.path.expanduser(env)
    return os.path.join(os.path.expanduser("~"), ".cache", "doubleeis")


def default_cache_dir() -> Path:
    return Path(_cache_dir(None))


def _atomic_write_json(path: str, text: str):
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def relation_system(space: str, weight: int, cache_dir: str | Path | None = None) -> RelationSystem:
    """The relation system of one weight, memoized and disk-cached.

    A cache file that fails to load or belongs to another (space, weight)
    is rebuilt and rewritten.
    """
    space = _space(space)
    key = (space, weight)
    path = os.path.join(_cache_dir(cache_dir), f"relations_{space}_{weight}.json")
    sys_ = _MEMO.get(key)
    if sys_ is not None:
        # one stat a hit: this runs once per normal form
        try:
            mode = os.stat(path).st_mode
        except OSError:
            _atomic_write_json(path, sys_.to_json())
        else:
            if stat.S_ISDIR(mode):  # as opening it would in a fresh process
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        return sys_
    if os.path.exists(path):
        # a stale, foreign, inconsistent or too deeply nested file is rebuilt
        # and rewritten; JSONDecodeError is a ValueError
        try:
            with open(path) as fh:
                sys_ = RelationSystem.from_json(fh.read())
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError):
            sys_ = None
        if sys_ is not None and (sys_.space, sys_.weight) != key:
            sys_ = None
    if sys_ is None:
        sys_ = RelationSystem.build(space, weight)
        _atomic_write_json(path, sys_.to_json())
    _MEMO[key] = sys_
    return sys_


def dimension(space: str, weight: int, **kwargs) -> int:
    return relation_system(space, weight, **kwargs).dimension


def normal_form(element: FormalElement, **kwargs) -> FormalElement:
    """Canonical representative modulo the relations of its space and weight."""
    if not element:
        return element
    return relation_system(element.space, element.weight, **kwargs).normal_form(element)


def is_zero_in_space(element: FormalElement, **kwargs) -> bool:
    return not normal_form(element, **kwargs)


def _cache_files(cache_dir: str | Path | None) -> tuple[Path, list[Path]]:
    """The cache directory and its cache files, sorted: none when the directory
    does not exist, NotADirectoryError when something else stands there."""
    d = Path(_cache_dir(cache_dir))
    try:
        names = os.listdir(d)
    except FileNotFoundError:
        return d, []
    return d, sorted(d / n for n in names if fnmatchcase(n, "relations_*.json"))


def cache_status(cache_dir: str | Path | None = None) -> dict:
    d, files = _cache_files(cache_dir)
    return {
        "cache_dir": str(d),
        "files": [f.name for f in files],
        "total_bytes": sum(f.stat().st_size for f in files),
    }


def cache_clear(cache_dir: str | Path | None = None) -> int:
    _, files = _cache_files(cache_dir)
    for f in files:
        f.unlink()
    return len(files)


# -- tabular exports -------------------------------------------------------

def relation_rows(space: str, weight: int, reduced: bool = False,
                  cache_dir: str | Path | None = None) -> tuple[list[GenId], list[list[Fraction]]]:
    """Dense relation rows over the ordered basis, raw or row-reduced."""
    space = _space(space)
    basis = enumerate_generators(space, weight)
    if reduced:
        sys_ = relation_system(space, weight, cache_dir=cache_dir)
        dense = []
        for c, row in sys_.rref_rows:
            vec = [Fraction(0)] * len(basis)
            for j, v in row.items():
                vec[j] = v
            dense.append(vec)
        return basis, dense
    dense = []
    for _, _, rows in _relation_rows(space, weight):
        for den, row in rows:
            vec = [Fraction(0)] * len(basis)
            for j, n in row.items():
                vec[j] = Fraction(n, den)
            dense.append(vec)
    return basis, dense


def relations_to_csv(space: str, weight: int, reduced: bool = False,
                     cache_dir: str | Path | None = None) -> str:
    basis, rows = relation_rows(space, weight, reduced, cache_dir)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([str(g) for g in basis])
    for row in rows:
        writer.writerow([str(v) for v in row])
    return buf.getvalue()


def relations_to_json(space: str, weight: int, reduced: bool = False,
                      cache_dir: str | Path | None = None) -> dict:
    basis, rows = relation_rows(space, weight, reduced, cache_dir)
    return {
        "space": _space(space),
        "weight": weight,
        "basis": [str(g) for g in basis],
        "rows": [[str(v) for v in row] for row in rows],
    }
